"""The benchmark's workloads: inputs made from a seed, a timed body and the
output checks. Each body drives apexsim's public API the way its command does.

Every check holds for any correct program; none of it is timed.
"""

import hashlib
from dataclasses import replace


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Job:
    """Everything a workload needs before its first op."""

    def __init__(self, cfg, geometry, coefficients, **extra):
        self.cfg = cfg
        self.geometry = geometry
        self.coefficients = coefficients
        self.__dict__.update(extra)


class Outcome:
    def __init__(self, fingerprint, file_systems, trace=None, rows=None):
        self.fingerprint = fingerprint
        self.file_systems = file_systems
        self.trace = trace
        self.rows = rows


def check_file_system(api, fs):
    """Block conservation, live files owning exactly the used blocks, and
    ``top_unused`` against an independent lexsort of (-score, address)."""
    np = api.np
    disk = fs.disk
    total = disk.geometry.total_blocks
    used = np.flatnonzero(disk.used_mask)
    errors = []
    if len(used) + fs.free_blocks() != total:
        errors.append(f"used {len(used)} + free {fs.free_blocks()} != total {total}")
    owned = sorted(a for f in fs.live_files() for a in f.block_list)
    if owned != used.tolist():
        errors.append("live files do not own exactly the used blocks")
    free = np.flatnonzero(~disk.used_mask)
    pf = disk.pf_array()
    expected = free[np.lexsort((free, -pf[free]))].tolist()
    got = [int(a) for a in api.priority.top_unused(disk, len(free))]
    if got != expected:
        errors.append("top_unused differs from a lexsort of (-pf_array(), address)")
    return errors


class Sim:
    """``apexsim simulate`` on a 64x64 disk from empty, example.ini's
    coefficients, with the workload's neighborhood, op mix and file sizes."""

    def __init__(self, neighborhood, mix, max_file_blocks, ops):
        self.neighborhood = neighborhood
        self.mix = mix
        self.max_file_blocks = max_file_blocks
        self.ops = ops

    def prepare(self, api, root, seed):
        cfg = api.config.load_config(str(root / "configs" / "example.ini"), seed_override=seed)
        geometry = replace(
            cfg.geometry, rows=64, cols=64,
            neighborhood=api.model.Neighborhood.parse(self.neighborhood),
        )
        workload = replace(
            cfg.workload, total_ops=self.ops, max_file_blocks=self.max_file_blocks, op_mix=self.mix
        )
        return Job(cfg, geometry, cfg.coefficients, workload=workload)

    def fresh_fs(self, api, job):
        disk = api.disk.new_disk(job.geometry, job.coefficients)
        policy = api.policies.make_policy(job.cfg.policy_kind, seed=job.workload.rng_seed)
        return api.vfs.FileSystem(disk, policy=policy, invert_link_rule=job.cfg.invert_link_rule)

    def body(self, api, job, fs):
        report, trace = api.workload.run_simulation(job.workload, fs, job.cfg.weights)
        fingerprint = {
            "snapshot_sha256": report.snapshot_sha256,
            "weighted_rr": report.weighted_rr,
            "executed_ops": report.executed_ops,
            "op_counts": dict(sorted(report.op_counts.items())),
        }
        return Outcome(fingerprint, [fs], trace)

    def check(self, api, job, outcome, replay):
        fp = outcome.fingerprint
        errors = []
        if sum(fp["op_counts"].values()) != fp["executed_ops"] or fp["executed_ops"] != self.ops:
            errors.append(f"op counts {fp['op_counts']} do not add up to {self.ops}")
        if replay:
            again = api.workload.replay_trace(outcome.trace, self.fresh_fs(api, job), job.cfg.weights)
            if again.snapshot_sha256 != fp["snapshot_sha256"]:
                errors.append("replaying the trace on a fresh disk gives another snapshot hash")
            if again.weighted_rr != fp["weighted_rr"]:
                errors.append("replaying the trace gives another weighted_rr")
        return errors


class Train:
    """``apexsim train`` on configs/example.ini with only the interval budget
    shortened."""

    fresh_fs = None

    def __init__(self, min_budget):
        self.min_budget = min_budget

    def prepare(self, api, root, seed):
        cfg = api.config.load_config(str(root / "configs" / "example.ini"), seed_override=seed)
        tc = cfg.train_config()
        tc = replace(tc, schedule=replace(tc.schedule, min_budget=self.min_budget))
        return Job(cfg, cfg.geometry, cfg.coefficients, train_config=tc)

    def body(self, api, job, _fs):
        report = api.tuner.train(job.train_config)
        fingerprint = {
            "best_state": list(report.best_state),
            "final_state": list(report.final_state),
            "intervals": len(report.trajectory),
            "p_initial": report.p_initial,
            "final_greedy_p": report.final_greedy_p,
            "first_fit_p": report.first_fit_p,
            "report_sha256": _digest(report.to_json()),
        }
        return Outcome(fingerprint, [])

    def check(self, api, job, outcome, _replay):
        fp = outcome.fingerprint
        lo, hi = api.model.Hyperparams.LATTICE_MIN, api.model.Hyperparams.LATTICE_MAX
        errors = []
        if not all(lo <= c <= hi for c in fp["best_state"] + fp["final_state"]):
            errors.append(f"coefficients outside [{lo}, {hi}]: {fp['best_state']} {fp['final_state']}")
        if not 0 < fp["intervals"] <= self.min_budget:
            errors.append(f"{fp['intervals']} intervals for a budget of {self.min_budget}")
        for key in ("p_initial", "final_greedy_p", "first_fit_p"):
            if not 0.0 <= fp[key] <= 100.0:  # alpha 1, beta 0: the objective is weighted_rr
                errors.append(f"{key} = {fp[key]} outside [0, 100]")
        return errors


class Compare:
    """``apexsim compare`` on configs/surveillance.ini; the seed picks which
    block of cell seeds the sweep runs, keeping their number."""

    fresh_fs = None

    def prepare(self, api, root, seed):
        cfg = api.config.load_config(str(root / "configs" / "surveillance.ini"))
        n = len(cfg.compare_settings.seeds)
        settings = replace(cfg.compare_settings, seeds=tuple(range(seed * n, (seed + 1) * n)))
        return Job(cfg, cfg.geometry, cfg.coefficients, settings=settings)

    def body(self, api, job, _fs):
        cfg = job.cfg
        rows = api.compare.run_compare(cfg.geometry, cfg.coefficients, job.settings, cfg.invert_link_rule)
        report = api.compare.compare_report_json(job.settings, rows, cfg.geometry, cfg.coefficients)
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row.policy, []).append(row.weighted_rr)
        fingerprint = {
            "cells": len(rows),
            "mean_weighted_rr": {p: sum(v) / len(v) for p, v in sorted(by_policy.items())},
            "rows_sha256": _digest(report),
        }
        return Outcome(fingerprint, [], rows=rows)

    def check(self, api, job, outcome, _replay):
        s = job.settings
        rows = outcome.rows
        errors = []
        if len(rows) != len(s.policies) * len(s.secondary_targets) * len(s.seeds):
            errors.append(f"{len(rows)} rows for {len(s.policies)} policies x "
                          f"{len(s.secondary_targets)} targets x {len(s.seeds)} seeds")
        for r in rows:
            if not 0.0 <= r.weighted_rr <= 100.0 or not all(0.0 <= v <= 1.0 for v in r.per_file_rr):
                errors.append(f"recovery out of range in cell {r.policy}/{r.seed}")
                break
        return errors


WORKLOADS = {
    "sim-grid64": Sim("grid-row", (0.70, 0.15, 0.15), 8, ops=1000),
    "sim-churn-flat": Sim("none", (0.20, 0.40, 0.40), 64, ops=4000),
    "train-example": Train(min_budget=30),
    "compare-surveillance": Compare(),
}

