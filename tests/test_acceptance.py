"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line on the real console so the
verdicts read as a checklist even under output capture. The slow shared run
backing criteria 2 and 3 executes once per session.
"""

import random
import sys
import time
from itertools import compress

import pytest

from apexsim.compare import CompareSettings, run_compare
from apexsim.disk import new_disk
from apexsim.model import GRID_ROW, DiskGeometry, Hyperparams, Neighborhood
from apexsim.priority import top_unused
from apexsim.recovery import (
    PerfWeights,
    access_time_term,
    measure_recovery,
    performance,
)
from apexsim.tuner import TrainConfig, TrainSchedule, train
from apexsim.vfs import OBSOLETE, FileSystem
from apexsim.workload import WorkloadConfig, WorkloadRunner, run_simulation

from conftest import make_fs
from oracles import (
    ClaimHistoryRecovery,
    FactorOracle,
    OpEvents,
    assert_conservation,
    rank_by_full_sort,
    weighted_rr,
)

REFERENCE = Hyperparams(4, 7, 1, 9)


def verdict(num, label, fn):
    started = time.monotonic()
    try:
        detail = fn()
    except AssertionError as e:
        first = str(e).splitlines()[0] if str(e) else "assertion failed"
        print(f"criterion {num}: FAIL - {label} ({first})", file=sys.__stdout__)
        raise
    elapsed = time.monotonic() - started
    extra = f"{detail}, " if detail else ""
    print(f"criterion {num}: PASS - {label} ({extra}{elapsed:.1f}s)", file=sys.__stdout__)


# -- criterion 1: ranking equals a from-scratch sort -------------------------------


def test_criterion_1_ranking_matches_full_sort():
    def check():
        started = time.monotonic()
        rng = random.Random(404)
        states = 0
        for seed in range(10):
            fs = make_fs(rows=16, cols=16, hp=REFERENCE.as_tuple())
            runner = WorkloadRunner(
                WorkloadConfig(rng_seed=seed, total_ops=0, max_file_blocks=10), fs
            )
            for _ in range(100):
                runner.step()
                free = fs.free_blocks()
                if free == 0:
                    continue
                k = rng.randint(1, free)
                assert top_unused(fs.disk, k) == rank_by_full_sort(fs.disk, k), (
                    f"ranking diverged from full sort (seed {seed}, k {k})"
                )
                states += 1
        assert states >= 1000, f"only {states} states sampled"
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
        return f"{states} states, 0 mismatches"

    verdict(1, "allocation ranking equals full re-sort", check)


# -- criteria 2 and 3 share one long run -------------------------------------------

_long_run = {}


def long_conformance_run():
    if _long_run:
        return _long_run
    started = time.monotonic()
    fs = make_fs(rows=16, cols=16, hp=REFERENCE.as_tuple())
    events = OpEvents(fs)
    oracle = FactorOracle(fs.disk.geometry, REFERENCE)
    runner = WorkloadRunner(
        WorkloadConfig(rng_seed=2026, total_ops=0, max_file_blocks=20), fs
    )
    ops = 100_000
    for _ in range(ops):
        oracle.apply_all(events.of(runner.step()))
        oracle.assert_matches(fs.disk)
        assert_conservation(fs)
    _long_run.update(ops=ops, seconds=time.monotonic() - started)
    return _long_run


def test_criterion_2_factor_rules_conform():
    def check():
        run = long_conformance_run()
        assert run["seconds"] < 120, f"took {run['seconds']:.1f}s, budget 120s"
        return f"{run['ops']} ops, factors exact after every op"

    verdict(2, "factor bookkeeping matches rule replay", check)


def test_criterion_3_block_conservation():
    def check():
        run = long_conformance_run()
        return f"{run['ops']} ops, partition intact after every op"

    verdict(3, "used plus unused always covers the disk exactly", check)


# -- criterion 4: recovery vs claim-history reconstruction -------------------------


def test_criterion_4_recovery_matches_history_oracle():
    def check():
        shapes = [(4, 4), (2, 8), (4, 8), (8, 4), (8, 8), (4, 16)]
        rng = random.Random(505)
        runs = 500
        files_checked = 0
        for i in range(runs):
            rows, cols = shapes[i % len(shapes)]
            hp = Hyperparams(*(rng.randint(1, 10) for _ in range(4)))
            fs = make_fs(
                rows=rows,
                cols=cols,
                hp=hp.as_tuple(),
                invert_link_rule=(i % 7 == 0),
            )
            cfg = WorkloadConfig(
                rng_seed=1000 + i,
                total_ops=0,
                max_file_blocks=rng.randint(1, 5),
                min_utilization=rng.choice([0.0, 0.3, 0.6]),
                linked_file_percent=rng.choice([0.0, 20.0, 60.0]),
            )
            runner, events = WorkloadRunner(cfg, fs), OpEvents(fs)
            oracle = ClaimHistoryRecovery(fs.disk.geometry.block_size_bytes)
            for _ in range(rng.randint(40, 80)):
                oracle.apply_all(events.of(runner.step()))
            retired = fs.deleted_files()
            measured = measure_recovery(fs.disk, retired)
            for rec, (intact, _, rr) in zip(retired, measured, strict=True):
                assert frozenset(compress(rec.block_list, intact)) == oracle.surviving(rec.id), (
                    f"surviving set mismatch, run {i} file {rec.path}"
                )
                assert (rec.status == OBSOLETE) == (not oracle.surviving(rec.id)), (
                    f"status {rec.status} disagrees with surviving set, run {i} file {rec.path}"
                )
                assert rr == pytest.approx(oracle.rr(rec.id), abs=1e-12), (
                    f"rr mismatch, run {i} file {rec.path}"
                )
                files_checked += 1
        assert files_checked >= 1000, f"only {files_checked} deleted files seen"
        return f"{runs} runs, {files_checked} files, 0 mismatches"

    verdict(4, "per-file recovery equals claim-history reconstruction", check)


# -- criterion 5: ranked allocation beats first-fit on the archive scenario --------


def test_criterion_5_ranked_beats_first_fit_on_archive_churn():
    def check():
        started = time.monotonic()
        geometry = DiskGeometry(16, 16, 4096, Neighborhood(GRID_ROW))
        settings = CompareSettings()  # 5x25-block archive, 102/200 churn, 50 seeds
        rows = run_compare(geometry, REFERENCE, settings)
        wrr = {(r.policy, r.secondary_blocks, r.seed): r.weighted_rr for r in rows}
        mean_rr = {
            (r.policy, r.secondary_blocks, r.seed): sum(r.per_file_rr) / len(r.per_file_rr)
            for r in rows
        }
        cells = [(t, s) for t in settings.secondary_targets for s in settings.seeds]
        ge = sum(wrr[("apex", t, s)] >= wrr[("first-fit", t, s)] for t, s in cells)
        gt = sum(wrr[("apex", t, s)] > wrr[("first-fit", t, s)] for t, s in cells)
        assert ge / len(cells) >= 0.90, f"apex >= first-fit in only {ge}/{len(cells)} cells"
        assert gt / len(cells) >= 0.50, f"apex > first-fit in only {gt}/{len(cells)} cells"
        low, high = settings.secondary_targets
        for policy in settings.policies:
            for s in settings.seeds:
                assert mean_rr[(policy, high, s)] <= mean_rr[(policy, low, s)] + 1e-9, (
                    f"mean rr rose with churn size ({policy}, seed {s})"
                )
        elapsed = time.monotonic() - started
        assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
        return f"{len(cells)} cells, >= in {ge}, strict in {gt}, monotone everywhere"

    verdict(5, "ranked policy preserves more than first-fit under churn", check)


# -- criterion 6: the tuner actually improves the objective ------------------------


def test_criterion_6_training_improves_performance():
    def check():
        started = time.monotonic()
        config = TrainConfig(
            geometry=DiskGeometry(16, 16, 4096, Neighborhood(GRID_ROW)),
            schedule=TrainSchedule(min_budget=500, oin_per_min=200),
            workload=WorkloadConfig(
                rng_seed=3, total_ops=200, max_file_blocks=8, min_utilization=0.70
            ),
            weights=PerfWeights(0.0),
        )
        report = train(config)
        first = report.first_min_p
        assert first > 0, f"first interval scored {first}, nothing to improve on"
        ratio = report.final_greedy_p / first
        assert ratio >= 1.2, (
            f"final greedy p {report.final_greedy_p:.2f} vs first {first:.2f} "
            f"is only {ratio:.3f}x"
        )
        eps = [r.epsilon for r in report.trajectory]
        assert eps[0] == 1.0
        assert all(a > b for a, b in zip(eps, eps[1:])), "exploration not strictly decaying"
        assert report.final_epsilon <= 3e-5
        assert Hyperparams.from_tuple(report.best_state).in_lattice()
        elapsed = time.monotonic() - started
        assert elapsed < 600, f"took {elapsed:.1f}s, budget 600s"
        return (
            f"first {first:.2f} -> greedy {report.final_greedy_p:.2f} "
            f"({ratio:.2f}x) at {report.best_state}"
        )

    verdict(6, "tuning lifts the objective at least 1.2x", check)


# -- criterion 7: determinism and replay -------------------------------------------


def test_criterion_7_determinism_and_replay():
    def check():
        from apexsim.workload import replay_trace

        for seed in range(20):
            cfg = WorkloadConfig(rng_seed=seed, total_ops=150, max_file_blocks=6)
            fs = make_fs(rows=8, cols=8)
            report, trace = run_simulation(cfg, fs)
            fs2 = make_fs(rows=8, cols=8)
            replay_trace(trace, fs2)
            assert fs.disk.snapshot_sha256() == fs2.disk.snapshot_sha256(), (
                f"replay diverged on seed {seed}"
            )
        tc = TrainConfig(
            geometry=DiskGeometry(8, 8, 4096, Neighborhood(GRID_ROW)),
            schedule=TrainSchedule(min_budget=10, oin_per_min=40),
            workload=WorkloadConfig(rng_seed=6, total_ops=0, max_file_blocks=4),
        )
        assert train(tc).to_json() == train(tc).to_json(), "training not repeatable"
        return "20 replayed seeds bitwise equal, training repeatable"

    verdict(7, "simulate, replay and retrain are bit-stable", check)


# -- criterion 8: objective arithmetic ----------------------------------------------


def test_criterion_8_objective_corner_weights():
    def check():
        rng = random.Random(808)
        states = 0
        while states < 100:
            cfg = WorkloadConfig(
                rng_seed=rng.randrange(10_000),
                total_ops=0,
                max_file_blocks=rng.randint(2, 8),
            )
            fs = make_fs(rows=8, cols=8)
            runner = WorkloadRunner(cfg, fs)
            for _ in range(5):
                runner.run(rng.randint(10, 30))
                wrr = weighted_rr(fs.disk, fs.deleted_files())
                assert performance(fs, PerfWeights(0.0)) == wrr
                assert performance(fs, PerfWeights(1.0)) == -access_time_term(fs)
                states += 1
        return f"{states} states, both corner identities exact"

    verdict(8, "objective reduces to its corner terms exactly", check)
