"""Command-line front end.

Commands: train, simulate, replay, compare. Machine-readable output goes to
files named <command>-<seed>-<timestamp>.json/.csv in the output directory,
and a simulate or replay report carries a recovery row per deleted or
obsolete file; stdout gets a one-line summary. Exit codes: 0 success, 2
input or config validation failure, 1 internal invariant violation.
"""

import argparse
import csv
import hashlib
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from .compare import compare_report, run_compare
from .config import load_config
from .disk import new_disk
from .errors import ConfigError, TraceError
from .model import canonical_json
from .policies import KINDS, make_policy
from .tuner import train
from .vfs import FileSystem
from .workload import read_trace, replay_trace, run_simulation, write_trace


def _write_report(args, command, seed, payload, table=None) -> str:
    """Write a run's report, with the report format's name and version and
    the config file's sha256, to <command>-<seed>-<stamp>.json in the output
    directory, and its table, if any, to the .csv of the same name. Returns
    that name without extension, for any further file of the run."""
    # microsecond resolution so back-to-back runs never collide on a name
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, f"{command}-{seed}-{stamp}")
    with open(args.config, "rb") as fh:
        payload["config_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    # a change to any report's keys bumps the version
    payload.update(format="apexsim-report", version=2)
    with open(f"{base}.json", "w") as fh:
        fh.write(canonical_json(payload) + "\n")
    if table is not None:
        with open(f"{base}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)
    return base


def _fresh_fs(cfg):
    disk = new_disk(cfg.geometry, cfg.coefficients)
    policy = make_policy(cfg.policy_kind, seed=cfg.workload.rng_seed)
    return FileSystem(disk, policy=policy, invert_link_rule=cfg.invert_link_rule)


def cmd_simulate(args) -> int:
    """Run a seeded workload; write the report and its trace."""
    # the report is written before the trace, so a trace path that names a
    # directory, or whose directory does not exist, is rejected before the run
    if args.trace and (os.path.isdir(args.trace)
                       or not os.path.isdir(os.path.dirname(args.trace) or ".")):
        raise ConfigError(f"trace path is a directory or its directory is missing: {args.trace}")
    cfg = load_config(args.config, seed_override=args.seed, policy_override=args.policy)
    fs = _fresh_fs(cfg)
    report, trace = run_simulation(cfg.workload, fs, cfg.weights)
    seed = cfg.workload.rng_seed
    base = _write_report(args, "simulate", seed, report.to_dict())
    trace_path = args.trace or f"{base}.trace.jsonl"
    write_trace(trace, trace_path)
    print(
        f"simulate seed={seed} ops={report.executed_ops} "
        f"wrr={report.weighted_rr:.4f} perf={report.performance:.4f} "
        f"report={base}.json trace={trace_path}"
    )
    return 0


def cmd_replay(args) -> int:
    """Re-execute a recorded trace on a fresh disk and report."""
    if not args.trace:
        raise ConfigError("replay requires --trace PATH")
    cfg = load_config(args.config, seed_override=args.seed, policy_override=args.policy)
    ops = read_trace(args.trace)
    fs = _fresh_fs(cfg)
    report = replay_trace(ops, fs, cfg.weights)
    payload = report.to_dict()
    payload["trace_path"] = os.path.basename(args.trace)
    base = _write_report(args, "replay", cfg.workload.rng_seed, payload)
    print(
        f"replay ops={report.executed_ops} wrr={report.weighted_rr:.4f} "
        f"snapshot={report.snapshot_sha256[:12]} report={base}.json"
    )
    return 0


def cmd_train(args) -> int:
    """Tune the ranking coefficients; write the report and per-interval table."""
    cfg = load_config(args.config, seed_override=args.seed)
    report = train(cfg.train_config())
    seed = cfg.workload.rng_seed
    base = _write_report(args, "train", seed, report.to_dict(), report.csv_rows())
    first = report.first_min_p
    # a ratio to a first objective of 0 says nothing, whatever the final one
    gain = f"{report.final_greedy_p / first:.2f}x" if first > 0 else "n/a"
    print(
        f"train seed={seed} final={report.best_state} "
        f"p_first={first:.4f} p_final={report.final_greedy_p:.4f} "
        f"gain={gain} report={base}.json table={base}.csv"
    )
    return 0


def cmd_compare(args) -> int:
    """Measure primary-corpus recovery under each policy as secondary data floods in."""
    cfg = load_config(args.config, seed_override=None, policy_override=None)
    settings = cfg.compare_settings
    if args.seed is not None:
        settings = replace(settings, seeds=(args.seed,))
    if args.policy is not None:
        settings = replace(settings, policies=(args.policy,))
    rows = run_compare(cfg.geometry, cfg.coefficients, settings, cfg.invert_link_rule)
    header = ["policy", "secondary_blocks", "seed", "weighted_rr"]
    header += [f"rr_file_{i}" for i in range(settings.primary_count)]
    table = [header] + [
        [row.policy, row.secondary_blocks, row.seed, repr(row.weighted_rr)]
        + [repr(v) for v in row.per_file_rr]
        for row in rows
    ]
    base = _write_report(
        args, "compare", settings.seeds[0],
        compare_report(settings, rows, cfg.geometry, cfg.coefficients), table,
    )
    print(
        f"compare cells={len(rows)} policies={','.join(settings.policies)} "
        f"targets={','.join(str(t) for t in settings.secondary_targets)} "
        f"report={base}.json table={base}.csv"
    )
    return 0


_COMMANDS = {
    "train": cmd_train,
    "simulate": cmd_simulate,
    "replay": cmd_replay,
    "compare": cmd_compare,
}
# the commands that read --policy and --trace; the others do not take them
_READ_POLICY = ("simulate", "replay", "compare")
_READ_TRACE = ("simulate", "replay")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apexsim",
        description="Recoverability-aware block allocation sandbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the workload seed")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if name in _READ_POLICY:
            p.add_argument(
                "--policy",
                choices=KINDS,
                default=None,
                help="override the allocation policy",
            )
        if name in _READ_TRACE:
            p.add_argument("--trace", default=None, help="trace file to write (simulate) or read")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"output path is not a directory: {args.out}")
        return handler(args)
    except (ConfigError, TraceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  invariant breakage, not bad input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
