"""Paired benchmark runs of two apexsim trees, written to one BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload sim-churn-flat \
        --seed 3 --pairs 10 --seconds 15 --out BENCH_name.json

PARENT and CHANGE are each a git revision, which is exported with
``git archive`` into --workdir, or a directory that already holds an
exported tree. Each pair runs ``bench/run.py --trace 0`` once on each tree,
one process at a time; pair i runs the parent first when i is even, so
neither side always runs first. Every --workload is run at every --seed.

The output holds, per (workload, seed), each side's runs of every
end-to-end metric that BENCHMARK.json names, both medians and quartiles,
the change's win count (better in the metric's own direction within a
pair), whether the change's median gain exceeds the parent's interquartile
range, and whether every run's fingerprint was the same. The file is
rewritten after every pair; entries of an earlier --out for other
(workload, seed) keys are kept.

The exit status is 1, once the file is written, when any run was not
correct or reported failed ops; stderr names each such (workload, seed).
Differing fingerprints are only a warning on stderr, since a change may
move bytes on purpose.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def export(rev_or_dir, workdir):
    """The tree to run for rev_or_dir and the commit it names (None for a
    directory given as it is)."""
    path = Path(rev_or_dir)
    if path.is_dir():
        return path.resolve(), None
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev_or_dir}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = workdir / sha[:12]
    if not tree.is_dir():
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree, sha


def run_once(tree, workload, seed, seconds):
    """One bench/run.py process on tree; returns its result file's contents."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=seconds * 4 + 120)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}: {out.stderr.strip()}")
    return json.loads((tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text())


def quartiles(values):
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent, change, better):
    """Medians, quartiles and wins of paired runs of one metric, pair i being
    (parent[i], change[i]); better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    return {
        "parent_median": p_med,
        "parent_quartiles": [p1, p3],
        "parent_iqr": p3 - p1,
        "change_median": c_med,
        "change_quartiles": [c1, c3],
        "change_vs_parent": c_med / p_med - 1 if p_med else None,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True)),
        "beyond_parent_iqr": sign * (c_med - p_med) > p3 - p1,
    }


def entry(workload, seed, results):
    """The output entry of one (workload, seed) from its runs, results being
    a list of (parent result, change result) pairs."""
    runs = [r for pair in results for r in pair]
    metrics, summary = {}, {}
    for m in METRICS:
        name = m["name"]
        sides = [[r[side]["metrics"][name]["value"] for r in results] for side in (0, 1)]
        metrics[name] = {"parent": sides[0], "change": sides[1]}
        summary[name] = summarize(*sides, m["better"])
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(results),
        "fingerprints_equal": all(r["fingerprint"] == runs[0]["fingerprint"] for r in runs),
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": {"parent": [p["attempted"] for p, _ in results],
                      "change": [c["attempted"] for _, c in results]},
        "fingerprint": runs[0]["fingerprint"],
        "metrics": metrics,
        "summary": summary,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="paired bench/run.py runs of two apexsim trees")
    p.add_argument("parent", help="git revision or exported tree of the parent")
    p.add_argument("change", help="git revision or exported tree of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workdir", type=Path, default=ROOT / ".bench_build",
                   help="where git revisions are exported (default: .bench_build)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    (parent, parent_sha), (change, change_sha) = (export(x, args.workdir) for x in (args.parent, args.change))
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": []}
    earlier = [doc.get(side, {}).get("source_sha256") for side in ("parent", "change")]
    doc.update({
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "pairing": "alternating: pair i runs the parent first when i is even",
        "parent": {"tree": args.parent, "commit": parent_sha},
        "change": {"tree": args.change, "commit": change_sha},
    })
    broken = []
    for workload in args.workload:
        for seed in args.seed:
            results = []
            for i in range(args.pairs):
                order = (parent, change) if i % 2 == 0 else (change, parent)
                first, second = (run_once(tree, workload, seed, args.seconds) for tree in order)
                results.append((first, second) if i % 2 == 0 else (second, first))
                sources = [r["env"]["source_sha256"] for r in results[0]]
                if doc["workloads"] and earlier != sources:
                    raise SystemExit(f"{args.out} holds runs of other trees; name a new --out")
                earlier = sources
                doc["parent"]["source_sha256"], doc["change"]["source_sha256"] = sources
                doc["env"] = {k: results[0][0]["env"][k] for k in ("python", "numpy", "nproc")}
                doc["workloads"] = [w for w in doc["workloads"] if (w["workload"], w["seed"]) != (workload, seed)]
                current = entry(workload, seed, results)
                doc["workloads"].append(current)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                ops = current["summary"]["ops_per_s"]
                print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: ops_per_s "
                      f"{ops['parent_median']:.0f} -> {ops['change_median']:.0f}, "
                      f"change wins {ops['change_wins']}, correct {current['all_correct']}, "
                      f"failed {current['failed']}", flush=True)
            if not current["fingerprints_equal"]:
                print(f"warning: {workload} seed {seed}: fingerprints differ", file=sys.stderr)
            if not current["all_correct"] or current["failed"]:
                broken.append(f"{workload} seed {seed}")
    for name in broken:
        print(f"{name}: a run was not correct or reported failed ops", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
