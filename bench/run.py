"""apexsim benchmark: runs one workload for one seed from the repository root
and prints its metrics, ending with one JSON line.

    python3 bench/run.py --workload sim-grid64 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --list

See bench/README.md for the workloads, the metrics and how to read them.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from speed import PROBE_MARKS, REF_NS, SpeedTrack
from tracer import OP_SPAN, OpClock, Tracer, layer_metrics, op_seconds
from workloads import WORKLOADS, check_file_system

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MIN_EPISODES = 3  # for the per-op median of op latencies
APEXSIM_MODULES = ("compare", "config", "disk", "model", "policies", "priority",
                   "recovery", "tuner", "vfs", "workload")


def load_api():
    """Import apexsim from ./src and hand its modules out by name."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    import numpy

    apexsim = importlib.import_module("apexsim")
    if Path(apexsim.__file__).resolve().parent != (src / "apexsim").resolve():
        raise ImportError(f"imported apexsim from {apexsim.__file__}, not from {src}")
    api = SimpleNamespace(np=numpy)
    for name in APEXSIM_MODULES:
        setattr(api, name, importlib.import_module(f"apexsim.{name}"))
    try:
        api.heap = importlib.import_module("apexsim.heap")
    except ImportError:
        api.heap = None
    api.modules = [m for n, m in sys.modules.items() if n.startswith("apexsim.")]
    return api


def setup_probe(workload, seed):
    """Child side of ``setup_s``: imports, config and a fresh disk; then it
    prints the monotonic clock reading at which the first op could start and
    the speed kernel's time right after."""
    api = load_api()
    job = WORKLOADS[workload].prepare(api, ROOT, seed)
    api.disk.new_disk(job.geometry, job.coefficients)
    ready = time.monotonic_ns()
    track = SpeedTrack(api.np)
    for _ in range(PROBE_MARKS):
        track.mark()
    print(ready, statistics.median(k for _, k in track.marks))


def measure_setup(workload, seed):
    """Median of several fresh processes' start-to-first-op times, raw and
    rescaled by the speed kernel each process timed after its set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        ready, kernel_ns = out.stdout.split()[-2:]
        raw.append(int(ready) - start)
        scaled.append(raw[-1] * REF_NS / float(kernel_ns))
    return statistics.median(raw) / 1e9, statistics.median(scaled) / 1e9


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


class Timing:
    """One episode's wall time and op latencies, in ns."""

    def __init__(self, wall_ns, op_ns):
        self.wall_ns = wall_ns
        self.op_ns = op_ns


class Run:
    """One benchmark invocation: episodes of one workload, their checks and
    what they measured. An episode is one pass of the workload's body."""

    def __init__(self, name, seed, api):
        self.name = name
        self.seed = seed
        self.api = api
        self.wl = WORKLOADS[name]
        self.job = self.wl.prepare(api, ROOT, seed)
        self.errors = []
        self.attempted = 0
        self.fingerprint = None

    def _inputs(self):
        return self.wl.fresh_fs(self.api, self.job) if self.wl.fresh_fs else None

    def _agree(self, fingerprint, what):
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            self.errors.append(f"{what}: fingerprint differs from the first episode of this run")

    def untraced(self, replay):
        """One episode with only the op clock. Returns the episode's wall time
        and op latencies in ns, each raw and rescaled by the speed track."""
        fs = self._inputs()
        track = SpeedTrack(self.api.np)
        track.mark()
        with OpClock(self.api, track) as clock:
            start = time.perf_counter_ns()
            inner = track.kernel_ns
            try:
                outcome = self.wl.body(self.api, self.job, fs)
            finally:
                wall = time.perf_counter_ns() - start - (track.kernel_ns - inner)
                self.attempted += clock.ticks
        track.mark()
        if len(clock.samples) != clock.ticks:
            self.errors.append(f"op clock saw {clock.ticks} ticks but {len(clock.samples)} spatial passes")
        for fs in outcome.file_systems + clock.file_systems():
            self.errors += check_file_system(self.api, fs)
        self.errors += self.wl.check(self.api, self.job, outcome, replay)
        self._agree(outcome.fingerprint, "untraced episode")
        raw = Timing(wall, [d for _, d in clock.samples])
        return raw, Timing(sum(track.scale(track.segments())), track.scale(clock.samples))

    def traced(self):
        """One episode under the tracer, set-up included; returns the tracer
        and the number of ops."""
        with Tracer(self.api) as tracer:
            self.job = self.wl.prepare(self.api, ROOT, self.seed)
            fs = self._inputs()
            try:
                outcome = self.wl.body(self.api, self.job, fs)
            finally:
                ops = sum(1 for s in tracer.spans if s[0] == OP_SPAN)
                self.attempted += ops
        if tracer.stack:
            self.errors.append(f"{len(tracer.stack)} spans left open")
        self._agree(outcome.fingerprint, "traced episode")
        return tracer, ops


def timing_metrics(episodes):
    """Median episode wall and ops/s. Every episode of a run runs the same ops
    in the same order, so an op's latency is its median over the episodes,
    which drops a host stall that hit it in one of them; the percentiles are
    taken over those per-op medians."""
    ops = sorted(statistics.median(d) for d in zip(*(e.op_ns for e in episodes)))
    return {
        "wall_s": (statistics.median(e.wall_ns for e in episodes) / 1e9, "s"),
        "ops_per_s": (statistics.median(len(e.op_ns) / (sum(e.op_ns) / 1e9) for e in episodes), "ops/s"),
        "op_p50_us": (percentile(ops, 0.50) / 1e3, "us"),
        "op_p99_us": (percentile(ops, 0.99) / 1e3, "us"),
    }


def end_to_end(run, deadline):
    """At least MIN_EPISODES untraced episodes; after that, no episode that
    would end more than half an episode past the deadline."""
    raw, scaled = [], []
    while True:
        start = time.perf_counter()
        r, s = run.untraced(replay=not raw)
        now = time.perf_counter()
        raw.append(r)
        scaled.append(s)
        if len(r.op_ns) != len(raw[0].op_ns):
            run.errors.append(f"episode {len(raw)} ran {len(r.op_ns)} ops, the first ran {len(raw[0].op_ns)}")
        if run.errors or (len(raw) >= MIN_EPISODES and now + (now - start) / 2 >= deadline):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = {
        "episodes": len(raw),
        "op_latency_samples": len(raw[0].op_ns),  # per-op medians behind the percentiles
        "episode_wall_s_raw": [e.wall_ns / 1e9 for e in raw],
        "episode_wall_s": [e.wall_ns / 1e9 for e in scaled],
        "raw_host_time": {k: v for k, (v, _u) in timing_metrics(raw).items()},
    }
    metrics = timing_metrics(scaled)
    metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    return metrics, info


def per_layer(run, deadline):
    """One untraced episode as the overhead baseline, then traced episodes
    until the deadline. Counts must repeat exactly; times are medians."""
    raw, _scaled = run.untraced(replay=True)
    untraced_rate = len(raw.op_ns) / (sum(raw.op_ns) / 1e9)
    episodes, rates, spans_written = [], [], False
    while True:
        tracer, ops = run.traced()
        m = layer_metrics(tracer, ops)
        rates.append(ops / op_seconds(tracer))
        if not spans_written:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{run.name}-seed{run.seed}.csv")
            spans_written = True
        del tracer
        if episodes:
            for key, (value, unit) in m.items():
                if unit != "ns" and value != episodes[0][key][0]:
                    run.errors.append(f"{key} = {value}, first traced episode had {episodes[0][key][0]}")
        episodes.append(m)
        if time.perf_counter() >= deadline or run.errors:
            break
    metrics = {}
    for key, (value, unit) in episodes[0].items():
        if unit == "ns":
            value = statistics.median(e[key][0] for e in episodes)
        metrics[key] = (value, unit)
    traced_rate = statistics.median(rates)
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    metrics["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
    return metrics, {"traced_episodes": len(episodes)}


def source_digest():
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py"), *(ROOT / "configs").glob("*.ini")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def remember(run, digest, counts):
    """Fingerprints (and exact counts of traced runs) must agree across every
    run of the same source for the same workload and seed."""
    store = OUT / "fingerprints" / digest
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{run.name}-seed{run.seed}.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.get("fingerprint", run.fingerprint) != run.fingerprint:
        run.errors.append("fingerprint differs from an earlier run of the same source and seed")
    if counts and seen.get("counts", counts) != counts:
        diff = sorted(k for k in counts if seen["counts"].get(k) != counts[k])
        run.errors.append(f"exact counts differ from an earlier run of the same source and seed: {diff}")
    seen["fingerprint"] = run.fingerprint
    if counts:
        seen["counts"] = counts
    path.write_text(json.dumps(seen, sort_keys=True, indent=1) + "\n")


def list_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:22} {w['why']}")
    for section in ("end_to_end", "per_layer"):
        print(f"{section} metrics:")
        for m in spec[section]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:52} {m['unit']:8} {m['better']}{bound}")


def main(argv=None):
    p = argparse.ArgumentParser(description="apexsim benchmark (see bench/README.md)")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every workload and metric, then exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    if not (ROOT / "src" / "apexsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"{ROOT / 'src' / 'apexsim'} not found: run from the root of an apexsim checkout")
    deadline = time.perf_counter() + args.seconds
    api = load_api()
    if not args.trace:
        setup_raw, setup_s = measure_setup(args.workload, args.seed)
    run = Run(args.workload, args.seed, api)
    try:
        if args.trace:
            metrics, info = per_layer(run, deadline)
        else:
            metrics, info = end_to_end(run, deadline)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
            info["raw_host_time"]["setup_s"] = setup_raw
    except Exception:  # noqa: BLE001  an op that raised fails the run; report it
        traceback.print_exc()
        run.errors.append("an op raised")
        metrics, info = None, {}
    digest = source_digest()
    counts = None
    if args.trace and metrics:
        counts = {k: v for k, (v, unit) in metrics.items() if unit != "ns" and not k.startswith("trace.")}
    if run.fingerprint is not None:
        remember(run, digest, counts)

    correct = not run.errors
    failed = 0 if correct else run.attempted
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "errors": run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "fail_rate": failed / run.attempted if run.attempted else 1.0,
        "fingerprint": run.fingerprint,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
        **info,
        "env": {
            "python": platform.python_version(),
            "numpy": api.np.__version__,
            "nproc": os.cpu_count(),
            "commit": commit(),
            "source_sha256": digest,
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    for err in run.errors:
        print(f"check failed: {err}")
    for key, value in info.items():
        print(f"{key} = {value}")
    print(f"fail_rate = {result['fail_rate']} ({failed} of {run.attempted} ops)")
    print(f"fingerprint = {json.dumps(run.fingerprint, sort_keys=True)}")
    if metrics is None:
        return 1
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
