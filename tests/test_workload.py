"""Op generation rules, seeded determinism, trace record and replay."""

import json
import random
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apexsim import workload
from apexsim.config import load_config
from apexsim.disk import new_disk
from apexsim.errors import ConfigError, TraceError
from apexsim.model import DiskGeometry, Neighborhood
from apexsim.policies import make_policy
from apexsim.recovery import PerfWeights, performance
from apexsim.tuner import TrainConfig, TrainSchedule, train
from apexsim.vfs import FileSystem
from apexsim.workload import (
    WorkloadConfig,
    WorkloadOp,
    _Counts,
    _LiveFile,
    apply_ops,
    execute_op,
    generate_op,
    generate_ops,
    read_trace,
    replay_trace,
    run_simulation,
    write_trace,
)

from conftest import applied_ops, make_fs


def stream_view(files, total=1000, used=0):
    """The stream's own counts-only view, set by hand for driving
    generate_op without a disk."""
    state = _Counts(total)
    state.used = used
    state.live.extend(files)
    return state


def one_file():
    return [_LiveFile("/f0.txt", 2)]


def test_empty_namespace_forces_create():
    cfg = WorkloadConfig(op_mix=(1.0, 0.0, 0.0))  # sampler wants read/write
    for seed in range(10):
        op = generate_op(random.Random(seed), cfg, stream_view([]))
        assert op.kind == "create"


def test_delete_below_floor_becomes_create():
    cfg = WorkloadConfig(op_mix=(0.0, 0.0, 1.0), min_utilization=0.30)
    state = stream_view(one_file(), total=16, used=4)
    # dropping the only 4-block file would land at 0 percent
    op = generate_op(random.Random(1), cfg, state)
    assert op.kind == "create"


def test_delete_allowed_at_floor_zero():
    cfg = WorkloadConfig(op_mix=(0.0, 0.0, 1.0), min_utilization=0.0)
    state = stream_view(one_file(), total=16, used=4)
    op = generate_op(random.Random(1), cfg, state)
    assert op.kind == "delete"
    assert op.path == "/f0.txt"


def test_create_clamped_to_free_space():
    cfg = WorkloadConfig(op_mix=(0.0, 1.0, 0.0), max_file_blocks=20)
    for seed in range(20):
        state = stream_view(one_file(), total=16, used=14)  # room for 1 data block
        op = generate_op(random.Random(seed), cfg, state)
        assert op.kind == "create"
        assert op.size_blocks == 1


def test_create_degrades_to_read_when_nothing_fits():
    cfg = WorkloadConfig(op_mix=(0.0, 1.0, 0.0))
    state = stream_view(one_file(), total=16, used=15)
    op = generate_op(random.Random(3), cfg, state)
    assert op.kind == "read"
    assert op.path == "/f0.txt"


def test_tiny_disk_with_nothing_to_do_rejected():
    cfg = WorkloadConfig(op_mix=(0.0, 1.0, 0.0))
    state = stream_view([], total=1, used=0)
    with pytest.raises(ConfigError):
        generate_op(random.Random(0), cfg, state)


def test_op_mix_converges():
    cfg = WorkloadConfig(min_utilization=0.0)
    rng = random.Random(2024)
    counts = Counter()
    for _ in range(10000):
        state = stream_view(one_file(), total=1000, used=500)
        counts[generate_op(rng, cfg, state).kind] += 1
    assert counts["read"] + counts["write"] == pytest.approx(7000, abs=300)
    assert counts["create"] == pytest.approx(1500, abs=300)
    assert counts["delete"] == pytest.approx(1500, abs=300)


def test_runner_is_deterministic_per_seed():
    cfg = WorkloadConfig(rng_seed=42, total_ops=200, max_file_blocks=5)
    lines = []
    hashes = []
    for _ in range(2):
        fs = make_fs(rows=8, cols=8)
        report, trace = run_simulation(cfg, fs)
        lines.append([op.to_json_line() for op in trace])
        hashes.append(report.snapshot_sha256)
    assert lines[0] == lines[1]
    assert hashes[0] == hashes[1]
    fs = make_fs(rows=8, cols=8)
    other, _ = run_simulation(WorkloadConfig(rng_seed=43, total_ops=200, max_file_blocks=5), fs)
    assert other.snapshot_sha256 != hashes[0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    neighborhood=st.one_of(
        st.sampled_from(["grid-row", "none"]),
        st.integers(1, 20).map("contiguous:{}".format),
    ),
    mix=st.tuples(*[st.integers(0, 4)] * 3).filter(any),
    max_file_blocks=st.integers(1, 20),
    min_utilization=st.floats(0.0, 0.95),
)
def test_op_stream_does_not_depend_on_placement(
    seed, rows, cols, neighborhood, mix, max_file_blocks, min_utilization
):
    """generate_op reads counts only, never an address, a factor or the
    policy: on one seed, every policy and coefficient tuple runs the same
    trace, byte for byte."""
    assume(rows * cols >= 2)
    cfg = WorkloadConfig(rng_seed=seed, total_ops=300, max_file_blocks=max_file_blocks,
                         min_utilization=min_utilization,
                         op_mix=tuple(w / sum(mix) for w in mix))
    arms = [("apex", (4, 7, 1, 9)), ("apex", (3, 2, 2, 2)), ("apex", (10, 1, 10, 1)),
            ("first-fit", (4, 7, 1, 9)), ("random", (4, 7, 1, 9))]
    traces = set()
    for policy, hp in arms:
        fs = make_fs(rows=rows, cols=cols, neighborhood=neighborhood, hp=hp,
                     policy=make_policy(policy, seed=seed))
        _, trace = run_simulation(cfg, fs)
        traces.add("".join(op.to_json_line() for op in trace))
    assert len(traces) == 1


def _files(files):
    return sorted((f.path, f.data_blocks) for f in files)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    neighborhood=st.one_of(
        st.sampled_from(["grid-row", "none"]),
        st.integers(1, 20).map("contiguous:{}".format),
    ),
    policy=st.sampled_from(["apex", "first-fit", "random"]),
    mix=st.tuples(*[st.integers(0, 4)] * 3).filter(any),
    max_file_blocks=st.integers(1, 20),
    min_utilization=st.floats(0.0, 0.95),
)
def test_stream_counts_equal_the_file_system_after_every_op(
    seed, rows, cols, neighborhood, policy, mix, max_file_blocks, min_utilization
):
    """The stream keeps what generate_op reads from its own ops alone: after
    every applied op, its live files' paths and data blocks are
    fs.live_files()'s, both sorted by path, and its free count is
    fs.free_blocks(). The stream's own order is pinned by the trace goldens;
    the file system keeps none."""
    assume(rows * cols >= 2)
    cfg = WorkloadConfig(rng_seed=seed, max_file_blocks=max_file_blocks,
                         min_utilization=min_utilization,
                         op_mix=tuple(w / sum(mix) for w in mix))
    fs = make_fs(rows=rows, cols=cols, neighborhood=neighborhood,
                 policy=make_policy(policy, seed=seed))
    views = []

    def spy(rng, config, state):
        views.append(state)
        return generate_op(rng, config, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "generate_op", spy)
        for _ in islice(applied_ops(cfg, fs), 200):
            state = views[-1]
            assert _files(state.live) == _files(fs.live_files())
            assert state.total_blocks - state.used == fs.free_blocks()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    intervals=st.integers(1, 5),
    oin_per_min=st.integers(1, 60),
    neighborhood=st.sampled_from(["grid-row", "none", "contiguous:3"]),
)
def test_train_applies_the_streams_first_ops(seed, intervals, oin_per_min, neighborhood):
    """train's k intervals apply the stream's first k * oin_per_min ops, and
    each of its two evaluations the first oin_per_min ops of a fresh stream."""
    geometry = DiskGeometry(8, 8, Neighborhood.parse(neighborhood))
    cfg = TrainConfig(geometry, TrainSchedule(min_budget=intervals, oin_per_min=oin_per_min),
                      WorkloadConfig(rng_seed=seed, max_file_blocks=6))
    applied = []

    def spy(fs, op):
        applied.append(op)
        execute_op(fs, op)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "execute_op", spy)
        train(cfg)
    stream = list(islice(generate_ops(cfg.workload, geometry.total_blocks), intervals * oin_per_min))
    assert applied == stream + stream[:oin_per_min] * 2


def test_deletes_never_break_utilization_floor():
    cfg = WorkloadConfig(rng_seed=11, total_ops=400, max_file_blocks=6, min_utilization=0.70)
    fs = make_fs(rows=16, cols=16)
    total = fs.disk.geometry.total_blocks
    for op in islice(applied_ops(cfg, fs), cfg.total_ops):
        if op.kind == "delete":
            assert (total - fs.free_blocks()) / total >= cfg.min_utilization - 1e-12


def test_replay_reproduces_end_state():
    cfg = WorkloadConfig(rng_seed=7, total_ops=300, max_file_blocks=5)
    fs = make_fs(rows=8, cols=8)
    report, trace = run_simulation(cfg, fs)
    assert len(trace) == cfg.total_ops
    fs2 = make_fs(rows=8, cols=8)
    replayed = replay_trace(trace, fs2)
    assert replayed.snapshot_sha256 == report.snapshot_sha256
    assert replayed.weighted_rr == report.weighted_rr
    assert replayed.executed_ops == report.executed_ops
    assert replayed.seed is None


@pytest.mark.parametrize("neighborhood", ["grid-row", "none", "contiguous:3"])
def test_write_ends_where_a_read_of_the_same_path_ends(neighborhood):
    """A block's content is named by its lineage owner, which a write does not
    move: with every write of a trace turned into a read of the same path at
    the same tick, the replay ends on the same snapshot and recovery."""
    cfg = WorkloadConfig(rng_seed=5, total_ops=1500)
    report, trace = run_simulation(cfg, make_fs(rows=16, cols=16, neighborhood=neighborhood))
    as_reads = [WorkloadOp(op.tick, "read", op.path) if op.kind == "write" else op for op in trace]
    assert Counter(op.kind for op in trace)["write"] == 546
    replayed = replay_trace(as_reads, make_fs(rows=16, cols=16, neighborhood=neighborhood))
    assert replayed.snapshot_sha256 == report.snapshot_sha256
    assert replayed.weighted_rr == report.weighted_rr


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("neighborhood", ["grid-row", "none"])
def test_report_performance_is_the_objective_of_its_end_state(neighborhood, beta):
    """A simulate or replay report's performance is recovery.performance of
    the end state it reports on, to the bit, and its JSON carries that value,
    at every weight of the seek term."""
    weights = PerfWeights(beta)
    cfg = WorkloadConfig(rng_seed=5, total_ops=300, max_file_blocks=12,
                         min_utilization=0.5, op_mix=(0.2, 0.4, 0.4))
    fs = make_fs(rows=16, cols=16, neighborhood=neighborhood)
    report, trace = run_simulation(cfg, fs, weights)
    fs2 = make_fs(rows=16, cols=16, neighborhood=neighborhood)
    replayed = replay_trace(trace, fs2, weights)
    assert report.weighted_rr > 0 and report.aat_seek > 0  # both terms count
    for rep, end in ((report, fs), (replayed, fs2)):
        want = performance(end, weights).hex()
        assert rep.performance.hex() == want
        assert json.loads(rep.to_json())["performance"].hex() == want


def test_trace_file_round_trip(tmp_path):
    cfg = WorkloadConfig(rng_seed=5, total_ops=60, max_file_blocks=4)
    fs = make_fs(rows=8, cols=8)
    _, trace = run_simulation(cfg, fs)
    path = tmp_path / "run.trace.jsonl"
    write_trace(trace, path)
    again = read_trace(path)
    assert [op.to_json_line() for op in again] == [op.to_json_line() for op in trace]


def test_op_json_round_trip_all_kinds():
    ops = [
        WorkloadOp(1, "create", "/a.txt", size_blocks=3),
        WorkloadOp(2, "write", "/a.txt", block=1),
        WorkloadOp(3, "read", "/a.txt"),
        WorkloadOp(4, "delete", "/a.txt"),
    ]
    for op in ops:
        again = WorkloadOp.from_json_line(op.to_json_line())
        assert again == op and hash(again) == hash(op)
        with pytest.raises(AttributeError):  # an op is an immutable value
            op.tick = 9
    assert len(set(ops + [WorkloadOp(3, "read", "/a.txt")])) == 4


def test_op_loop_keeps_no_history():
    """The op loop's net heap growth per op is the file system's own state
    (retired files), not a record of the ops: about 60 B/op on example.ini,
    against 274 B/op while the loop kept every op."""
    cfg = load_config(str(Path(__file__).parent.parent / "configs" / "example.ini"))
    disk = new_disk(cfg.geometry, cfg.coefficients)
    fs = FileSystem(disk, policy=make_policy(cfg.policy_kind, seed=cfg.workload.rng_seed))
    stream = generate_ops(cfg.workload, disk.geometry.total_blocks)
    apply_ops(islice(stream, 2_000), fs)
    ops = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        apply_ops(islice(stream, ops), fs)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / ops <= 150, f"{grown / ops:.0f} B/op retained"


def test_malformed_trace_lines_rejected():
    bad = [
        "not json",
        "[1,2,3]",
        '{"op":"read","path":"/a"}',  # no tick
        '{"tick":1,"op":"defrag","path":"/a"}',
        '{"tick":1,"op":"create","path":"/a"}',  # create without size_blocks
        '{"tick":1,"op":"write","path":"/a","offset":0}',  # write without block
        '{"tick":1,"op":"write","path":"/a","offset":0,"len":4096}',  # an old write line
        '{"tick":1,"op":"write","path":"/a","block":-1}',
        '{"tick":1,"op":"write","path":"/a","block":"0"}',
    ]
    for line in bad:
        with pytest.raises(TraceError):
            WorkloadOp.from_json_line(line)


def test_replay_requires_strictly_increasing_ticks():
    ops = [
        WorkloadOp(1, "create", "/a.txt", size_blocks=1),
        WorkloadOp(1, "read", "/a.txt"),
    ]
    with pytest.raises(TraceError):
        replay_trace(ops, make_fs(rows=4, cols=4))
    ops[1] = WorkloadOp(0, "read", "/a.txt")
    with pytest.raises(TraceError):
        replay_trace(ops, make_fs(rows=4, cols=4))


def test_replay_missing_path_surfaces_as_lookup_error():
    ops = [WorkloadOp(1, "delete", "/ghost.txt")]
    with pytest.raises(FileNotFoundError):
        replay_trace(ops, make_fs(rows=4, cols=4))


def test_hand_written_trace_on_tiny_disk():
    ops = [
        WorkloadOp(1, "create", "/a.txt", size_blocks=1),
        WorkloadOp(2, "write", "/a.txt", block=0),
        WorkloadOp(3, "delete", "/a.txt"),
    ]
    fs = make_fs(rows=2, cols=2)
    report = replay_trace(ops, fs)
    assert report.executed_ops == 3
    assert report.final_utilization == 0.0
    assert [row["status"] for row in report.files] == ["deleted"]
    assert report.files_used == 0
    assert report.weighted_rr == pytest.approx(100.0)
    assert fs.disk.clock == 3


def test_zero_op_simulation():
    fs = make_fs(rows=4, cols=4)
    report, trace = run_simulation(WorkloadConfig(total_ops=0), fs)
    assert trace == []
    assert report.executed_ops == 0
    assert report.weighted_rr == 0.0
    assert report.final_utilization == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(total_ops=-1)
    with pytest.raises(ValueError):
        WorkloadConfig(max_file_blocks=0)
    with pytest.raises(ValueError):
        WorkloadConfig(min_utilization=1.0)
    with pytest.raises(ValueError):
        WorkloadConfig(linked_file_percent=101.0)
    with pytest.raises(ValueError):
        WorkloadConfig(op_mix=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        WorkloadConfig(op_mix=(1.2, -0.1, -0.1))
