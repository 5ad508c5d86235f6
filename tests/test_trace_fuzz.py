"""Generated replay traces: every trace either replays or is rejected as bad
input. `apexsim replay` exits 0 or 2, never 1.

Each example is a short valid trace, recorded on a 6x6 disk, in which one
field of one line is replaced or removed. A replacement is garbage, a value of
the wrong type, a negative or huge number, another line's path, or a nested,
relative or malformed path. Huge numbers are at least 2**63, so that no run
could allocate anything of that size. Traces are 24 lines long, so every run
takes milliseconds.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexsim.cli import main
from apexsim.disk import new_disk
from apexsim.model import DiskGeometry, Hyperparams
from apexsim.policies import ApexPolicy
from apexsim.vfs import FileSystem
from apexsim.workload import WorkloadConfig, run_simulation

CONFIG = "[disk]\nrows = 6\ncols = 6\n"
# "offset" and "len" are the keys write lines carried before "block"
FIELDS = ["tick", "op", "path", "size_blocks", "block", "offset", "len"]
REMOVE = object()


def base_trace() -> list[dict]:
    """24 ops on a 6x6 disk: creates, reads, writes and deletes."""
    workload = WorkloadConfig(rng_seed=4, total_ops=24, max_file_blocks=4,
                              min_utilization=0.0, op_mix=(0.5, 0.3, 0.2))
    fs = FileSystem(new_disk(DiskGeometry(rows=6, cols=6), Hyperparams(4, 7, 1, 9)), ApexPolicy())
    _, trace = run_simulation(workload, fs)
    return [json.loads(op.to_json_line()) for op in trace]


BASE = base_trace()
PATHS = sorted({doc["path"] for doc in BASE})

VALUES = st.one_of(
    st.sampled_from(["", "x", "bogus", "0", "nan", None, True, False, 1.5,
                     float("nan"), float("inf"), [], {}, ["/a.txt"], {"a": 1}]),
    st.integers(-(2**63), -1),
    st.sampled_from([2**63, 10**30, 10**400, 1e300]),
    st.integers(0, 70),
    st.sampled_from(["create", "delete", "read", "write", "linked", "partial"]),
    st.sampled_from(["/a/b.txt", "a.txt", "/", "/.", "/..", "//a.txt", "/a/", *PATHS,
                     PATHS[0] + "/x"]),
    st.just(REMOVE),
)


def mutated(line: int, field: str, value) -> str:
    docs = [dict(doc) for doc in BASE]
    if value is REMOVE:
        docs[line].pop(field, None)
    else:
        docs[line][field] = value
    return "".join(json.dumps(doc) + "\n" for doc in docs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    line=st.integers(0, len(BASE) - 1),
    field=st.sampled_from(FIELDS),
    value=VALUES,
)
@example(line=0, field="path", value="/a/b.txt")
@example(line=0, field="size_blocks", value=10**400)
@example(line=0, field="tick", value=float("inf"))
@example(line=0, field="tick", value=1.7)
@example(line=0, field="tick", value="7")
@example(line=0, field="tick", value=True)
@example(line=len(BASE) - 1, field="tick", value=10**400)
@example(line=next(i for i, d in enumerate(BASE) if d["op"] == "write"), field="block", value=2**63)
@example(line=next(i for i, d in enumerate(BASE) if d["op"] == "write"), field="block", value=REMOVE)
def test_replay_exits_zero_or_two_on_mutated_traces(line, field, value):
    text = mutated(line, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(CONFIG)
        trace = Path(tmp) / "run.trace.jsonl"
        trace.write_text(text)
        code = main(["replay", "--config", str(cfg), "--trace", str(trace),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), f"replay exited {code} with line {line} field {field} = {value!r}"


def test_base_trace_replays():
    """The unmutated trace replays, so each mutation alone decides the exit."""
    assert {doc["op"] for doc in BASE} == {"create", "delete", "read", "write"}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(CONFIG)
        trace = Path(tmp) / "run.trace.jsonl"
        trace.write_text("".join(json.dumps(doc) + "\n" for doc in BASE))
        assert main(["replay", "--config", str(cfg), "--trace", str(trace),
                     "--out", str(Path(tmp) / "out")]) == 0
