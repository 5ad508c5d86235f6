"""Seeded workload generation, simulation driver, trace record and replay.

One operation per tick. Each executed operation is followed by exactly one
spatial pass. Traces are JSON lines carrying the op outcomes (not the RNG),
so replaying a trace on a fresh identical disk reproduces the end state
bit for bit.
"""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, DiskFullError, TraceError
from .model import canonical_json, field_dict
from .priority import update_spatial_factors
from .recovery import PerfWeights, access_time_term, recovery_table, retired_rr
from .vfs import LINKED_EXTENSIONS, PARTIAL_EXTENSIONS, check_path

OP_CREATE = "create"
OP_DELETE = "delete"
OP_READ = "read"
OP_WRITE = "write"

_LINKED_EXT_CHOICES = sorted(LINKED_EXTENSIONS)
_PARTIAL_EXT_CHOICES = sorted(PARTIAL_EXTENSIONS)


@dataclass(frozen=True)
class WorkloadConfig:
    rng_seed: int = 0
    total_ops: int = 1000
    max_file_blocks: int = 20
    linked_file_percent: float = 20.0
    min_utilization: float = 0.70
    op_mix: tuple = (0.70, 0.15, 0.15)  # read/write, create, delete

    def __post_init__(self):
        if self.total_ops < 0:
            raise ValueError("total_ops must be >= 0")
        if self.max_file_blocks < 1:
            raise ValueError("max_file_blocks must be >= 1")
        if not 0.0 <= self.linked_file_percent <= 100.0:
            raise ValueError("linked_file_percent must lie in [0, 100]")
        if not 0.0 <= self.min_utilization < 1.0:
            raise ValueError("min_utilization must lie in [0, 1)")
        if len(self.op_mix) != 3 or not all(math.isfinite(p) and p >= 0 for p in self.op_mix):
            raise ValueError("op_mix needs three finite non-negative weights")
        if abs(sum(self.op_mix) - 1.0) > 1e-9:
            raise ValueError("op_mix must sum to 1")

    def to_dict(self) -> dict:
        return field_dict(self)


class WorkloadOp(NamedTuple):
    """One op of the stream: immutable and hashable, a plain tuple underneath
    so that building one per tick stays cheap."""

    tick: int
    kind: str
    path: str
    size_blocks: int | None = None
    offset: int | None = None
    length: int | None = None

    def to_json_line(self) -> str:
        doc = {"tick": self.tick, "op": self.kind, "path": self.path}
        if self.size_blocks is not None:
            doc["size_blocks"] = self.size_blocks
        if self.offset is not None:
            doc["offset"] = self.offset
        if self.length is not None:
            doc["len"] = self.length
        return canonical_json(doc)

    @classmethod
    def from_json_line(cls, line: str) -> "WorkloadOp":
        """Parse one trace line; a line of the wrong shape is a TraceError. A
        key it does not read is ignored, such as the "type" create lines once
        carried: a file's class comes from its path (vfs.type_class_for_path)."""
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:  # nested past json's limit
            raise TraceError(f"bad trace line: {e}") from None
        if not isinstance(doc, dict):
            raise TraceError(f"bad trace line: expected object, got {type(doc).__name__}")
        try:
            tick = doc["tick"]
            kind = doc["op"]
            path = doc["path"]
        except KeyError as e:
            raise TraceError(f"bad trace line: missing field {e}") from None
        if type(tick) is not int:
            raise TraceError(f"bad trace line: tick must be an integer, got {tick!r}")
        if not -(2**63) <= tick < 2**63:  # the clock is averaged as a float
            raise TraceError(f"bad trace line: tick {tick} outside the int64 range")
        if kind not in (OP_CREATE, OP_DELETE, OP_READ, OP_WRITE):
            raise TraceError(f"bad trace line: unknown op {kind!r}")
        if kind == OP_CREATE and "size_blocks" not in doc:
            raise TraceError("bad trace line: create needs size_blocks")
        if kind == OP_WRITE and ("offset" not in doc or "len" not in doc):
            raise TraceError("bad trace line: write needs offset and len")
        try:
            check_path(path)  # a nested path stays a FileNotFoundError, as in the fs
        except ValueError as e:
            raise TraceError(f"bad trace line: {e}") from None
        for key in ("size_blocks", "offset", "len"):
            if key in doc and (type(doc[key]) is not int or doc[key] < 0):
                raise TraceError(f"bad trace line: {key} must be an integer >= 0, got {doc[key]!r}")
        return cls(
            tick=tick,
            kind=kind,
            path=path,
            size_blocks=doc.get("size_blocks"),
            offset=doc.get("offset"),
            length=doc.get("len"),
        )


def generate_op(rng: random.Random, config: WorkloadConfig, state) -> WorkloadOp:
    """Sample the next operation against a live view of the simulation.

    state needs: tick, total_blocks, block_size, free_blocks(), live_files()
    and next_path().
    Enforcement, in order: an empty namespace forces Create; a sampled Delete
    whose target would drop utilization below the floor becomes a Create (this
    covers the plain utilization < floor case, since any delete drops it
    further); a Create that cannot fit is clamped to the free space, and when
    not even one data block fits it degrades to a Read. A Create draws linked
    or partial only to pick its path's extension, which alone sets the class.
    """
    files = state.live_files()
    r = rng.random()
    mix = config.op_mix
    if r < mix[0]:
        kind = "rw"
    elif r < mix[0] + mix[1]:
        kind = OP_CREATE
    else:
        kind = OP_DELETE

    if not files:
        kind = OP_CREATE
    elif kind == OP_DELETE:
        target = files[rng.randrange(len(files))]
        total = state.total_blocks
        used_after = total - state.free_blocks() - len(target.block_list)
        if used_after / total < config.min_utilization:
            kind = OP_CREATE
        else:
            return WorkloadOp(state.tick, OP_DELETE, target.path)

    if kind == OP_CREATE:
        size = rng.randint(1, config.max_file_blocks)
        jitter = rng.uniform(-5.0, 5.0)
        p_linked = min(max((config.linked_file_percent + jitter) / 100.0, 0.0), 1.0)
        linked = rng.random() < p_linked
        free = state.free_blocks()
        if free < size + 1:
            size = free - 1
        if size < 1:
            if not files:
                # only reachable on a disk under two blocks total
                raise ConfigError("disk too small to hold any file")
            # disk cannot hold even a one-block file; fall back to a read
            target = files[rng.randrange(len(files))]
            return WorkloadOp(state.tick, OP_READ, target.path)
        ext = rng.choice(_LINKED_EXT_CHOICES if linked else _PARTIAL_EXT_CHOICES)
        return WorkloadOp(state.tick, OP_CREATE, state.next_path(ext), size_blocks=size)

    # read/write bucket
    target = files[rng.randrange(len(files))]
    if rng.random() < 0.5 and target.data_blocks > 0:
        ordinal = rng.randrange(target.data_blocks)
        bs = state.block_size
        offset = ordinal * bs
        return WorkloadOp(
            state.tick,
            OP_WRITE,
            target.path,
            offset=offset,
            length=min(bs, target.size_bytes - offset),
        )
    return WorkloadOp(state.tick, OP_READ, target.path)


class WorkloadRunner:
    """Drives one filesystem through a seeded op stream. It keeps no op once
    the op has run: step() returns it, and a caller that wants the trace (as
    run_simulation does) collects it."""

    # No retained ops. bench/tracer.py reports len(trace) as
    # workload.trace.entries, so the name stays, as an empty history.
    trace = ()

    def __init__(self, config: WorkloadConfig, fs):
        self.config = config
        self.fs = fs
        self.rng = random.Random(config.rng_seed)
        self._name_seq = 0

    # live view for generate_op
    @property
    def tick(self) -> int:
        return self.fs.disk.clock

    @property
    def total_blocks(self) -> int:
        return self.fs.disk.geometry.total_blocks

    @property
    def block_size(self) -> int:
        return self.fs.disk.geometry.block_size_bytes

    def free_blocks(self) -> int:
        return self.fs.free_blocks()

    def live_files(self):
        return self.fs._live

    def next_path(self, ext: str) -> str:
        self._name_seq += 1
        return f"/w{self._name_seq:07d}{ext}"

    def step(self) -> WorkloadOp:
        self.fs.disk.tick()
        op = generate_op(self.rng, self.config, self)
        execute_op(self.fs, op)
        return op

    def run(self, ops: int) -> None:
        for _ in range(ops):
            self.step()


def execute_op(fs, op: WorkloadOp) -> None:
    """Apply one op to the file system, then run the op's spatial pass. The
    caller advances the clock first."""
    bs = fs.disk.geometry.block_size_bytes
    if op.kind == OP_CREATE:
        fs.create_file(op.path, op.size_blocks * bs)
    elif op.kind == OP_DELETE:
        fs.delete_file(op.path)
    elif op.kind == OP_READ:
        fs.access(op.path)
    else:  # OP_WRITE: parsing and generation make no other kind
        fs.write_file(op.path, op.offset, op.length)
    update_spatial_factors(fs.disk)


@dataclass(frozen=True)
class SimReport:
    seed: int | None
    op_counts: dict
    final_utilization: float
    files_used: int
    files: list
    weighted_rr: float
    aat_seek: float
    perf_beta: float
    snapshot_sha256: str
    geometry: dict
    hyperparams: list
    workload: dict

    @property
    def executed_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def performance(self) -> float:
        """The objective of this report's own two terms."""
        return PerfWeights(self.perf_beta).objective(self.weighted_rr, self.aat_seek)

    def to_dict(self) -> dict:
        return field_dict(self) | {"performance": self.performance}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _build_report(fs, seed, ops, weights, workload_echo) -> SimReport:
    disk = fs.disk
    return SimReport(
        seed=seed,
        op_counts=dict(Counter(op.kind for op in ops)),
        final_utilization=fs.utilization(),
        files_used=len(fs.live_files()),
        files=recovery_table(fs),
        weighted_rr=retired_rr(fs),
        aat_seek=access_time_term(fs),
        perf_beta=weights.beta,
        snapshot_sha256=disk.snapshot_sha256(),
        geometry=disk.geometry.to_dict(),
        hyperparams=list(disk.hyperparams.as_tuple()),
        workload=workload_echo,
    )


def run_simulation(config: WorkloadConfig, fs, weights: PerfWeights = PerfWeights()):
    """Run the configured number of ops; returns (SimReport, trace list)."""
    runner = WorkloadRunner(config, fs)
    trace = [runner.step() for _ in range(config.total_ops)]
    return _build_report(fs, config.rng_seed, trace, weights, config.to_dict()), trace


def replay_trace(ops, fs, weights: PerfWeights = PerfWeights()) -> SimReport:
    """Re-execute a recorded trace literally on a fresh filesystem.

    Ticks must be strictly increasing; allocation is a deterministic function
    of disk state, so the end state matches the recording run bit for bit. A
    create that does not fit the free space, or a write outside its file, is
    a TraceError naming the tick.
    """
    last_tick = None
    for op in ops:
        if last_tick is not None and op.tick <= last_tick:
            raise TraceError(f"tick {op.tick} does not increase (previous {last_tick})")
        last_tick = op.tick
        # trace input: a write outside its file is a TraceError (exit 2), not
        # the ValueError write_file raises for a caller's bad range (exit 1)
        if op.kind == OP_WRITE and op.offset + op.length > fs.lookup(op.path).size_bytes:
            raise TraceError(f"tick {op.tick}: write of {op.length} at {op.offset} outside {op.path}")
        fs.disk.clock = op.tick
        try:
            execute_op(fs, op)
        except DiskFullError as e:
            raise TraceError(f"tick {op.tick}: {e}") from None
    return _build_report(fs, None, ops, weights, {})


def write_trace(ops, path) -> None:
    with open(path, "w") as fh:
        for op in ops:
            fh.write(op.to_json_line())
            fh.write("\n")


def read_trace(path) -> list[WorkloadOp]:
    ops = []
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    ops.append(WorkloadOp.from_json_line(line))
        except UnicodeDecodeError as e:
            raise TraceError(f"{path}: {e}") from None
    return ops
