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

import numpy as np

from .errors import ConfigError, DiskFullError, TraceError
from .priority import update_spatial_factors
from .recovery import (
    SEEK_COST,
    TIMESTAMP,
    PerfWeights,
    access_time_term,
    weighted_rr,
)
from .vfs import (DELETED, LINKED, LINKED_EXTENSIONS, OBSOLETE, PARTIAL,
                  PARTIAL_EXTENSIONS, check_path)

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
        return {
            "rng_seed": self.rng_seed,
            "total_ops": self.total_ops,
            "max_file_blocks": self.max_file_blocks,
            "linked_file_percent": self.linked_file_percent,
            "min_utilization": self.min_utilization,
            "op_mix": list(self.op_mix),
        }


class WorkloadOp(NamedTuple):
    """One op of the stream: immutable and hashable, a plain tuple underneath
    so that building one per tick stays cheap."""

    tick: int
    kind: str
    path: str
    size_blocks: int | None = None
    type_class: str | None = None
    offset: int | None = None
    length: int | None = None

    def to_json_line(self) -> str:
        doc = {"tick": self.tick, "op": self.kind, "path": self.path}
        if self.size_blocks is not None:
            doc["size_blocks"] = self.size_blocks
        if self.type_class is not None:
            doc["type"] = self.type_class
        if self.offset is not None:
            doc["offset"] = self.offset
        if self.length is not None:
            doc["len"] = self.length
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "WorkloadOp":
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceError(f"bad trace line: {e}") from None
        if not isinstance(doc, dict):
            raise TraceError(f"bad trace line: expected object, got {type(doc).__name__}")
        try:
            tick = int(doc["tick"])
            kind = doc["op"]
            path = doc["path"]
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise TraceError(f"bad trace line: missing or invalid field ({e})") from None
        if not -(2**63) <= tick < 2**63:  # the clock is averaged as a float
            raise TraceError(f"bad trace line: tick {tick} outside the int64 range")
        if kind not in (OP_CREATE, OP_DELETE, OP_READ, OP_WRITE):
            raise TraceError(f"bad trace line: unknown op {kind!r}")
        if kind == OP_CREATE and ("size_blocks" not in doc or "type" not in doc):
            raise TraceError("bad trace line: create needs size_blocks and type")
        if kind == OP_WRITE and ("offset" not in doc or "len" not in doc):
            raise TraceError("bad trace line: write needs offset and len")
        try:
            check_path(path)  # a nested path stays a FileNotFoundError, as in the fs
        except ValueError as e:
            raise TraceError(f"bad trace line: {e}") from None
        for key in ("size_blocks", "offset", "len"):
            if key in doc and (type(doc[key]) is not int or doc[key] < 0):
                raise TraceError(f"bad trace line: {key} must be an integer >= 0, got {doc[key]!r}")
        if "type" in doc and doc["type"] not in (LINKED, PARTIAL):
            raise TraceError(f"bad trace line: unknown type {doc['type']!r}")
        return cls(
            tick=tick,
            kind=kind,
            path=path,
            size_blocks=doc.get("size_blocks"),
            type_class=doc.get("type"),
            offset=doc.get("offset"),
            length=doc.get("len"),
        )


def generate_op(rng: random.Random, config: WorkloadConfig, state) -> WorkloadOp:
    """Sample the next operation against a live view of the simulation.

    state needs: tick, total_blocks, used_blocks, block_size, free_blocks(),
    live_files() and next_path().
    Enforcement, in order: an empty namespace forces Create; a sampled Delete
    whose target would drop utilization below the floor becomes a Create (this
    covers the plain utilization < floor case, since any delete drops it
    further); a Create that cannot fit is clamped to the free space, and when
    not even one data block fits it degrades to a Read.
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
        used_after = state.used_blocks - len(target.block_list)
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
        return WorkloadOp(
            state.tick,
            OP_CREATE,
            state.next_path(ext),
            size_blocks=size,
            type_class=LINKED if linked else PARTIAL,
        )

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
        self.counts = Counter()
        self._name_seq = 0

    # live view for generate_op
    @property
    def tick(self) -> int:
        return self.fs.disk.clock

    @property
    def total_blocks(self) -> int:
        return self.fs.disk.geometry.total_blocks

    @property
    def used_blocks(self) -> int:
        return int(np.count_nonzero(self.fs.disk.used_mask))

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
        self.counts[op.kind] += 1
        return op

    def run(self, ops: int) -> None:
        for _ in range(ops):
            self.step()


def execute_op(fs, op: WorkloadOp) -> None:
    """Apply one op to the file system, then run the op's spatial pass. The
    caller advances the clock first."""
    bs = fs.disk.geometry.block_size_bytes
    if op.kind == OP_CREATE:
        fs.create_file(op.path, op.size_blocks * bs, op.type_class)
    elif op.kind == OP_DELETE:
        fs.delete_file(op.path)
    elif op.kind == OP_READ:
        fs.access(op.path)
    elif op.kind == OP_WRITE:
        fs.write_file(op.path, op.offset, bytes([op.tick & 0xFF]) * op.length)
    else:
        raise TraceError(f"unknown op kind {op.kind!r}")
    update_spatial_factors(fs.disk)


@dataclass(frozen=True)
class SimReport:
    seed: int | None
    executed_ops: int
    op_counts: dict
    final_utilization: float
    files_used: int
    files_deleted: int
    files_obsolete: int
    weighted_rr: float
    aat_timestamp: float
    aat_seek: float
    perf_alpha: float
    perf_beta: float
    aat_mode: str
    performance: float
    snapshot_sha256: str
    geometry: dict
    hyperparams: list
    workload: dict

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "executed_ops": self.executed_ops,
            "op_counts": dict(sorted(self.op_counts.items())),
            "final_utilization": self.final_utilization,
            "files_used": self.files_used,
            "files_deleted": self.files_deleted,
            "files_obsolete": self.files_obsolete,
            "weighted_rr": self.weighted_rr,
            "aat_timestamp": self.aat_timestamp,
            "aat_seek": self.aat_seek,
            "perf_alpha": self.perf_alpha,
            "perf_beta": self.perf_beta,
            "aat_mode": self.aat_mode,
            "performance": self.performance,
            "snapshot_sha256": self.snapshot_sha256,
            "geometry": self.geometry,
            "hyperparams": self.hyperparams,
            "workload": self.workload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _build_report(fs, seed, executed, counts, weights, workload_echo) -> SimReport:
    disk = fs.disk
    fs.mark_obsolete_sweep()
    wrr = weighted_rr(disk, fs.deleted_files())
    aat_ts = access_time_term(disk, fs, TIMESTAMP)
    aat_seek = access_time_term(disk, fs, SEEK_COST)
    aat = aat_ts if weights.aat_mode == TIMESTAMP else aat_seek
    retired = fs.deleted_files()
    return SimReport(
        seed=seed,
        executed_ops=executed,
        op_counts=dict(counts),
        final_utilization=fs.utilization(),
        files_used=len(fs.live_files()),
        files_deleted=sum(1 for f in retired if f.status == DELETED),
        files_obsolete=sum(1 for f in retired if f.status == OBSOLETE),
        weighted_rr=wrr,
        aat_timestamp=aat_ts,
        aat_seek=aat_seek,
        perf_alpha=weights.alpha,
        perf_beta=weights.beta,
        aat_mode=weights.aat_mode,
        performance=weights.alpha * wrr - weights.beta * aat,
        snapshot_sha256=disk.snapshot_sha256(),
        geometry=disk.geometry.to_dict(),
        hyperparams=list(disk.hyperparams.as_tuple()),
        workload=workload_echo,
    )


def run_simulation(config: WorkloadConfig, fs, weights: PerfWeights = PerfWeights()):
    """Run the configured number of ops; returns (SimReport, trace list)."""
    runner = WorkloadRunner(config, fs)
    trace = [runner.step() for _ in range(config.total_ops)]
    report = _build_report(
        fs, config.rng_seed, len(trace), runner.counts, weights, config.to_dict()
    )
    return report, trace


def replay_trace(ops, fs, weights: PerfWeights = PerfWeights()) -> SimReport:
    """Re-execute a recorded trace literally on a fresh filesystem.

    Ticks must be strictly increasing; allocation is a deterministic function
    of disk state, so the end state matches the recording run bit for bit. A
    create that does not fit the free space, or a write outside its file, is
    a TraceError naming the tick.
    """
    counts = Counter()
    last_tick = None
    for op in ops:
        if last_tick is not None and op.tick <= last_tick:
            raise TraceError(f"tick {op.tick} does not increase (previous {last_tick})")
        last_tick = op.tick
        # checked before execute_op builds the op.length bytes it writes
        if op.kind == OP_WRITE and op.offset + op.length > fs.lookup(op.path).size_bytes:
            raise TraceError(f"tick {op.tick}: write of {op.length} at {op.offset} outside {op.path}")
        fs.disk.clock = op.tick
        try:
            execute_op(fs, op)
        except DiskFullError as e:
            raise TraceError(f"tick {op.tick}: {e}") from None
        counts[op.kind] += 1
    return _build_report(fs, None, len(ops), counts, weights, {})


def write_trace(ops, path) -> None:
    with open(path, "w") as fh:
        for op in ops:
            fh.write(op.to_json_line())
            fh.write("\n")


def read_trace(path) -> list[WorkloadOp]:
    ops = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                ops.append(WorkloadOp.from_json_line(line))
    return ops
