"""Surveillance-style policy comparison: write a primary corpus, delete it,
flood the disk with secondary data under each policy, and measure how much of
the primary corpus is still recoverable.

A cell (policy, secondary size, seed) is what a fresh disk flooded up to that
one size would hold. Each flood starts from a copy of a primary phase: a
fresh disk after the primary creates and deletes. A policy whose choices do
not depend on the seed (apex, first-fit) writes its primaries once for every
seed; random writes them once per seed (see run_compare). The cells of one
(policy, seed) share their ops up to where a smaller size clips its last
file, so they run as one flood toward the largest size, each smaller cell
finishing on a copy of the file system (see run_flood). The sweep counts
secondary data blocks, so targets map directly onto fractions of the device.
"""

import random
from dataclasses import dataclass

from .disk import new_disk
from .model import DiskGeometry, Hyperparams, canonical_json, field_dict
from .errors import ConfigError
from .policies import KINDS, SEED_FREE, make_policy
from .recovery import measure_recovery, usage_weighted_rr
from .vfs import LINKED, PARTIAL, FileSystem
from .workload import OP_CREATE, OP_DELETE, WorkloadOp, execute_op


@dataclass(frozen=True)
class CompareSettings:
    MAX_SEEDS = 10000  # cap on [compare] seed_count

    primary_count: int = 5
    primary_data_blocks: int = 25
    primary_type: str = PARTIAL
    secondary_targets: tuple = (102, 200)  # data blocks per sweep point
    secondary_min_blocks: int = 4
    secondary_max_blocks: int = 16
    seeds: tuple = tuple(range(50))
    policies: tuple = ("apex", "first-fit")

    def __post_init__(self):
        if self.primary_count < 1 or self.primary_data_blocks < 1:
            raise ValueError("primary corpus must have at least one one-block file")
        if not 1 <= self.secondary_min_blocks <= self.secondary_max_blocks:
            raise ValueError("secondary file size range is invalid")
        if not self.seeds or not self.policies or not self.secondary_targets:
            raise ValueError("seeds, policies and secondary_targets must be non-empty")
        if min(self.secondary_targets) < 0:
            raise ValueError(f"secondary_blocks must be >= 0, got {min(self.secondary_targets)}")
        for kind in self.policies:
            if kind not in KINDS:
                raise ValueError(f"unknown policy {kind!r} (expected one of {', '.join(KINDS)})")
        if self.primary_type not in (LINKED, PARTIAL):
            raise ValueError(f"unknown type class {self.primary_type!r}")

    def to_dict(self) -> dict:
        return field_dict(self)


@dataclass(frozen=True)
class CompareRow:
    policy: str
    secondary_blocks: int
    seed: int
    weighted_rr: float
    per_file_rr: tuple

    def to_dict(self) -> dict:
        return field_dict(self)


def _row(fs, target_blocks: int, seed: int) -> CompareRow:
    """The cell fs holds under its policy: each primary's recovery ratio, all
    from one lineage read (see measure_recovery), and their usage-weighted
    percentage."""
    # a flood retires only the primaries, in creation order
    primary = fs.deleted_files()
    per_file = tuple(rr for _, _, rr in measure_recovery(fs.disk, primary))
    return CompareRow(
        policy=fs.policy.name,
        secondary_blocks=target_blocks,
        seed=seed,
        weighted_rr=usage_weighted_rr(primary, per_file, fs.retired_usage),
        per_file_rr=per_file,
    )


def primary_phase(
    geometry: DiskGeometry,
    hp: Hyperparams,
    settings: CompareSettings,
    policy_kind: str,
    seed: int,
    invert_link_rule: bool = False,
) -> FileSystem:
    """A fresh disk after the primary creates, then the primary deletes, each
    one tick, in path order."""
    disk = new_disk(geometry, hp)
    policy = make_policy(policy_kind, seed=seed + 1000003)
    fs = FileSystem(disk, policy=policy, invert_link_rule=invert_link_rule)
    primary_ext = ".avi" if settings.primary_type == PARTIAL else ".zip"
    primary_paths = [f"/primary{i}{primary_ext}" for i in range(settings.primary_count)]
    for path in primary_paths:
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_CREATE, path, settings.primary_data_blocks))
    for path in primary_paths:
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_DELETE, path))
    return fs


def run_flood(phase: FileSystem, settings: CompareSettings, targets: tuple, seed: int) -> dict:
    """The cells of one (policy, seed) for every target in targets, keyed by
    target, from one flood on a copy of phase (see primary_phase), which is
    left as it was.

    Each target's cell is the flood a fresh disk would see for that target
    alone: the primaries, then secondary creates of seeded sizes clipped to
    the blocks left to write and to the free space, until the target is
    written or the disk is full. Those cells agree up to the step where a
    smaller target clips its last file, so one line floods toward the
    largest target, each size drawn once. A target that clips its last file
    below the line's size finishes on a copy taken before the line's op; a
    target the line reaches exactly, or that a full disk stops first, is
    measured on the line.
    """
    fs = phase.copy()
    disk = fs.disk
    rng = random.Random(seed)

    cells = {}
    pending = sorted(set(targets))  # ascending; pending[-1] is the line's target
    written = 0
    seq = 0
    while True:
        while pending and pending[0] <= written:
            target = pending.pop(0)
            cells[target] = _row(fs, target, seed)
        if not pending:
            break
        free = fs.free_blocks()
        if free < 2:
            break
        size = rng.randint(settings.secondary_min_blocks, settings.secondary_max_blocks)
        size = max(min(size, pending[-1] - written, free - 1), 1)
        seq += 1
        path = f"/secondary{seq:04d}.dat"
        # the size is a min over (drawn, blocks left, free - 1), so a smaller
        # target clips below it exactly when its blocks left are fewer
        while pending[0] - written < size:
            target = pending.pop(0)
            cell = fs.copy()
            cell.disk.tick()
            execute_op(cell, WorkloadOp(cell.disk.clock, OP_CREATE, path, target - written))
            cells[target] = _row(cell, target, seed)
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_CREATE, path, size))
        written += size
    for target in pending:  # a full disk stopped these
        cells[target] = _row(fs, target, seed)
    return cells


def run_compare(
    geometry: DiskGeometry,
    hp: Hyperparams,
    settings: CompareSettings,
    invert_link_rule: bool = False,
) -> list[CompareRow]:
    """Every cell of the sweep, policy by policy, then target by target in
    settings order, then seed by seed. One flood per (policy, seed) serves
    all of that seed's targets, and equal targets share one row. Each flood
    starts from a copy of its policy's primary phase, written once for a
    seed-free policy and once per seed for random, so a cell still equals a
    fresh disk flooded to that one target."""
    need = settings.primary_count * (settings.primary_data_blocks + 1)
    if need > geometry.total_blocks:
        raise ConfigError(
            f"primary corpus needs {need} blocks ({settings.primary_count} files of "
            f"{settings.primary_data_blocks} data blocks plus metadata), the disk has "
            f"{geometry.total_blocks}"
        )
    rows = []
    for policy_kind in settings.policies:
        def phase(seed):
            return primary_phase(geometry, hp, settings, policy_kind, seed, invert_link_rule)

        # a seed-free policy writes the same primary phase for every seed, so
        # one serves all floods; any other draws its primary blocks from the
        # seed's own stream, so each seed writes its own primaries.
        shared = phase(settings.seeds[0]) if policy_kind in SEED_FREE else None
        floods = [
            run_flood(
                shared if shared is not None else phase(seed),
                settings, settings.secondary_targets, seed,
            )
            for seed in settings.seeds
        ]
        rows += [cells[target] for target in settings.secondary_targets for cells in floods]
    return rows


def compare_report(settings: CompareSettings, rows, geometry, hp) -> dict:
    return {
        "settings": settings.to_dict(),
        "geometry": geometry.to_dict(),
        "hyperparams": list(hp.as_tuple()),
        "rows": [r.to_dict() for r in rows],
    }


def compare_report_json(settings, rows, geometry, hp) -> str:
    return canonical_json(compare_report(settings, rows, geometry, hp))
