"""Surveillance-style policy comparison: write a primary corpus, delete it,
flood the disk with secondary data under each policy, and measure how much of
the primary corpus is still recoverable.

A cell (policy, secondary size, seed) is what a fresh disk flooded up to that
one size would hold. Compare has no op loop of its own: a primary phase is
one list of creates and deletes (see primary_phase), a flood is one list of
secondary creates (see flood_ops), and workload.apply_ops applies both. A
flood reads no disk, so each seed's floods are drawn once and serve every
policy. A policy whose choices do not depend on the seed (apex, first-fit)
writes its primaries once for every seed; random writes them once per seed
(see run_compare). The floods of one (policy, seed) agree up to where a
smaller size clips its last file, so the largest runs once and each smaller
cell finishes on a copy of the file system (see run_flood). The sweep counts
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
from .workload import OP_CREATE, OP_DELETE, WorkloadOp, apply_ops


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
    per_file = tuple(rr for _, rr in measure_recovery(fs.disk, primary))
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
    """A fresh disk after the primary creates, then the primary deletes, one
    tick each in path order: it ends at clock 2·primary_count with every
    block free."""
    policy = make_policy(policy_kind, seed=seed + 1000003)
    fs = FileSystem(new_disk(geometry, hp), policy=policy, invert_link_rule=invert_link_rule)
    primary_ext = ".avi" if settings.primary_type == PARTIAL else ".zip"
    paths = [f"/primary{i}{primary_ext}" for i in range(settings.primary_count)]
    ops = [(OP_CREATE, path, settings.primary_data_blocks) for path in paths]
    ops += [(OP_DELETE, path) for path in paths]
    apply_ops([WorkloadOp(tick, *op) for tick, op in enumerate(ops, 1)], fs)
    return fs


def flood_ops(settings: CompareSettings, target: int, seed: int, total_blocks: int) -> list:
    """The secondary creates that flood a primary phase of a total_blocks
    disk up to target data blocks: seeded sizes, each clipped to the blocks
    left and to one less than the free blocks, until the target is written
    or fewer than two blocks are free. Like generate_ops, it counts the free
    blocks from its own ops and reads no disk, so it serves every policy."""
    rng = random.Random(seed)
    clock = 2 * settings.primary_count  # where the primary phase ends
    free, left, ops = total_blocks, target, []
    while left > 0 and free > 1:
        size = rng.randint(settings.secondary_min_blocks, settings.secondary_max_blocks)
        size = min(size, left, free - 1)
        seq = len(ops) + 1
        ops.append(WorkloadOp(clock + seq, OP_CREATE, f"/secondary{seq:04d}.dat", size))
        free -= size + 1
        left -= size
    return ops


def run_flood(phase: FileSystem, floods: dict, seed: int) -> dict:
    """The cells of one (policy, seed), keyed by target, floods mapping each
    target to its flood_ops: a copy of phase, which is left as it was,
    after that target's ops alone.

    The largest target's ops, the line, run once on one copy. A target's
    ops are no longer than the line and agree with it up to where they part
    from it, a larger target parting no earlier. So, target by target in
    ascending order, the line is applied up to there, and a target whose
    ops go on finishes on a copy with its remaining op.
    """
    fs = phase.copy()
    line = floods[max(floods)]
    done = 0
    cells = {}
    for target in sorted(floods):
        ops = floods[target]
        shared = 0
        while shared < len(ops) and ops[shared] == line[shared]:
            shared += 1
        apply_ops(line[done:shared], fs)
        done = shared
        cell = fs
        if shared < len(ops):
            cell = fs.copy()
            apply_ops(ops[shared:], cell)
        cells[target] = _row(cell, target, seed)
    return cells


def run_compare(
    geometry: DiskGeometry,
    hp: Hyperparams,
    settings: CompareSettings,
    invert_link_rule: bool = False,
) -> list[CompareRow]:
    """Every cell of the sweep, policy by policy, then target by target in
    settings order, then seed by seed. Each seed's floods are drawn once
    and serve every policy, and one run_flood per (policy, seed) serves
    all of that seed's targets; equal targets share one row. Each flood
    starts from a copy of its policy's primary phase, written once for a
    seed-free policy and once per seed for random, so a cell still equals
    a fresh disk flooded to that one target."""
    need = settings.primary_count * (settings.primary_data_blocks + 1)
    if need > geometry.total_blocks:
        raise ConfigError(
            f"primary corpus needs {need} blocks ({settings.primary_count} files of "
            f"{settings.primary_data_blocks} data blocks plus metadata), the disk has "
            f"{geometry.total_blocks}"
        )
    targets = settings.secondary_targets
    floods = {seed: {t: flood_ops(settings, t, seed, geometry.total_blocks) for t in targets}
              for seed in settings.seeds}
    rows = []
    for policy_kind in settings.policies:
        def phase(seed):
            return primary_phase(geometry, hp, settings, policy_kind, seed, invert_link_rule)

        # a seed-free policy writes the same primary phase for every seed, so
        # one serves all floods; any other draws its primary blocks from the
        # seed's own stream, so each seed writes its own primaries.
        shared = phase(settings.seeds[0]) if policy_kind in SEED_FREE else None
        cells = [
            run_flood(shared if shared is not None else phase(seed), floods[seed], seed)
            for seed in settings.seeds
        ]
        rows += [c[target] for target in targets for c in cells]
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
