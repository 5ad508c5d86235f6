"""Surveillance-style policy comparison: write a primary corpus, delete it,
flood the disk with secondary data under each policy, and measure how much of
the primary corpus is still recoverable.

Every cell (policy, secondary size, seed) runs on a fresh disk. The sweep
counts secondary data blocks, so targets map directly onto fractions of the
device.
"""

import json
import random
from dataclasses import dataclass

from .disk import new_disk
from .model import DiskGeometry, Hyperparams
from .errors import ConfigError
from .policies import KINDS, make_policy
from .recovery import recover_file, usage_weighted_rr
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
        for kind in self.policies:
            if kind not in KINDS:
                raise ValueError(f"unknown policy {kind!r} (expected one of {', '.join(KINDS)})")
        if self.primary_type not in (LINKED, PARTIAL):
            raise ValueError(f"unknown type class {self.primary_type!r}")

    def to_dict(self) -> dict:
        return {
            "primary_count": self.primary_count,
            "primary_data_blocks": self.primary_data_blocks,
            "primary_type": self.primary_type,
            "secondary_targets": list(self.secondary_targets),
            "secondary_min_blocks": self.secondary_min_blocks,
            "secondary_max_blocks": self.secondary_max_blocks,
            "seeds": list(self.seeds),
            "policies": list(self.policies),
        }


@dataclass(frozen=True)
class CompareRow:
    policy: str
    secondary_blocks: int
    seed: int
    weighted_rr: float
    per_file_rr: tuple

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "secondary_blocks": self.secondary_blocks,
            "seed": self.seed,
            "weighted_rr": self.weighted_rr,
            "per_file_rr": list(self.per_file_rr),
        }


def run_cell(
    geometry: DiskGeometry,
    hp: Hyperparams,
    settings: CompareSettings,
    policy_kind: str,
    target_blocks: int,
    seed: int,
    invert_link_rule: bool = False,
) -> CompareRow:
    disk = new_disk(geometry, hp)
    policy = make_policy(policy_kind, seed=seed + 1000003)
    fs = FileSystem(disk, policy=policy, invert_link_rule=invert_link_rule)
    rng = random.Random(seed)

    primary_ext = ".avi" if settings.primary_type == PARTIAL else ".zip"
    primary_paths = [f"/primary{i}{primary_ext}" for i in range(settings.primary_count)]
    for path in primary_paths:
        disk.tick()
        execute_op(fs, WorkloadOp(
            disk.clock, OP_CREATE, path, settings.primary_data_blocks, settings.primary_type
        ))
    for path in primary_paths:
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_DELETE, path))

    written = 0
    seq = 0
    while written < target_blocks:
        free = fs.free_blocks()
        if free < 2:
            break
        size = rng.randint(settings.secondary_min_blocks, settings.secondary_max_blocks)
        size = min(size, target_blocks - written, free - 1)
        size = max(size, 1)
        seq += 1
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_CREATE, f"/secondary{seq:04d}.dat", size, PARTIAL))
        written += size

    fs.mark_obsolete_sweep()
    # a cell deletes only the primaries, in creation order
    primary = fs.deleted_files()
    per_file = tuple(recover_file(disk, f).rr for f in primary)
    return CompareRow(
        policy=policy_kind,
        secondary_blocks=target_blocks,
        seed=seed,
        weighted_rr=usage_weighted_rr(primary, per_file),
        per_file_rr=per_file,
    )


def run_compare(
    geometry: DiskGeometry,
    hp: Hyperparams,
    settings: CompareSettings,
    invert_link_rule: bool = False,
) -> list[CompareRow]:
    need = settings.primary_count * (settings.primary_data_blocks + 1)
    if need > geometry.total_blocks:
        raise ConfigError(
            f"primary corpus needs {need} blocks ({settings.primary_count} files of "
            f"{settings.primary_data_blocks} data blocks plus metadata), the disk has "
            f"{geometry.total_blocks}"
        )
    rows = []
    for policy_kind in settings.policies:
        for target in settings.secondary_targets:
            for seed in settings.seeds:
                rows.append(
                    run_cell(
                        geometry, hp, settings, policy_kind, target, seed, invert_link_rule
                    )
                )
    return rows


def compare_report(settings: CompareSettings, rows, geometry, hp) -> dict:
    return {
        "settings": settings.to_dict(),
        "geometry": geometry.to_dict(),
        "hyperparams": list(hp.as_tuple()),
        "rows": [r.to_dict() for r in rows],
    }


def compare_report_json(settings, rows, geometry, hp) -> str:
    return json.dumps(compare_report(settings, rows, geometry, hp), sort_keys=True, separators=(",", ":"))
