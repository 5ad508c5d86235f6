"""Post-deletion recovery measurement and the scalar objective.

A block counts as recovered for a file when it still holds exactly the bytes
that file left behind: unused, and its lineage still names the file. Linked
formats are all-or-nothing; partial formats recover byte ranges once their
metadata block survives.
"""

from dataclasses import dataclass
from itertools import compress

from .vfs import LINKED, OBSOLETE, USED

TIMESTAMP = "timestamp"
SEEK_COST = "seek-cost"


@dataclass(frozen=True)
class PerfWeights:
    """Objective weights. alpha scales recoverability, beta scales the access
    time proxy; they must sum to one."""

    alpha: float = 1.0
    beta: float = 0.0
    aat_mode: str = SEEK_COST

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.alpha + self.beta}")
        if self.aat_mode not in (TIMESTAMP, SEEK_COST):
            raise ValueError(f"unknown access-time mode {self.aat_mode!r}")


@dataclass(frozen=True)
class RecoveryResult:
    file_id: int
    surviving_blocks: frozenset
    metadata_intact: bool
    recovered_bytes: int
    rr: float


def recover_file(disk, file) -> RecoveryResult:
    """Recovery ratio of one deleted or obsolete file against current disk state."""
    if file.status == USED:
        raise ValueError(f"file {file.path} is live, nothing to recover")
    intact = disk.lineage_intact(file.block_list, file.id)
    surviving = frozenset(compress(file.block_list, intact))
    metadata_intact = bool(file.block_list) and bool(intact[0])
    if file.type_class == LINKED:
        complete = bool(file.block_list) and bool(intact.all())
        recovered = file.size_bytes if complete else 0
        rr = 1.0 if complete else 0.0
    else:
        bs = disk.geometry.block_size_bytes
        data_surviving = int(intact[1:].sum())
        if metadata_intact and file.size_bytes > 0:
            recovered = min(data_surviving * bs, file.size_bytes)
            rr = recovered / file.size_bytes
        else:
            recovered = 0
            rr = 0.0
    return RecoveryResult(file.id, surviving, metadata_intact, recovered, rr)


def weighted_rr(disk, files) -> float:
    """Usage-weighted recovery percentage over deleted and obsolete files,
    measured against current disk state. Obsolete files are not scanned."""
    return usage_weighted_rr(
        files, [0.0 if f.status == OBSOLETE else recover_file(disk, f).rr for f in files]
    )


def usage_weighted_rr(files, rrs) -> float:
    """Usage-weighted recovery percentage of files whose recovery ratios are
    rrs, in the same order. Obsolete files contribute rr = 0 by definition
    (no lineage survives), whatever rrs holds for them. No files -> 0.0.
    """
    num = 0.0
    den = 0
    for f, rr in zip(files, rrs, strict=True):
        if f.status == USED:
            raise ValueError(f"live file {f.path} in recovery set")
        den += f.uf_counter
        if f.status == OBSOLETE:
            continue
        num += rr * f.uf_counter
    if den == 0:
        return 0.0
    return 100.0 * num / den


def access_time_term(disk, fs, mode: str = SEEK_COST) -> float:
    """Access-time proxy over live files; 0.0 when nothing is live.

    timestamp: mean last-access tick (creation tick when never accessed).
    seek-cost: mean per-file normalized address-gap sum, where a file scores
    sum(|gap|) / ((blocks - 1) * total_blocks); single-block files score 0.
    """
    files = fs.live_files()
    if not files:
        return 0.0
    if mode == TIMESTAMP:
        return sum(f.last_access_tick for f in files) / len(files)
    if mode == SEEK_COST:
        total = disk.geometry.total_blocks
        acc = 0.0
        for f in files:
            bl = f.block_list
            if len(bl) >= 2:
                gaps = sum(abs(b - a) for a, b in zip(bl, bl[1:]))
                acc += gaps / ((len(bl) - 1) * total)
        return acc / len(files)
    raise ValueError(f"unknown access-time mode {mode!r}")


def performance(disk, fs, weights: PerfWeights) -> float:
    """The tuning objective: recoverability minus the access-time penalty."""
    return weights.alpha * weighted_rr(disk, fs.deleted_files()) - weights.beta * access_time_term(
        disk, fs, weights.aat_mode
    )


def recovery_table(disk, fs) -> list[dict]:
    """Per-file recovery rows for deleted and obsolete files, in delete order."""
    rows = []
    for f in fs.deleted_files():
        res = recover_file(disk, f)
        rows.append(
            {
                "file_id": f.id,
                "path": f.path,
                "type_class": f.type_class,
                "status": f.status,
                "uf": f.uf_counter,
                "total_blocks": len(f.block_list),
                "surviving_blocks": len(res.surviving_blocks),
                "metadata_intact": res.metadata_intact,
                "recovered_bytes": res.recovered_bytes,
                "rr": res.rr,
            }
        )
    return rows
