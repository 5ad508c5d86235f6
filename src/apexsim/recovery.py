"""Post-deletion recovery measurement and the scalar objective.

A block counts as recovered for a file when the owner array still names that
file: the block is unused and no later file has claimed it. Only the owner
array is compared, never the block versions. Linked formats are
all-or-nothing; partial formats recover byte ranges once their metadata block
survives.
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


def _recovered(file, intact: list, block_size: int) -> tuple:
    """Recovered bytes and recovery ratio of file, where intact holds per
    block of its block list whether the block is still the file's. Nothing
    comes back without the metadata block; then a linked file comes back
    whole or not at all, and a partial file by the data blocks that survive."""
    if not intact or not intact[0]:
        return 0, 0.0
    if file.type_class == LINKED:
        return (file.size_bytes, 1.0) if all(intact) else (0, 0.0)
    if file.size_bytes <= 0:
        return 0, 0.0
    recovered = min(sum(intact[1:]) * block_size, file.size_bytes)
    return recovered, recovered / file.size_bytes


def recover_file(disk, file) -> RecoveryResult:
    """Recovery ratio of one deleted or obsolete file against current disk state."""
    if file.status == USED:
        raise ValueError(f"file {file.path} is live, nothing to recover")
    intact = disk.lineage_intact(file.block_list, file.id).tolist()
    recovered, rr = _recovered(file, intact, disk.geometry.block_size_bytes)
    surviving = frozenset(compress(file.block_list, intact))
    return RecoveryResult(file.id, surviving, bool(intact) and intact[0], recovered, rr)


def recovery_ratios(disk, files) -> list[float]:
    """The recovery ratio of each deleted or obsolete file of files, in
    order, equal to recover_file(disk, f).rr, from one lineage read over the
    block lists of all of them."""
    addrs = []
    ids = []
    for f in files:
        if f.status == USED:
            raise ValueError(f"file {f.path} is live, nothing to recover")
        addrs += f.block_list
        ids += [f.id] * len(f.block_list)
    intact = disk.lineage_intact(addrs, ids).tolist()
    bs = disk.geometry.block_size_bytes
    rrs = []
    start = 0
    for f in files:
        end = start + len(f.block_list)
        rrs.append(_recovered(f, intact[start:end], bs)[1])
        start = end
    return rrs


def retired_rr(disk, fs) -> float:
    """Usage-weighted recovery percentage over every deleted and obsolete file
    of fs, measured against current disk state, reading only the files that
    can still be recovered, all in one lineage read (see recovery_ratios). An
    obsolete file adds its usage to the denominator, which fs keeps as a
    running total, and nothing to the numerator; the numerator sums in delete
    order, so the result equals the full-list reference weighted_rr in
    tests/oracles.py to the bit."""
    files = fs.recoverable_files()
    num = 0.0
    for f, rr in zip(files, recovery_ratios(disk, files)):
        num += rr * f.uf_counter
    if fs.retired_usage == 0:
        return 0.0
    return 100.0 * num / fs.retired_usage


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
    return weights.alpha * retired_rr(disk, fs) - weights.beta * access_time_term(
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
