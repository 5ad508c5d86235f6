"""Post-deletion recovery measurement and the scalar objective.

A block counts as recovered for a file when the owner array still names that
file: the block is unused and no later file has claimed it. Only the owner
array is compared: a deleted file's block can change only when a later claim
takes it, and that claim names a new owner. Linked formats are
all-or-nothing; partial formats recover byte ranges once their metadata block
survives. One lineage read over many files (measure_recovery) is the only
way a file's recovery is measured: the objective, compare rows and the
recovery table (the per-file rows of the simulate and replay reports) all
take it from there. One sum (usage_weighted_rr) turns measured ratios into
the usage-weighted percentage that the objective, the simulate and replay
reports and the compare rows all give; one formula (PerfWeights.objective)
weighs it against the seek cost, for train and the reports alike.
"""

from dataclasses import dataclass

from .vfs import LINKED, USED


@dataclass(frozen=True)
class PerfWeights:
    """Objective weights. beta scales the access time proxy and alpha, the
    rest of one, scales recoverability."""

    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    @property
    def alpha(self) -> float:
        return 1.0 - self.beta

    def objective(self, rr: float, seek: float) -> float:
        """(1 - beta) * rr - beta * seek: the objective from its two terms."""
        return self.alpha * rr - self.beta * seek


def measure_recovery(disk, files) -> list[tuple]:
    """Per deleted or obsolete file of files, in order, (intact,
    recovered_bytes, rr), all from one lineage read over the block lists of
    all of them. intact holds per block of the file's block list whether the
    block is still the file's; intact[0] is its metadata block. Nothing comes
    back without the metadata block; then a linked file comes back whole or
    not at all, and a partial file by the data blocks that survive, at most
    its size."""
    addrs = []
    ids = []
    for f in files:
        if f.status == USED:
            raise ValueError(f"file {f.path} is live, nothing to recover")
        addrs += f.block_list
        ids += [f.id] * len(f.block_list)
    intact = disk.lineage_intact(addrs, ids).tolist()
    bs = disk.geometry.block_size_bytes
    out = []
    start = 0
    for f in files:
        end = start + len(f.block_list)
        own = intact[start:end]
        start = end
        if not own or not own[0]:
            out.append((own, 0, 0.0))
        elif f.type_class == LINKED:
            out.append((own, f.size_bytes, 1.0) if all(own) else (own, 0, 0.0))
        else:
            recovered = min(sum(own[1:]) * bs, f.size_bytes)
            out.append((own, recovered, recovered / f.size_bytes))
    return out


def retired_rr(fs) -> float:
    """Usage-weighted recovery percentage over every deleted and obsolete file
    of fs, measured against current disk state: usage_weighted_rr over the
    files that can still be recovered, all from one lineage read (see
    measure_recovery), against fs's running usage total of all retired
    files. An obsolete file would measure 0.0 and add nothing to the sum, so
    skipping it leaves every partial sum, and the result, the same as the
    full-list reference weighted_rr in tests/oracles.py, to the bit."""
    files = fs.recoverable_files()
    rrs = [rr for _, _, rr in measure_recovery(fs.disk, files)]
    return usage_weighted_rr(files, rrs, fs.retired_usage)


def usage_weighted_rr(files, rrs, usage: int) -> float:
    """100 * sum(rr * uf_counter) over files and their recovery ratios rrs,
    in order, divided by usage, the usage total of every retired file the
    percentage stands for; 0.0 when usage is 0. The ratios come from
    measure_recovery, which rejects a live file."""
    if usage == 0:
        return 0.0
    num = 0.0
    for f, rr in zip(files, rrs, strict=True):
        num += rr * f.uf_counter
    return 100.0 * num / usage


def access_time_term(fs) -> float:
    """Access-time proxy over live files, the seek cost; 0.0 when nothing is
    live. It is the mean per-file normalized address-gap sum, where a file
    scores sum(|gap|) / ((blocks - 1) * total_blocks); single-block files
    score 0."""
    files = fs.live_files()
    if not files:
        return 0.0
    total = fs.disk.geometry.total_blocks
    acc = 0.0
    for f in files:
        bl = f.block_list
        if len(bl) >= 2:
            gaps = sum(abs(b - a) for a, b in zip(bl, bl[1:]))
            acc += gaps / ((len(bl) - 1) * total)
    return acc / len(files)


def performance(fs, weights: PerfWeights) -> float:
    """The tuning objective of fs's recovery and seek cost (PerfWeights.objective)."""
    return weights.objective(retired_rr(fs), access_time_term(fs))


def recovery_table(fs) -> list[dict]:
    """Per-file recovery rows for deleted and obsolete files, in delete order,
    from one lineage read over the files that can still be recovered. An
    obsolete file has no block left on its lineage, so its row is fixed:
    nothing survives and nothing comes back."""
    files = fs.recoverable_files()
    measured = {f.id: m for f, m in zip(files, measure_recovery(fs.disk, files))}
    rows = []
    for f in fs.deleted_files():
        intact, recovered, rr = measured.get(f.id, ((), 0, 0.0))
        rows.append(
            {
                "file_id": f.id,
                "path": f.path,
                "type_class": f.type_class,
                "status": f.status,
                "uf": f.uf_counter,
                "total_blocks": len(f.block_list),
                "surviving_blocks": sum(intact),
                "metadata_intact": bool(intact) and intact[0],
                "recovered_bytes": recovered,
                "rr": rr,
            }
        )
    return rows
