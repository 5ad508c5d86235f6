"""Ranking engine: the usage and spatial factor updates and the ranking itself.

Factors change when an event fires, not on a timer: a file access bumps
usage, and each op ends with one spatial pass. Churn moves with claims and
releases, in the disk module. Scores are never stored: every ranking
recomputes them from the disk's factor arrays, so there is no cached key that
could go stale.
"""

import numpy as np

from .errors import DiskFullError
from .model import CONTIGUOUS, GRID_ROW, NONE, SF_LIMIT


def record_file_access(disk, file) -> None:
    """One read or write of a file: bump usage on every block it owns.

    Fires once per operation regardless of byte count. A zero-block file is a
    legal no-op for the block factors.
    """
    if file.status != "used":
        raise ValueError(f"cannot record access on a {file.status} file")
    disk.uf[np.asarray(file.block_list, dtype=np.intp)] += 1
    file.uf_counter += 1
    file.last_access_tick = disk.clock
    disk.emit("access", file.id)


def update_spatial_factors(disk) -> None:
    """One spatial pass: every unused block's sf becomes the mean pre-pass
    score of its neighbors; used blocks stay at 0.

    All new values are computed from a frozen snapshot of the pre-pass scores
    (Jacobi style), then written in place. The mean is evaluated in the
    canonical form (neighborhood_sum - own_score) / neighbor_count so that any
    independent reimplementation of the same formula agrees bitwise. A block
    with no neighbors gets sf = 0. Runs once per workload operation.
    """
    disk.emit("spatial")
    geo = disk.geometry
    nb = geo.neighborhood
    if nb.kind == NONE:
        return
    sf = disk.sf
    n = geo.total_blocks
    if nb.kind == GRID_ROW:
        deg = geo.cols - 1
        if deg == 0:
            sf.fill(0.0)
            return
        pf = disk.pf_array().reshape(geo.rows, geo.cols)
        np.subtract(np.add.reduce(pf, axis=1, keepdims=True), pf, out=sf.reshape(geo.rows, geo.cols))
        np.divide(sf, deg, out=sf)
    elif nb.kind == CONTIGUOUS:
        if n == 1:
            sf.fill(0.0)
            return
        pf = disk.pf_array()
        # a span past n - 1 reaches no further block, only widens the kernel
        span = min(nb.span, n - 1)
        # "full" then slice, not "same": "same" returns max(n, kernel) samples,
        # which breaks when the window is wider than the disk.
        window = np.convolve(pf, np.ones(2 * span + 1), mode="full")[span:span + n]
        i = np.arange(n)
        counts = np.minimum(i, span) + np.minimum(n - 1 - i, span)  # neighbors left + right
        np.subtract(window, pf, out=sf)
        np.divide(sf, counts, out=sf)
    else:  # pragma: no cover - kinds validated at construction
        raise ValueError(f"unknown neighborhood kind {nb.kind!r}")
    np.maximum(sf, -SF_LIMIT, out=sf)
    np.minimum(sf, SF_LIMIT, out=sf)
    np.putmask(sf, disk.used_mask, 0.0)


def top_unused(disk, count: int) -> list:
    """The count highest-scored unused addresses, descending score, lower
    address first on ties. Read-only; raises when the disk cannot supply."""
    free = unused_addresses(disk, count)
    # stable, so equal scores keep the ascending address order of free
    order = np.argsort(-disk.pf_array()[free], kind="stable")
    return free[order[:count]].tolist()


def unused_addresses(disk, count: int) -> np.ndarray:
    """All unused addresses, ascending; raises unless at least count exist."""
    free = np.flatnonzero(~disk.used_mask)
    if count > len(free):
        raise DiskFullError(f"need {count} unused blocks, only {len(free)} free")
    return free
