"""Ranking engine: the spatial pass and the ranking itself.

Factors change when an event fires, not on a timer: each op ends with one
spatial pass. Usage moves with file reads and writes, in the file layer;
churn moves with claims and releases, in the disk module. Scores are never
stored: every ranking recomputes them from the disk's factor arrays, so there
is no cached key that could go stale. A ranking scores every block and keeps
the free ones, or, when at most a quarter of the disk is free, scores only
the free blocks; the spatial pass always scores every block.
"""

import numpy as np

from .errors import DiskFullError
from .model import GRID_ROW, NONE, SF_LIMIT, ready_operand

# the clamp bounds as ready operands; putmask keeps a Python 0.0, because it
# copies a read-only values array on every call
_SF_LO = ready_operand(-SF_LIMIT, np.float64)
_SF_HI = ready_operand(SF_LIMIT, np.float64)


def update_spatial_factors(disk) -> None:
    """One spatial pass: every unused block's sf becomes the mean pre-pass
    score of its neighbors; used blocks stay at 0.

    All new values are computed from a frozen snapshot of the pre-pass scores
    (Jacobi style), then written in place. The mean is evaluated in the
    canonical form (neighborhood_sum - own_score) / neighbor_count so that any
    independent reimplementation of the same formula agrees bitwise. A block
    with no neighbors gets sf = 0. Runs once per workload operation.
    """
    geo = disk.geometry
    nb = geo.neighborhood
    if nb.kind == NONE:
        return
    sf = disk.sf
    n = geo.total_blocks
    if (geo.cols if nb.kind == GRID_ROW else n) == 1:  # no block has a neighbor
        sf.fill(0.0)
        return
    pf = disk.pf_array()
    if nb.kind == GRID_ROW:
        pf = pf.reshape(geo.rows, geo.cols)
        np.subtract(np.add.reduce(pf, axis=1, keepdims=True), pf, out=sf.reshape(geo.rows, geo.cols))
        np.divide(sf, geo.cols - 1, out=sf)
    else:  # CONTIGUOUS: Neighborhood admits no other kind
        # a span past n - 1 reaches no further block, only widens the kernel
        span = min(nb.span, n - 1)
        # "full" then slice, not "same": "same" returns max(n, kernel) samples,
        # which breaks when the window is wider than the disk.
        window = np.convolve(pf, np.ones(2 * span + 1), mode="full")[span:span + n]
        i = np.arange(n)
        counts = np.minimum(i, span) + np.minimum(n - 1 - i, span)  # neighbors left + right
        np.subtract(window, pf, out=sf)
        np.divide(sf, counts, out=sf)
    np.maximum(sf, _SF_LO, out=sf)
    np.minimum(sf, _SF_HI, out=sf)
    np.putmask(sf, disk.used_mask, 0.0)


def top_unused(disk, count: int) -> np.ndarray:
    """The count highest-scored unused addresses as a fresh np.intp array,
    descending score, lower address first on ties. Read-only; raises when
    the disk cannot supply.

    With at most a quarter of the disk free, only the free blocks are scored,
    each factor gathered first; with more free, the gathers cost more than
    they save, so every block is scored and the free ones kept. The scores
    are the same bits either way. Most free blocks usually share the best
    score, so when that class alone can supply count blocks its lowest
    addresses are the answer, and no sort runs."""
    free = unused_addresses(disk, count)
    if count == 0:
        return free[:0].copy()  # a view would keep all of free alive
    pf = disk.pf_array(free) if 4 * len(free) <= len(disk.used_mask) else disk.pf_array()[free]
    # positions of the best score; argmax finds it faster than max on small disks
    best = (pf == pf[pf.argmax()]).nonzero()[0]
    if len(best) >= count:
        return free[best[:count]]
    # stable, so equal scores keep the ascending address order of free
    order = np.argsort(np.negative(pf, out=pf), kind="stable")
    return free[order[:count]]


def unused_addresses(disk, count: int) -> np.ndarray:
    """All unused addresses, ascending; raises unless at least count exist."""
    free = (~disk.used_mask).nonzero()[0]
    if count > len(free):
        raise DiskFullError(f"need {count} unused blocks, only {len(free)} free")
    return free
