"""In-memory model of the block device.

The disk is a flat array of fixed-size blocks, and every piece of block state
is one entry of a per-block array: the used mask, the four ranking factors
and the lineage owner (the most recent parent file, -1 for a block never
owned). A block's content is named by its lineage owner alone; no bytes are
kept. Scores are computed from the arrays on demand, and claiming or
releasing a file's blocks is one vectorised call. The device holds nothing
else: a claim finds a prior owner's blocks through the caller's own index of
files, and the arrays decide which of them still count. The digest,
snapshot_sha256, is the device's one serialization: it hashes the header and
the arrays' own bytes, and renders no block as text.
"""

import hashlib
from collections import Counter

import numpy as np

from .errors import BlockStateError
from .model import NONE, DiskGeometry, Hyperparams, canonical_json

SNAPSHOT_FORMAT = "apexsim-snapshot"
SNAPSHOT_VERSION = 5
NO_OWNER = -1
_ARRAYS = ("hf", "uf", "sf", "lf", "used_mask", "owner")  # the per-block state


class Disk:
    def __init__(self, geometry: DiskGeometry, hyperparams: Hyperparams):
        self.geometry = geometry
        self.hyperparams = hyperparams
        n = geometry.total_blocks
        self.hf = np.zeros(n, dtype=np.int64)  # churn of the block's lineage while unused
        self.uf = np.zeros(n, dtype=np.int64)  # accesses of the owning file, frozen once freed
        self.sf = np.zeros(n, dtype=np.float64)  # neighbor mean of scores, 0 while used
        self.lf = np.ones(n, dtype=np.int64)  # last owner's linkage flag; fresh blocks start linked
        self.used_mask = np.zeros(n, dtype=bool)
        self.owner = np.full(n, NO_OWNER, dtype=np.int64)
        self.clock = 0

    # -- factor access ------------------------------------------------------

    def pf_array(self, addrs: np.ndarray | None = None) -> np.ndarray:
        """Scores of the blocks at addrs (default: every block), in that
        order, as a fresh float64 array: churn and linkage push a block up,
        usage protects it, and higher means overwritten sooner. Evaluated as
        ((hist*hf - usage*uf) + spatial*sf) + link*lf, the integer terms
        exactly in int64. With spatial ranking disabled the spatial term is
        dropped, not zeroed, and the integer sum reaches float64 in one cast
        at the end. Every step is elementwise, so pf_array(addrs) is bitwise
        pf_array()[addrs], and gathers only the factors it reads."""
        hist, usage, spatial, link = self.hyperparams.operands
        hf, uf, sf, lf = self.hf, self.uf, self.sf, self.lf
        if addrs is not None:
            hf, uf, lf = hf[addrs], uf[addrs], lf[addrs]
        base = np.multiply(hf, hist)
        base -= np.multiply(uf, usage)
        if self.geometry.neighborhood.kind == NONE:
            base += np.multiply(lf, link)
            return base.astype(np.float64)
        # spatial*sf + base is base + spatial*sf: float addition commutes
        pf = np.multiply(sf if addrs is None else sf[addrs], spatial)
        pf += base
        pf += np.multiply(lf, link)
        return pf

    # -- state --------------------------------------------------------------

    def lineage_intact(self, addrs: list, file_id: int | list) -> np.ndarray:
        """Per address, whether the block is still its file's: unused, and the
        owner array names that file, so no later file has claimed it. file_id
        is one file id for every address, or a list of one id per address."""
        idx = np.asarray(addrs, dtype=np.intp)
        return ~self.used_mask[idx] & (self.owner[idx] == file_id)

    def tick(self) -> None:
        self.clock += 1

    def copy(self) -> "Disk":
        """An independent device in the same state: the header fields are
        shared, being immutable, and each per-block array is copied."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        for name in _ARRAYS:
            setattr(new, name, getattr(self, name).copy())
        return new

    # -- serialization ------------------------------------------------------

    def snapshot_sha256(self) -> str:
        """sha256 of the whole device: the canonical JSON of [format,
        version, geometry, coefficients, clock], then each array of _ARRAYS
        as its little-endian bytes (read in place on a little-endian host):
        all the device holds. The geometry fixes each array's length and the
        header ends itself, so no two states feed the hash the same bytes;
        0.0 and -0.0 differ in sf."""
        digest = hashlib.sha256(canonical_json([
            SNAPSHOT_FORMAT, SNAPSHOT_VERSION, self.geometry.to_dict(),
            list(self.hyperparams.as_tuple()), self.clock,
        ]).encode())
        for name in _ARRAYS:
            arr = getattr(self, name)
            digest.update(arr.astype(arr.dtype.newbyteorder("<"), copy=False).data)
        return digest.hexdigest()


def new_disk(geometry: DiskGeometry, hyperparams: Hyperparams) -> Disk:
    """Fresh device: every block unused with hf=0, uf=0, sf=0, lf=1."""
    return Disk(geometry, hyperparams)


def _addresses(disk: Disk, addrs: list) -> np.ndarray:
    n = disk.geometry.total_blocks
    if addrs and not (0 <= min(addrs) and max(addrs) < n):
        raise IndexError(f"address out of range 0..{n - 1}: {addrs}")
    if len(set(addrs)) != len(addrs):
        raise BlockStateError(f"repeated address in {addrs}")
    return np.asarray(addrs, dtype=np.intp)


def claim(disk: Disk, addrs: list, file_id: int, block_list_of) -> list:
    """New data lands on unused blocks: they become used by file_id.

    Overwrite propagation first: a claimed block whose lineage names a prior
    owner F damages F's copy, so each of F's blocks still unused and still
    owned by F gains one unit of churn per claimed block F owned. F's blocks
    are block_list_of(F), a function from a prior owner's id to that file's
    block list; only the blocks the owner array still names count. Then the
    claim lands: churn resets to 1, usage starts at 1, spatial zeroes and
    lineage names file_id. Nothing of addrs or of the lists read is kept or
    changed.

    Returns the prior owners this claim left with no block on their lineage,
    in the order the claim first took one of their blocks: nothing of those
    files can be recovered any more.
    """
    idx = _addresses(disk, addrs)
    if np.count_nonzero(disk.used_mask[idx]):
        raise BlockStateError(f"already used: {idx[disk.used_mask[idx]].tolist()}")
    prior = Counter(disk.owner[idx].tolist())
    prior.pop(NO_OWNER, None)
    disk.used_mask[idx] = True
    emptied = []
    for owner, count in prior.items():
        blocks = np.asarray(block_list_of(owner), dtype=np.intp)
        left = blocks[disk.lineage_intact(blocks, owner)]
        if left.size:
            disk.hf[left] += count
        else:
            emptied.append(owner)
    disk.hf[idx] = 1
    disk.uf[idx] = 1
    disk.sf[idx] = 0.0
    disk.owner[idx] = file_id
    return emptied


def release(disk: Disk, addrs: list, lf: int) -> None:
    """Used blocks become unused: churn resets to 0, usage freezes at its
    current value, the linkage flag becomes lf. Lineage stays until a later
    claim lands on the block."""
    idx = _addresses(disk, addrs)
    if np.count_nonzero(disk.used_mask[idx]) != len(idx):
        raise BlockStateError(f"already unused: {idx[~disk.used_mask[idx]].tolist()}")
    disk.used_mask[idx] = False
    disk.hf[idx] = 0
    disk.lf[idx] = lf
