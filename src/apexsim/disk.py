"""In-memory model of the block device.

The disk is a flat array of fixed-size blocks, and every piece of block state
is one entry of a per-block array: the used mask, the four ranking factors,
the payload version, the payload itself and the lineage owner (the most
recent parent file, -1 for a block never owned). Scores are computed from the
arrays on demand, and claiming or releasing a file's blocks is one vectorised
call. The sibling list of each owner is the owning file's own block list,
kept by reference for the snapshot.
"""

import hashlib
import json
from collections import Counter

import numpy as np

from .errors import BlockStateError
from .model import NONE, DiskGeometry, Hyperparams

SNAPSHOT_FORMAT = "apexsim-snapshot"
SNAPSHOT_VERSION = 1
NO_OWNER = -1
_STATE = {True: '"used"', False: '"unused"'}


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


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
        self.version = np.zeros(n, dtype=np.int64)  # bumps on every write; 0 = never written
        self.payload = [None] * n  # bytes, or None meaning all zeroes
        self.owner = np.full(n, NO_OWNER, dtype=np.int64)
        self.siblings: dict[int, list] = {}  # owner file id -> its block list
        self.clock = 0
        self.event_log: list | None = None

    # -- factor access ------------------------------------------------------

    @property
    def spatial_enabled(self) -> bool:
        return self.geometry.neighborhood.kind != NONE

    def pf_array(self) -> np.ndarray:
        """Scores of all blocks as a fresh float64 array: churn and linkage
        push a block up, usage protects it, and higher means overwritten
        sooner. Evaluated as ((hist*hf - usage*uf) + spatial*sf) + link*lf,
        the integer terms exactly in int64. With spatial ranking disabled the
        spatial term is dropped, not zeroed, and the integer sum reaches
        float64 in one conversion at the end."""
        hp = self.hyperparams
        base = np.multiply(self.hf, hp.hist)
        base -= np.multiply(self.uf, hp.usage)
        if self.geometry.neighborhood.kind == NONE:
            base += np.multiply(self.lf, hp.link)
            return base.astype(np.float64)
        # spatial*sf + base is base + spatial*sf: float addition commutes
        pf = np.multiply(self.sf, hp.spatial)
        pf += base
        pf += np.multiply(self.lf, hp.link)
        return pf

    # -- state --------------------------------------------------------------

    def is_used(self, address: int) -> bool:
        return bool(self.used_mask[address])

    def lineage_intact(self, addrs: list, file_id) -> np.ndarray:
        """Per address, whether the block still holds exactly the bytes the
        given file left behind: unused, and no later file has claimed it.
        file_id is one id, or one id per address."""
        idx = np.asarray(addrs, dtype=np.intp)
        return ~self.used_mask[idx] & (self.owner[idx] == file_id)

    def tick(self) -> None:
        self.clock += 1

    # -- events -------------------------------------------------------------

    def record_events(self, enabled: bool = True) -> None:
        self.event_log = [] if enabled else None

    def emit(self, *event) -> None:
        if self.event_log is not None:
            self.event_log.append(event)

    # -- serialization ------------------------------------------------------

    def snapshot(self) -> dict:
        return json.loads(self.snapshot_json())

    def snapshot_json(self) -> str:
        """Canonical JSON of the whole device (sorted keys, no whitespace),
        written in one pass over the blocks. Each owner's sorted sibling list
        is encoded once, however many blocks name that owner."""
        owners = self.owner.tolist()
        lineage = {
            owner: _dumps(sorted(self.siblings[owner]))
            for owner in set(owners) if owner != NO_OWNER
        }
        # json's own float spelling, one encoder call for the whole column
        sf_text = _dumps(self.sf.tolist())[1:-1].split(",")
        blocks = []
        for used, hf, uf, sf, lf, version, payload, owner in zip(
            self.used_mask.tolist(), self.hf.tolist(), self.uf.tolist(), sf_text,
            self.lf.tolist(), self.version.tolist(), self.payload, owners,
        ):
            mrpf = (
                f'{{"content_epoch":{version},"file_id":{owner},"siblings":{lineage[owner]}}}'
                if owner != NO_OWNER
                else "null"
            )
            digest = f'"{hashlib.sha256(payload).hexdigest()}"' if payload is not None else "null"
            blocks.append(
                f'{{"hf":{hf},"lf":{lf},"mrpf":{mrpf},"payload_sha256":{digest},'
                f'"sf":{sf},"state":{_STATE[used]},"uf":{uf},"version":{version}}}'
            )
        # "blocks" sorts before every other top-level key
        rest = _dumps({
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "geometry": self.geometry.to_dict(),
            "hyperparams": list(self.hyperparams.as_tuple()),
            "clock": self.clock,
        })
        return '{"blocks":[' + ",".join(blocks) + "]," + rest[1:]

    def snapshot_sha256(self) -> str:
        return hashlib.sha256(self.snapshot_json().encode()).hexdigest()


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


def claim(disk: Disk, addrs: list, file_id: int) -> None:
    """New data lands on unused blocks: they become used by file_id.

    Overwrite propagation first: a claimed block whose lineage names a prior
    owner F damages F's copy, so each of F's blocks still unused and still
    owned by F gains one unit of churn per claimed block F owned. Then the
    claim lands: churn resets to 1, usage starts at 1, spatial zeroes, the
    payload version bumps and lineage names file_id. addrs is kept by
    reference as file_id's sibling list, so it must be the file's block list.
    """
    idx = _addresses(disk, addrs)
    if np.count_nonzero(disk.used_mask[idx]):
        raise BlockStateError(f"already used: {idx[disk.used_mask[idx]].tolist()}")
    prior = Counter(disk.owner[idx].tolist())
    prior.pop(NO_OWNER, None)
    disk.used_mask[idx] = True
    if prior:
        free = ~disk.used_mask
        for owner, count in prior.items():
            disk.hf[free & (disk.owner == owner)] += count
    disk.hf[idx] = 1
    disk.uf[idx] = 1
    disk.sf[idx] = 0.0
    disk.version[idx] += 1
    disk.owner[idx] = file_id
    disk.siblings[file_id] = addrs


def release(disk: Disk, addrs: list, lf: int) -> None:
    """Used blocks become unused: churn resets to 0, usage freezes at its
    current value, the linkage flag becomes lf. Payload and lineage stay
    until a later claim lands on the block."""
    idx = _addresses(disk, addrs)
    if np.count_nonzero(disk.used_mask[idx]) != len(idx):
        raise BlockStateError(f"already unused: {idx[~disk.used_mask[idx]].tolist()}")
    disk.used_mask[idx] = False
    disk.hf[idx] = 0
    disk.lf[idx] = lf
