"""In-memory model of the block device.

The disk is a flat array of fixed-size blocks. A boolean used mask and four
parallel factor arrays are the whole ranking state: scores are computed from
them on demand, so a spatial pass or a ranking is a handful of vector ops.
Payload, version and lineage live on small per-block objects.
"""

import hashlib
import json

import numpy as np

from .errors import BlockStateError
from .model import NONE, BlockFactors, DiskGeometry, Hyperparams, MrpfRecord

TO_USED = "to-used"
TO_UNUSED = "to-unused"

SNAPSHOT_FORMAT = "apexsim-snapshot"
SNAPSHOT_VERSION = 1


class Block:
    """Payload-side state of one block. Factor values live on the disk arrays."""

    __slots__ = ("index", "version", "payload", "mrpf")

    def __init__(self, index: int):
        self.index = index
        self.version = 0  # bumps on every write; 0 means never written
        self.payload = None  # bytes, or None meaning all zeroes
        self.mrpf: MrpfRecord | None = None


class Disk:
    def __init__(self, geometry: DiskGeometry, hyperparams: Hyperparams):
        self.geometry = geometry
        self.hyperparams = hyperparams
        n = geometry.total_blocks
        self.hf = np.zeros(n, dtype=np.int64)
        self.uf = np.zeros(n, dtype=np.int64)
        self.sf = np.zeros(n, dtype=np.float64)
        self.lf = np.ones(n, dtype=np.int64)  # fresh blocks start linked
        self.blocks = [Block(i) for i in range(n)]
        self.used_mask = np.zeros(n, dtype=bool)
        self.clock = 0
        self.event_log: list | None = None

    # -- factor access ------------------------------------------------------

    @property
    def spatial_enabled(self) -> bool:
        return self.geometry.neighborhood.kind != NONE

    def factors(self, address: int) -> BlockFactors:
        return BlockFactors(
            hf=int(self.hf[address]),
            uf=int(self.uf[address]),
            sf=float(self.sf[address]),
            lf=int(self.lf[address]),
        )

    def pf_array(self) -> np.ndarray:
        """Scores of all blocks as float64: churn and linkage push a block
        up, usage protects it, and higher means overwritten sooner. With
        spatial ranking disabled the spatial term is dropped, not zeroed."""
        hp = self.hyperparams
        base = hp.hist * self.hf - hp.usage * self.uf
        if self.spatial_enabled:
            pf = base + hp.spatial * self.sf
            return pf + hp.link * self.lf
        return (base + hp.link * self.lf).astype(np.float64)

    # -- state --------------------------------------------------------------

    def is_used(self, address: int) -> bool:
        return bool(self.used_mask[address])

    def lineage_intact(self, address: int, file_id: int) -> bool:
        """True when the block still holds exactly the bytes the given file
        left behind: unused, lineage names the file, epoch matches payload."""
        if self.used_mask[address]:
            return False
        rec = self.blocks[address].mrpf
        return (
            rec is not None
            and rec.file_id == file_id
            and rec.content_epoch == self.blocks[address].version
        )

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
        per_block = []
        for blk in self.blocks:
            entry = {
                "state": "used" if self.used_mask[blk.index] else "unused",
                "hf": int(self.hf[blk.index]),
                "uf": int(self.uf[blk.index]),
                "sf": float(self.sf[blk.index]),
                "lf": int(self.lf[blk.index]),
                "version": blk.version,
                "payload_sha256": (
                    hashlib.sha256(blk.payload).hexdigest() if blk.payload is not None else None
                ),
                "mrpf": (
                    {
                        "file_id": blk.mrpf.file_id,
                        "siblings": sorted(blk.mrpf.siblings),
                        "content_epoch": blk.mrpf.content_epoch,
                    }
                    if blk.mrpf is not None
                    else None
                ),
            }
            per_block.append(entry)
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "geometry": self.geometry.to_dict(),
            "hyperparams": list(self.hyperparams.as_tuple()),
            "clock": self.clock,
            "blocks": per_block,
        }

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def snapshot_sha256(self) -> str:
        return hashlib.sha256(self.snapshot_json().encode()).hexdigest()


def new_disk(geometry: DiskGeometry, hyperparams: Hyperparams) -> Disk:
    """Fresh device: every block unused with hf=0, uf=0, sf=0, lf=1."""
    return Disk(geometry, hyperparams)


def transition_block(disk: Disk, address: int, direction: str) -> BlockFactors:
    """Move one block between states, applying the factor transition rules.

    to-used: churn resets to 1, usage starts at 1, spatial zeroes.
    to-unused: churn resets to 0; usage freezes at its current value.
    The linkage flag is owned by the filesystem's delete path, and lineage
    records are installed by the allocation path; neither changes here.
    """
    if not 0 <= address < disk.geometry.total_blocks:
        raise IndexError(f"address {address} out of range")
    if direction == TO_USED:
        if disk.used_mask[address]:
            raise BlockStateError(f"block {address} already used")
        disk.used_mask[address] = True
        disk.hf[address] = 1
        disk.uf[address] = 1
        disk.sf[address] = 0.0
    elif direction == TO_UNUSED:
        if not disk.used_mask[address]:
            raise BlockStateError(f"block {address} already unused")
        disk.used_mask[address] = False
        disk.hf[address] = 0
    else:
        raise ValueError(f"unknown transition {direction!r}")
    return disk.factors(address)
