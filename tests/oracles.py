"""Independent reference implementations the test suite checks the engine
against. Everything here recomputes from first principles: factor bookkeeping
is replayed literally from the events that OpEvents reads off each executed
op, rankings come from a full sort, recovery is reconstructed from claim
history instead of the owner array or read file by file and block by block
from the used mask and the owner array instead of in one batch, and the
recovery aggregate scans every retired file instead of only the recoverable
ones. The compare bound knows nothing of placement: it counts blocks. The
device digest is rebuilt one value at a time with struct and json, never
from an array's bytes.
"""

import hashlib
import json
import random
import struct
from itertools import chain

import numpy as np

from apexsim.disk import NO_OWNER, SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from apexsim.model import CONTIGUOUS, GRID_ROW, NONE, SF_LIMIT
from apexsim.vfs import LINKED, USED


def score_of(hf, uf, sf, lf, hp, spatial_enabled=True):
    # same canonical grouping the engine documents, recomputed from scratch
    s = hp.hist * hf - hp.usage * uf
    if spatial_enabled:
        s += hp.spatial * sf
    s += hp.link * lf
    return float(s)


def rank_by_full_sort(disk, count=None):
    """Unused addresses ordered by (-score, address), recomputed from factors."""
    hp = disk.hyperparams
    enabled = disk.geometry.neighborhood.kind != NONE
    scored = []
    for addr in range(disk.geometry.total_blocks):
        if disk.used_mask[addr]:
            continue
        factors = disk.hf[addr], disk.uf[addr], disk.sf[addr], disk.lf[addr]
        scored.append((-score_of(*factors, hp, enabled), addr))
    scored.sort()
    addrs = [a for _, a in scored]
    return addrs if count is None else addrs[:count]


def reference_digest(disk):
    """The fingerprint Disk.snapshot_sha256 must give, rebuilt value by
    value: the canonical JSON (sorted keys, no whitespace) of [format,
    version, geometry, coefficients, clock]; then hf, uf, sf, lf, the used
    mask and the owner array, each block's value packed little-endian (int64,
    float64 or one byte of 0 or 1)."""
    def encode(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()

    h = hashlib.sha256(encode([
        SNAPSHOT_FORMAT, SNAPSHOT_VERSION, disk.geometry.to_dict(),
        list(disk.hyperparams.as_tuple()), disk.clock,
    ]))
    for values, fmt in (
        (disk.hf, "<q"), (disk.uf, "<q"), (disk.sf, "<d"), (disk.lf, "<q"),
        (disk.used_mask, "<?"), (disk.owner, "<q"),
    ):
        for value in values.tolist():
            h.update(struct.pack(fmt, value))
    return h.hexdigest()


def assert_conservation(fs):
    """Used plus free blocks cover the disk, and the live files' block lists
    partition the used addresses exactly: no block owned twice, none lost.
    The recoverable index holds too."""
    disk = fs.disk
    total = disk.geometry.total_blocks
    used = np.flatnonzero(disk.used_mask)
    assert len(used) + fs.free_blocks() == total
    owned = np.fromiter(chain.from_iterable(f.block_list for f in fs.live_files()), dtype=np.intp)
    assert np.array_equal(np.sort(owned), used)
    assert_recoverable_index(fs)


def assert_recoverable_index(fs):
    """Claim reads a prior owner's blocks from the file layer's recoverable
    table, so every owner an unused block names is a key of it whose
    record's list holds the block; a used block sits on the list of the live
    file it names. Every recoverable file still has a block on its lineage,
    or it would be obsolete. The table is no block state, so no digest
    shows it wrong: this is what keeps claim's index honest."""
    disk = fs.disk
    owner = disk.owner
    live = fs.live_files()
    ids = [f.id for f in live] + list(fs._recoverable)
    lists = [f.block_list for f in live] + [rec.block_list for rec in fs._recoverable.values()]
    # every (file X, block on X's list) pair, checked in one pass: a block
    # is covered when it sits on the list of the file it names, a used block
    # only by a live file and an unused one only by a recoverable file
    sizes = [len(b) for b in lists]
    listed = np.fromiter(chain.from_iterable(lists), dtype=np.intp)
    names = np.repeat(np.array(ids, dtype=np.int64), sizes)
    is_live = np.repeat(np.arange(len(ids)) < len(live), sizes)
    hit = (owner[listed] == names) & (disk.used_mask[listed] == is_live)
    covered = np.zeros(owner.size, dtype=bool)
    covered[listed[hit]] = True
    missing = np.flatnonzero(covered != (owner != NO_OWNER))
    assert missing.size == 0, f"blocks off their owner's list: {missing.tolist()}"
    intact = set(names[hit & ~is_live].tolist())
    assert intact == set(fs._recoverable), (
        f"recoverable files with no block left: {sorted(set(fs._recoverable) - intact)}"
    )


class OpEvents:
    """The events of each op a file system has executed, read off the op and
    the file records: one create, delete or access event (a read and a write
    are both one access), then the op's spatial pass. A delete's path has
    already left the namespace, so the records are also kept here by path."""

    def __init__(self, fs):
        self.fs = fs
        self._by_path = {f.path: f for f in fs.live_files()}

    def of(self, op):
        if op.kind == "create":
            rec = self._by_path[op.path] = self.fs.lookup(op.path)
            event = ("create", rec.id, rec.type_class, tuple(rec.block_list), rec.size_bytes)
        elif op.kind == "delete":
            rec = self._by_path.pop(op.path)
            event = ("delete", rec.id, rec.type_class, tuple(rec.block_list))
        else:
            event = ("access", self.fs.lookup(op.path).id)
        return event, ("spatial",)


class FactorOracle:
    """Replays the factor transition rules against the events of each executed
    op, as OpEvents reads them.

    The oracle keeps its own copies of hf/uf/sf/lf, the used set, and block
    lineage, and applies each rule literally as the events arrive:

      create: per claimed block in claim order, first bump hf on every
        still-unused same-lineage sibling of the block's previous owner, then
        claim it (hf=1, uf=1, sf=0) and install the new lineage.
      delete: per freed block, hf=0 and the owning class's linkage bit;
        uf keeps its last value.
      access: +1 uf on every block the file currently owns.
      spatial: Jacobi pass, each unused block's sf becomes the mean pre-pass
        score of its neighbors (clamped), used blocks 0. Computed here with
        deliberately different array operations than the engine uses.
    """

    def __init__(self, geometry, hp, invert_link_rule=False):
        n = geometry.total_blocks
        self.geometry = geometry
        self.hp = hp
        self.invert = invert_link_rule
        self.hf = np.zeros(n)
        self.uf = np.zeros(n)
        self.sf = np.zeros(n)
        self.lf = np.ones(n)
        self.used = np.zeros(n, dtype=bool)
        self.lineage = [None] * n  # (file_id, sibling tuple) or None
        self.file_blocks = {}  # live file id -> block tuple

    def apply(self, event):
        kind = event[0]
        if kind == "create":
            self._create(*event[1:])
        elif kind == "delete":
            self._delete(*event[1:])
        elif kind == "access":
            self._access(event[1])
        elif kind == "spatial":
            self._spatial()
        else:
            raise AssertionError(f"unknown event {event!r}")

    def apply_all(self, events):
        for ev in events:
            self.apply(ev)

    def _create(self, fid, type_class, addrs, size_bytes):
        for addr in addrs:
            prior = self.lineage[addr]
            if prior is not None:
                owner, sibs = prior
                for sib in sibs:
                    if sib == addr or self.used[sib]:
                        continue
                    other = self.lineage[sib]
                    if other is None or other[0] != owner:
                        continue
                    self.hf[sib] += 1
            self.used[addr] = True
            self.hf[addr] = 1
            self.uf[addr] = 1
            self.sf[addr] = 0.0
            self.lineage[addr] = (fid, tuple(addrs))
        self.file_blocks[fid] = tuple(addrs)

    def _delete(self, fid, type_class, addrs):
        lf_value = 0.0 if (type_class == "partial") != self.invert else 1.0
        for addr in addrs:
            self.used[addr] = False
            self.hf[addr] = 0
            self.lf[addr] = lf_value
        self.file_blocks.pop(fid, None)

    def _access(self, fid):
        for addr in self.file_blocks[fid]:
            self.uf[addr] += 1

    def _score_array(self):
        s = self.hp.hist * self.hf - self.hp.usage * self.uf
        if self.geometry.neighborhood.kind != NONE:
            s = s + self.hp.spatial * self.sf
        return s + self.hp.link * self.lf

    def _spatial(self):
        nb = self.geometry.neighborhood
        if nb.kind == NONE:
            return
        pf = self._score_array()
        n = self.geometry.total_blocks
        if nb.kind == GRID_ROW:
            cols = self.geometry.cols
            if cols == 1:
                new_sf = np.zeros(n)
            else:
                grid = pf.reshape(self.geometry.rows, cols)
                totals = grid @ np.ones(cols)
                new_sf = ((totals[:, None] - grid) / (cols - 1)).ravel()
        elif nb.kind == CONTIGUOUS:
            acc = np.zeros(n)
            cnt = np.zeros(n)
            for d in range(1, nb.span + 1):
                acc[d:] += pf[:-d]
                cnt[d:] += 1.0
                acc[:-d] += pf[d:]
                cnt[:-d] += 1.0
            new_sf = np.where(cnt > 0, acc / np.maximum(cnt, 1.0), 0.0)
        else:
            raise AssertionError(f"unknown neighborhood {nb.kind!r}")
        np.clip(new_sf, -SF_LIMIT, SF_LIMIT, out=new_sf)
        new_sf[self.used] = 0.0
        self.sf = new_sf

    def assert_matches(self, disk, context=""):
        assert np.array_equal(self.hf, disk.hf), f"hf mismatch {context}"
        assert np.array_equal(self.uf, disk.uf), f"uf mismatch {context}"
        assert np.array_equal(self.lf, disk.lf), f"lf mismatch {context}"
        assert np.allclose(self.sf, disk.sf, rtol=0.0, atol=1e-9), f"sf mismatch {context}"
        assert np.array_equal(self.used, disk.used_mask), f"used-set mismatch {context}"


class ClaimHistoryRecovery:
    """Recovery reconstructed purely from the claim/delete order of the
    events read off each executed op (OpEvents): a block survives for a file
    exactly when no later create claimed it after that file's delete. The
    disk's owner array is never read."""

    def __init__(self, block_size_bytes):
        self.bs = block_size_bytes
        self.claimed_at = {}  # addr -> event position of last claim
        self.created = {}  # fid -> (type_class, addrs, size_bytes)
        self.deleted_at = {}  # fid -> event position
        self.position = 0

    def apply(self, event):
        kind = event[0]
        if kind == "create":
            fid, type_class, addrs, size_bytes = event[1:]
            self.created[fid] = (type_class, tuple(addrs), size_bytes)
            for addr in addrs:
                self.claimed_at[addr] = self.position
        elif kind == "delete":
            self.deleted_at[event[1]] = self.position
        self.position += 1

    def apply_all(self, events):
        for ev in events:
            self.apply(ev)

    def surviving(self, fid):
        type_class, addrs, size_bytes = self.created[fid]
        gone = self.deleted_at[fid]
        return frozenset(a for a in addrs if self.claimed_at[a] < gone)

    def rr(self, fid):
        type_class, addrs, size_bytes = self.created[fid]
        alive = self.surviving(fid)
        if type_class == "linked":
            return 1.0 if addrs and len(alive) == len(addrs) else 0.0
        if not addrs or addrs[0] not in alive or size_bytes <= 0:
            return 0.0
        data_alive = sum(1 for a in addrs[1:] if a in alive)
        return min(data_alive * self.bs, size_bytes) / size_bytes


def recovery_of(disk, f):
    """(surviving blocks, metadata intact, recovered bytes, rr) of one deleted
    or obsolete file, block by block: a block survives while it is unused and
    the owner array still names the file. Nothing comes back without the
    metadata block; a linked file comes back whole or not at all, a partial
    one by its surviving data blocks, at most its size."""
    if f.status == USED:
        raise ValueError(f"live file {f.path} has nothing to recover")
    alive = frozenset(
        a for a in f.block_list if not disk.used_mask[a] and disk.owner[a] == f.id
    )
    meta = bool(f.block_list) and f.block_list[0] in alive
    if not meta:
        return alive, False, 0, 0.0
    if f.type_class == LINKED:
        whole = len(alive) == len(f.block_list)
        return alive, True, f.size_bytes if whole else 0, 1.0 if whole else 0.0
    if f.size_bytes <= 0:
        return alive, True, 0, 0.0
    data = sum(1 for a in f.block_list[1:] if a in alive)
    recovered = min(data * disk.geometry.block_size_bytes, f.size_bytes)
    return alive, True, recovered, recovered / f.size_bytes


def weighted_rr(disk, files) -> float:
    """Usage-weighted recovery percentage over deleted and obsolete files,
    measured against current disk state, scanning every file of files in
    order. An obsolete file is measured like the rest, where the engine
    takes its ratio to be 0 without reading it.
    recovery.retired_rr(fs) must equal weighted_rr(fs.disk,
    fs.deleted_files()) to the bit."""
    num = 0.0
    den = 0
    for f in files:
        num += recovery_of(disk, f)[3] * f.uf_counter
        den += f.uf_counter
    return 100.0 * num / den if den else 0.0


def flood_blocks(total_blocks, target, seed, min_blocks, max_blocks) -> int:
    """Blocks, data plus metadata, that a compare cell's flood writes on a
    disk of total_blocks whose primaries are all deleted: the cell's seeded
    size draws replayed, each clipped to the data blocks left to write and to
    the free blocks less one for metadata, until target data blocks are
    written or fewer than two blocks are free. Free space is the disk less
    what the flood wrote, wherever a policy put it, so no draw depends on
    placement."""
    rng = random.Random(seed)
    written = used = 0
    while written < target and total_blocks - used >= 2:
        size = rng.randint(min_blocks, max_blocks)
        size = max(min(size, target - written, total_blocks - used - 1), 1)
        written += size
        used += size + 1
    return used


def clairvoyant_rr_bound(total_blocks, count, data_blocks, type_class, flood) -> float:
    """The highest usage-weighted recovery percentage any placement of flood
    secondary blocks can leave to count deleted primaries of equal usage,
    each a metadata block and data_blocks data blocks, on a disk of
    total_blocks. What of the flood does not fit in the blocks no primary
    held lands on primary blocks, so at most survivors primary blocks stay.
    They recover the most packed into as few primaries as they fill, since
    each primary needs its metadata block; a linked primary comes back only
    whole."""
    per = data_blocks + 1
    span = count * per
    survivors = span - max(flood - (total_blocks - span), 0)
    whole, rest = divmod(survivors, per)
    if type_class == LINKED:
        return 100.0 * whole / count
    return 100.0 * (whole * data_blocks + max(rest - 1, 0)) / (count * data_blocks)
