"""Independent reference implementations the test suite checks the engine
against, one per property. Everything here recomputes from first
principles: the whole device (factors, used set, owners) and the file
layer's live and recoverable ids and records are modelled from the events
that OpEvents reads off each executed op, and rankings come from a full
sort. The recovery rule (recovered_share) is written once and fed two
sources of survival: claim history, which never reads the owner array, and
the used mask and owner array read file by file and block by block instead
of in one batch. The recovery aggregate scans every retired file instead of
only the recoverable ones. The compare bound knows nothing of placement: it
counts blocks. The device digest is rebuilt one value at a time with struct
and json, never from an array's bytes.
"""

import hashlib
import json
import random
import struct

import numpy as np

from apexsim.disk import NO_OWNER, SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from apexsim.model import CONTIGUOUS, GRID_ROW, NONE, SF_LIMIT
from apexsim.vfs import DELETED, LINKED, USED


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
            event = ("create", rec.id, rec.type_class, tuple(rec.block_list.tolist()))
        elif op.kind == "delete":
            rec = self._by_path.pop(op.path)
            event = ("delete", rec.id, rec.type_class, tuple(rec.block_list.tolist()))
        else:
            event = ("access", self.fs.lookup(op.path).id)
        return event, ("spatial",)


class FactorOracle:
    """A model of the whole device and the file layer's indexes, replayed
    from the events of each executed op, as OpEvents reads them: the one
    reference for the factors, the used set, the owners and the live and
    recoverable records (assert_matches).

    The model keeps its own hf/uf/sf/lf, used set and owner array, each
    file's blocks, the live ids, and the recoverable ids in delete order.
    It applies each rule literally as the events arrive:

      create: the blocks are distinct and unused. Per claimed block in claim
        order, first bump hf on every still-unused block of its owner's list
        that the owner still names; an owner left with none of them stops
        being recoverable. Then claim it (hf=1, uf=1, sf=0, owner the file).
      delete: the file frees exactly the blocks it claimed, and owns them.
        Per freed block, hf=0 and the owning class's linkage bit; uf keeps
        its last value and the owner stays. A file with blocks turns
        recoverable.
      access: +1 uf on every block the file owns.
      spatial: Jacobi pass, each unused block's sf becomes the mean pre-pass
        score of its neighbors (clamped), used blocks 0. Computed here with
        deliberately different array operations than the engine uses.
    """

    def __init__(self, geometry, hp, invert_link_rule=False):
        n = geometry.total_blocks
        self.geometry = geometry
        self.hp = hp
        self.invert = invert_link_rule
        self.hf = np.zeros(n, dtype=np.int64)
        self.uf = np.zeros(n, dtype=np.int64)
        self.sf = np.zeros(n)
        self.lf = np.ones(n, dtype=np.int64)
        self.used = np.zeros(n, dtype=bool)
        self.owner = np.full(n, NO_OWNER, dtype=np.int64)
        self.blocks = {}  # file id -> its block addresses, for every file created
        self.live = set()
        self.recoverable = {}  # deleted ids with a block on their lineage, in delete order
        self._rules = {"create": self._create, "delete": self._delete,
                       "access": self._access, "spatial": self._spatial}

    def apply(self, event):
        kind, *args = event
        rule = self._rules.get(kind)
        assert rule is not None, f"unknown event {event!r}"
        rule(*args)

    def apply_all(self, events):
        for ev in events:
            self.apply(ev)

    def _create(self, fid, type_class, addrs):
        assert len(set(addrs)) == len(addrs) and not any(self.used[a] for a in addrs), (
            f"file {fid} claims a used or repeated block: {addrs}"
        )
        for addr in addrs:
            prior = int(self.owner[addr])
            if prior != NO_OWNER:
                left = [b for b in self.blocks[prior]
                        if b != addr and not self.used[b] and self.owner[b] == prior]
                for b in left:
                    self.hf[b] += 1
                if not left:
                    del self.recoverable[prior]
            self.used[addr] = True
            self.hf[addr] = 1
            self.uf[addr] = 1
            self.sf[addr] = 0.0
            self.owner[addr] = fid
        self.blocks[fid] = list(addrs)
        self.live.add(fid)

    def _delete(self, fid, type_class, addrs):
        owned = all(self.used[a] and self.owner[a] == fid for a in addrs)
        assert owned and list(addrs) == self.blocks[fid], (
            f"file {fid} frees blocks other than the ones it owns: {addrs}"
        )
        lf_value = 0 if (type_class == "partial") != self.invert else 1
        for addr in addrs:
            self.used[addr] = False
            self.hf[addr] = 0
            self.lf[addr] = lf_value
        self.live.remove(fid)
        if addrs:
            self.recoverable[fid] = None

    def _access(self, fid):
        for addr in self.blocks[fid]:
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

    def assert_matches(self, fs, context=""):
        """The device's arrays equal the model's byte for byte, sf to within
        1e-9 on every block (a NaN or an infinity fails); the live ids, each
        once, so no record sits under two paths, and the recoverable ids in
        delete order too. The namespace files each live record under its own
        path. Every record the two indexes hold has its id, its status
        and the blocks its file claimed, which is also what keeps claim's
        index honest: the table is no block state, so no digest shows it
        wrong."""
        disk = fs.disk
        for name, model in (("hf", self.hf), ("uf", self.uf), ("lf", self.lf),
                            ("used_mask", self.used), ("owner", self.owner)):
            assert getattr(disk, name).tobytes() == model.tobytes(), f"{name} mismatch {context}"
        assert np.abs(self.sf - disk.sf).max() <= 1e-9, f"sf mismatch {context}"
        live, recoverable = fs._live, fs._recoverable
        assert list(recoverable) == list(self.recoverable), f"recoverable ids mismatch {context}"
        assert len(live) == len(self.live) and {f.id for f in live.values()} == self.live, (
            f"live ids mismatch {context}"
        )
        assert all(path == rec.path for path, rec in live.items()), f"namespace mismatch {context}"
        blocks = self.blocks
        for rec in live.values():
            assert rec.status == USED and rec.block_list.tolist() == blocks[rec.id], (
                f"record mismatch, file {rec.id} {context}"
            )
        for fid, rec in recoverable.items():
            found = rec.id, rec.status
            assert found == (fid, DELETED) and rec.block_list.tolist() == blocks[fid], (
                f"record mismatch, file {fid} {context}"
            )


class ClaimHistoryRecovery:
    """Recovery reconstructed purely from the claim/delete order of the
    events read off each executed op (OpEvents): a block survives for a file
    exactly when no later create claimed it after that file's delete. The
    disk's owner array is never read."""

    def __init__(self):
        self.claimed_at = {}  # addr -> event position of last claim
        self.created = {}  # fid -> (type_class, addrs)
        self.deleted_at = {}  # fid -> event position
        self.position = 0

    def apply(self, event):
        kind = event[0]
        if kind == "create":
            fid, type_class, addrs = event[1:]
            self.created[fid] = (type_class, tuple(addrs))
            for addr in addrs:
                self.claimed_at[addr] = self.position
        elif kind == "delete":
            self.deleted_at[event[1]] = self.position
        self.position += 1

    def apply_all(self, events):
        for ev in events:
            self.apply(ev)

    def surviving(self, fid):
        type_class, addrs = self.created[fid]
        gone = self.deleted_at[fid]
        return frozenset(a for a in addrs if self.claimed_at[a] < gone)

    def rr(self, fid):
        type_class, addrs = self.created[fid]
        return recovered_share(type_class, addrs, self.surviving(fid))


def recovered_share(type_class, addrs, alive):
    """The recovery rule, given which of a file's blocks survive: nothing
    comes back without the metadata block (the first); a linked file comes
    back whole or not at all, a partial one by the share of its data blocks
    (every block past the first) that survive."""
    if not len(addrs) or addrs[0] not in alive:
        return 0.0
    if type_class == LINKED:
        return 1.0 if len(alive) == len(addrs) else 0.0
    return sum(1 for a in addrs[1:] if a in alive) / (len(addrs) - 1)


def recovery_of(disk, f):
    """(surviving blocks, metadata intact, rr) of one deleted or obsolete
    file, block by block: a block survives while it is unused and the owner
    array still names the file."""
    if f.status == USED:
        raise ValueError(f"live file {f.path} has nothing to recover")
    blocks = f.block_list
    alive = frozenset(a for a in blocks if not disk.used_mask[a] and disk.owner[a] == f.id)
    meta = len(blocks) > 0 and blocks[0] in alive
    return alive, meta, recovered_share(f.type_class, blocks, alive)


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
        num += recovery_of(disk, f)[2] * f.uf_counter
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
