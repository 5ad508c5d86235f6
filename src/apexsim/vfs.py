"""Minimal file layer over the disk model.

The namespace is flat: a path is "/" plus one name, and one dict maps each
live path to its file record; there are no directories, and no live file has
a position. A file record carries only its file's own facts.
Files are fixed-size at creation and sized in whole blocks: block 0 of every
non-empty file is its metadata block, the rest carry data in order. A file's
block list is the np.intp index array its policy picked, made read-only at
the create: every read of the disk indexes with it as it is, and a copied
record shares it.
No bytes are stored: a block's content is named by its lineage owner, so a
write of a live file is one use of it, as a read is. Deletion is logical -
blocks are freed but their lineage stays put until someone allocates over
them. A create is one disk.claim of the file's block list and a delete one
disk.release.
A deleted file turns obsolete at the one moment nothing of it can come back:
when a create's claim takes the last block on its lineage, or at its delete
if it has no blocks. The deleted files that are not yet obsolete are kept
apart, so that recovery is measured over those files only; every owner an
unused block names is one of them, and this table is where a claim reads a
prior owner's blocks. The usage of every retired file is kept as a running
total.
The file layer owns the file records, the usage bookkeeping of reads and
writes included; of this package it imports the disk module, and the model
module's ready_operand for the usage bump.
"""

from dataclasses import dataclass

import numpy as np

from .disk import claim, release
from .model import ready_operand

_ONE_USE = ready_operand(1, np.int64)  # usage's bump on each block of a file

LINKED = "linked"
PARTIAL = "partial"

USED = "used"
DELETED = "deleted"
OBSOLETE = "obsolete"

# Format classes by extension: linked formats are all-or-nothing at recovery
# time, partial formats recover block by block once their metadata survives.
LINKED_EXTENSIONS = {".exe", ".o", ".zip"}
PARTIAL_EXTENSIONS = {".txt", ".jpg", ".mp3", ".avi", ".pdf"}


def type_class_for_path(path: str) -> str:
    # The text from the last dot on is the extension when the name has one;
    # otherwise it holds a "/" or is one character, and matches no extension.
    # Anything without a known linkage table recovers per block.
    return LINKED if path[path.rfind("."):].lower() in LINKED_EXTENSIONS else PARTIAL


@dataclass(eq=False, slots=True)
class FileRecord:
    id: int
    path: str
    block_list: np.ndarray  # read-only np.intp addresses, metadata block first
    status: str = USED
    uf_counter: int = 1  # creation counts as the first use

    @property
    def type_class(self) -> str:
        return type_class_for_path(self.path)

    @property
    def data_blocks(self) -> int:
        return max(len(self.block_list) - 1, 0)

    def copy(self) -> "FileRecord":
        """A record with the same fields; the block list, read-only, is
        shared."""
        new = object.__new__(FileRecord)
        new.id = self.id
        new.path = self.path
        new.status = self.status
        new.block_list = self.block_list
        new.uf_counter = self.uf_counter
        return new


def check_path(path) -> None:
    """Raise unless path is "/" plus one name.

    A path that is not a string, not absolute, or that has an empty, "." or
    ".." component is malformed (ValueError). A well-formed path with more
    than one component names a directory, and none exists (FileNotFoundError).
    """
    if not isinstance(path, str) or not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    parts = path[1:].split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"malformed path: {path!r}")
    if len(parts) > 1:
        raise FileNotFoundError(f"no such directory: {path.rsplit('/', 1)[0]}")


class FileSystem:
    """Flat file table, bound to one disk and one allocation policy."""

    def __init__(self, disk, policy, invert_link_rule: bool = False):
        self.disk = disk
        self.policy = policy
        self.invert_link_rule = invert_link_rule
        self._live: dict[str, FileRecord] = {}  # the namespace: live path -> record
        self._retired: list[FileRecord] = []  # deleted and obsolete files, in delete order
        self._recoverable: dict[int, FileRecord] = {}  # id -> deleted file, in delete order
        self.retired_usage = 0  # sum of uf_counter over _retired; a retired file never gains usage
        self._next_id = 1

    def copy(self) -> "FileSystem":
        """An independent file system on a copy of the disk. Every file record
        is copied, and the indexes are rebuilt from the copies: the namespace
        maps each live path to its copied record, and the recoverable files
        are the copied retired ones still recoverable, in delete order.
        The policy copies itself (see policies), so a seeded policy goes on
        with the same stream. Block lists stay shared between the twin
        records: each is a read-only array."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.disk = self.disk.copy()
        new.policy = self.policy.copy()
        new._live = {path: rec.copy() for path, rec in self._live.items()}
        new._retired = [rec.copy() for rec in self._retired]
        new._recoverable = {rec.id: rec for rec in new._retired if rec.id in self._recoverable}
        return new

    # -- queries -------------------------------------------------------------

    def live_files(self) -> list[FileRecord]:
        return list(self._live.values())

    def deleted_files(self) -> list[FileRecord]:
        """Deleted and obsolete files, in delete order."""
        return list(self._retired)

    def recoverable_files(self) -> list[FileRecord]:
        """Deleted files not yet obsolete, in delete order."""
        return list(self._recoverable.values())

    def lookup(self, path: str) -> FileRecord:
        try:
            return self._live[path]
        except (KeyError, TypeError):
            check_path(path)  # a malformed path is a ValueError, not a miss
            raise FileNotFoundError(path) from None

    def free_blocks(self) -> int:
        return self.disk.geometry.total_blocks - int(np.count_nonzero(self.disk.used_mask))

    # -- operations ----------------------------------------------------------

    def create_file(self, path, data_blocks) -> FileRecord:
        """Allocate and install a new file of data_blocks data blocks, of the
        format class its path's extension names (type_class_for_path). It
        claims its metadata block too, or no block at all when data_blocks
        is 0.

        Validation happens before any mutation, so a failed create leaves the
        disk untouched; a create that does not fit fails in the policy's
        select (DiskFullError). Blocks are claimed in ranking order; the first becomes
        the metadata block. Claiming blocks with live lineage adds churn to
        their prior owners' still-unused blocks (see disk.claim); a prior
        owner left with none of them becomes obsolete.
        """
        check_path(path)
        if path in self._live:
            raise FileExistsError(path)
        if data_blocks < 0:
            raise ValueError("negative size")
        addrs = self.policy.select(self.disk, data_blocks + 1 if data_blocks else 0)
        addrs.flags.writeable = False
        fid = self._next_id
        self._next_id += 1
        emptied = claim(self.disk, addrs, fid, lambda prior: self._recoverable[prior].block_list)
        for owner in emptied:
            self._recoverable.pop(owner).status = OBSOLETE

        rec = self._live[path] = FileRecord(fid, path, addrs)
        return rec

    def delete_file(self, path: str) -> FileRecord:
        """Logical delete: free the blocks, freeze usage, keep lineage.

        No overwrite event fires here; churn only moves when new data lands.
        Freed blocks take the linkage flag of this file's format class. A file
        with no blocks has nothing to recover, so it is obsolete at once.
        """
        rec = self.lookup(path)
        lf_value = 0 if (rec.type_class == PARTIAL) != self.invert_link_rule else 1
        release(self.disk, rec.block_list, lf_value)
        if len(rec.block_list):
            rec.status = DELETED
            self._recoverable[rec.id] = rec
        else:
            rec.status = OBSOLETE
        del self._live[path]
        self._retired.append(rec)
        self.retired_usage += rec.uf_counter
        return rec

    def access(self, path: str) -> FileRecord:
        """One read of a file: record the use."""
        rec = self.lookup(path)
        self._use(rec)
        return rec

    def write_file(self, path: str, block: int) -> None:
        """Overwrite one data block of the file, numbered from 0 after the
        metadata block; files never grow here.

        The block is checked, then the write is one use of the file, as a read
        is: the blocks' lineage does not move, so no block state but usage
        does.
        """
        rec = self.lookup(path)
        if not 0 <= block < rec.data_blocks:
            raise ValueError(f"write of data block {block} outside {rec.data_blocks} data blocks")
        self._use(rec)

    # -- internals -----------------------------------------------------------

    def _use(self, rec: FileRecord) -> None:
        """One read or write of a live file: usage bumps once on the record
        and on each of its blocks."""
        self.disk.uf[rec.block_list] += _ONE_USE
        rec.uf_counter += 1
