"""File layer: create, delete, access, write, obsolescence."""

import numpy as np
import pytest

from apexsim.disk import NO_OWNER
from apexsim.errors import DiskFullError
from apexsim.policies import make_policy
from apexsim.recovery import measure_recovery, recovery_table
from apexsim.vfs import (
    DELETED,
    LINKED,
    OBSOLETE,
    PARTIAL,
    USED,
    FileRecord,
    FileSystem,
    type_class_for_path,
)

from apexsim.workload import WorkloadConfig, replay_trace, run_simulation

from conftest import ScriptedPolicy, make_disk, make_fs


def test_extension_table():
    assert type_class_for_path("/bin/tool.exe") == LINKED
    assert type_class_for_path("/a/b.o") == LINKED
    assert type_class_for_path("/a/b.zip") == LINKED
    for ext in (".txt", ".jpg", ".mp3", ".avi", ".pdf"):
        assert type_class_for_path(f"/x{ext}") == PARTIAL
    assert type_class_for_path("/README") == PARTIAL
    assert type_class_for_path("/weird.xyz") == PARTIAL
    assert type_class_for_path("/TOOL.EXE") == LINKED
    # only the name's own extension counts
    for path in ("/a.zip/b", "/x", "/o", "/a.", "/tool.exe.txt"):
        assert type_class_for_path(path) == PARTIAL


def test_create_claims_metadata_plus_data_blocks():
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.txt", 3)
    assert rec.block_list.tolist() == [0, 1, 2, 3]
    assert rec.status == USED
    assert rec.type_class == PARTIAL
    assert rec.uf_counter == 1
    for addr in rec.block_list:
        assert (fs.disk.hf[addr], fs.disk.uf[addr]) == (1.0, 1.0)
    assert fs.live_files() == [rec] and not fs.recoverable_files()
    assert fs.free_blocks() == 12 and np.flatnonzero(fs.disk.used_mask).tolist() == [0, 1, 2, 3]
    assert fs.disk.owner.tolist() == [rec.id] * 4 + [NO_OWNER] * 12


def test_create_zero_byte_file_claims_nothing():
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/empty.txt", 0)
    assert rec.block_list.tolist() == []
    assert fs.free_blocks() == 16
    assert fs.access("/empty.txt") is rec
    assert rec.uf_counter == 2


@pytest.mark.parametrize("policy", ["apex", "first-fit", "random"])
def test_failed_create_leaves_disk_untouched(policy):
    """The policy's select raises before it draws or claims anything, so the
    next create picks what it would have picked had the failed one not run;
    for random that means the stream did not move."""
    fs = make_fs(rows=4, cols=4, policy=make_policy(policy, seed=7))
    fs.create_file("/a.txt", 10)
    before, kept = fs.disk.snapshot_sha256(), [f.id for f in fs.recoverable_files()]
    twin = fs.copy()
    with pytest.raises(DiskFullError):
        fs.create_file("/b.txt", 10)
    assert fs.disk.snapshot_sha256() == before
    assert [f.id for f in fs.recoverable_files()] == kept
    assert fs.free_blocks() == 5
    rec, want = fs.create_file("/c.txt", 2), twin.create_file("/c.txt", 2)
    assert (rec.id, rec.block_list.tolist()) == (want.id, want.block_list.tolist())


def test_create_validation_errors():
    fs = make_fs(rows=4, cols=4)
    fs.create_file("/a.txt", 1)
    with pytest.raises(FileExistsError):
        fs.create_file("/a.txt", 1)
    with pytest.raises(ValueError):
        fs.create_file("/", 1)
    with pytest.raises(ValueError):
        fs.create_file("/neg.txt", -1)
    with pytest.raises(FileNotFoundError):
        fs.create_file("/nodir/x.txt", 1)


def test_flat_namespace():
    """A path is "/" plus one name: a nested path names a directory that
    cannot exist, and there is no directory API."""
    fs = make_fs(rows=4, cols=4)
    before, kept = fs.disk.snapshot_sha256(), [f.id for f in fs.recoverable_files()]
    with pytest.raises(FileNotFoundError):
        fs.create_file("/a/b.txt", 1)
    assert fs.disk.snapshot_sha256() == before
    assert [f.id for f in fs.recoverable_files()] == kept
    rec = fs.create_file("/a.txt", 1)
    assert fs.lookup("/a.txt") is rec
    assert rec.path == "/a.txt"
    with pytest.raises(FileNotFoundError):
        fs.lookup("/a.txt/b.txt")
    for path in ("a.txt", 5, ["/a.txt"], "/", "/.", "/..", "//a.txt"):
        with pytest.raises(ValueError):
            fs.lookup(path)
    assert not hasattr(fs, "mkdir")
    assert not hasattr(fs, "root")


def test_delete_frees_blocks_and_keeps_lineage():
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.txt", 2)
    fs.access("/a.txt")
    fs.delete_file("/a.txt")
    assert rec.status == DELETED
    for addr in rec.block_list:
        assert not fs.disk.used_mask[addr]
        assert fs.disk.hf[addr] == 0.0
        assert fs.disk.uf[addr] == 2.0  # frozen at its live value
        assert fs.disk.owner[addr] == rec.id
    # fully intact right after the delete
    assert measure_recovery(fs.disk, [rec]) == [([True, True, True], 1.0)]


def test_delete_linkage_flag_per_type_class():
    fs = make_fs(rows=8, cols=8)
    partial = fs.create_file("/a.txt", 1)
    linked = fs.create_file("/b.exe", 1)
    fs.delete_file("/a.txt")
    fs.delete_file("/b.exe")
    assert all(fs.disk.lf[a] == 0.0 for a in partial.block_list)
    assert all(fs.disk.lf[a] == 1.0 for a in linked.block_list)


def test_delete_linkage_flag_inverted_rule():
    fs = make_fs(rows=8, cols=8, invert_link_rule=True)
    partial = fs.create_file("/a.txt", 1)
    linked = fs.create_file("/b.exe", 1)
    fs.delete_file("/a.txt")
    fs.delete_file("/b.exe")
    assert all(fs.disk.lf[a] == 1.0 for a in partial.block_list)
    assert all(fs.disk.lf[a] == 0.0 for a in linked.block_list)


def test_delete_twice_and_missing_path():
    fs = make_fs(rows=4, cols=4)
    fs.create_file("/a.txt", 1)
    fs.delete_file("/a.txt")
    with pytest.raises(FileNotFoundError):
        fs.delete_file("/a.txt")
    with pytest.raises(FileNotFoundError):
        fs.delete_file("/ghost.txt")


def test_path_reusable_after_delete():
    fs = make_fs(rows=4, cols=4)
    first = fs.create_file("/a.txt", 1)
    fs.delete_file("/a.txt")
    second = fs.create_file("/a.txt", 1)
    assert second.id != first.id
    assert fs.lookup("/a.txt").id == second.id


def test_read_round_trip_and_usage_bump():
    """A read is one use of the file: usage moves on every block and on the
    record."""
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.bin", 2)  # metadata + 2 data blocks
    fs.create_file("/b.bin", 1)
    assert fs.access("/a.bin") is fs.lookup("/a.bin") is rec
    assert rec.uf_counter == 2
    assert fs.disk.uf.tolist() == [2, 2, 2, 1, 1] + [0] * 11
    fs.delete_file("/a.bin")
    with pytest.raises(FileNotFoundError):
        fs.access("/a.bin")


def test_write_outside_size_rejected():
    """A write names one of the file's data blocks, numbered from 0: a
    negative block, one past the last, or any block of a file with no
    blocks is rejected and moves nothing."""
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.bin", 2)
    fs.create_file("/empty.bin", 0)
    before, kept = fs.disk.snapshot_sha256(), [f.id for f in fs.recoverable_files()]
    for path, block in (("/a.bin", -1), ("/a.bin", 2), ("/a.bin", 4097), ("/empty.bin", 0)):
        with pytest.raises(ValueError):
            fs.write_file(path, block)
    assert fs.disk.snapshot_sha256() == before
    assert [f.id for f in fs.recoverable_files()] == kept
    assert rec.uf_counter == 1


def test_obsolete_when_a_create_takes_the_last_lineage_block():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1], [0, 1], [2, 3]))
    a = fs.create_file("/a.txt", 1)
    fs.delete_file("/a.txt")
    assert a.status == DELETED
    fs.create_file("/b.txt", 1)  # lands exactly on a's old blocks
    assert a.status == OBSOLETE
    c = fs.create_file("/c.txt", 1)
    fs.delete_file("/c.txt")
    assert c.status == DELETED  # c still fully recoverable
    assert a.status == OBSOLETE


def test_obsolete_partial_survivor_stays_deleted():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2], [1, 3]))
    a = fs.create_file("/a.txt", 2)
    fs.delete_file("/a.txt")
    fs.create_file("/b.txt", 1)  # takes block 1, leaves 0 and 2
    assert a.status == DELETED


def test_obsolete_status_of_every_retired_file_in_delete_order():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy(
        [], [0, 1], [2, 3, 4], [5, 6], [0, 1], [3, 7]))
    empty = fs.create_file("/empty.txt", 0)
    gone = fs.create_file("/gone.txt", 1)
    partial = fs.create_file("/partial.txt", 2)
    kept = fs.create_file("/kept.txt", 1)
    for rec in (kept, empty, partial, gone):
        fs.delete_file(rec.path)
    assert empty.status == OBSOLETE  # no blocks: nothing to recover from the start
    assert (gone.status, partial.status, kept.status) == (DELETED, DELETED, DELETED)
    b = fs.create_file("/b.txt", 1)  # overwrites all of gone
    c = fs.create_file("/c.txt", 1)  # takes block 3 of partial, leaves 2 and 4
    assert (empty.status, gone.status) == (OBSOLETE, OBSOLETE)
    assert (partial.status, kept.status) == (DELETED, DELETED)
    assert fs.deleted_files() == [kept, empty, partial, gone]  # delete order
    assert fs.recoverable_files() == [kept, partial]
    assert fs.retired_usage == 4
    # no block names empty or gone, so the recoverable table keeps neither
    owners = [b.id, b.id, partial.id, c.id, partial.id, kept.id, kept.id, c.id]
    assert fs.disk.owner.tolist() == owners + [NO_OWNER] * 8
    assert np.flatnonzero(fs.disk.used_mask).tolist() == [0, 1, 3, 7]
    blocks = [f.block_list.tolist() for f in (kept, partial, b, c)]
    assert blocks == [[5, 6], [2, 3, 4], [0, 1], [3, 7]]


def test_lineage_broken_by_a_later_claim():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1], [0, 1]))
    a = fs.create_file("/a.txt", 1)
    fs.delete_file("/a.txt")
    b = fs.create_file("/b.txt", 1)
    fs.delete_file("/b.txt")
    # both files once owned blocks 0 and 1; the owner array now names only b
    assert [rr for _, rr in measure_recovery(fs.disk, [a, b])] == [0.0, 1.0]


def test_record_copy_equals_original_on_every_slot():
    fs = make_fs(rows=4, cols=4)
    fs.create_file("/a.txt", 2)
    rec = fs.access("/a.txt")
    twin = rec.copy()
    assert type(twin) is FileRecord
    for name in FileRecord.__slots__:
        got, want = getattr(twin, name), getattr(rec, name)
        assert np.array_equal(got, want) if name == "block_list" else got == want, name
    assert twin.block_list is rec.block_list
    twin.status = DELETED
    assert rec.status == USED


@pytest.mark.parametrize("policy", ["apex", "first-fit", "random"])
@pytest.mark.parametrize("data_blocks", [0, 3])
def test_block_list_is_a_read_only_index_array_shared_by_copies(policy, data_blocks):
    """A create keeps its policy's pick as a read-only np.intp array that owns
    its memory; the record's twin in a copied file system holds the same
    array, and no write to it gets through."""
    fs = make_fs(rows=4, cols=4, policy=make_policy(policy, seed=2))
    fs.create_file("/pad.txt", 2)
    rec = fs.create_file("/a.txt", data_blocks)
    blocks = rec.block_list
    assert type(blocks) is np.ndarray and blocks.dtype == np.intp
    assert len(blocks) == (data_blocks + 1 if data_blocks else 0)
    assert not blocks.flags.writeable
    assert blocks.base is None or blocks.base.size == blocks.size  # no view of every free block
    twin = fs.copy()
    assert twin.lookup("/a.txt").block_list is blocks
    want = blocks.tolist()
    with pytest.raises(ValueError):
        blocks[:] = 0
    with pytest.raises(ValueError):
        blocks += 1
    fs.access("/a.txt")
    twin.delete_file("/a.txt")
    assert blocks.tolist() == want
    assert rec.block_list is blocks


def _state(fs):
    """Everything a copy must keep apart from its original."""
    return (
        fs.disk.snapshot_sha256(),
        recovery_table(fs),
        [(f.id, f.path, f.status, f.uf_counter) for f in fs.live_files()],
        [(f.id, f.status) for f in fs.deleted_files()],
        [f.id for f in fs.recoverable_files()],
        fs.retired_usage,
    )


@pytest.mark.parametrize("policy", ["apex", "first-fit", "random"])
def test_copy_replays_a_suffix_as_the_original_does(policy):
    """A copy taken mid-trace runs the rest of the trace to the same state as
    the original, and running it leaves the original as it was."""
    workload = WorkloadConfig(rng_seed=5, total_ops=400, max_file_blocks=6, min_utilization=0.5)
    _, trace = run_simulation(workload, make_fs(policy=make_policy(policy, seed=9), rows=8, cols=8))
    # cut just after a delete, so that the copy starts with a recoverable file
    cut = max(i for i, op in enumerate(trace[:200]) if op.kind == "delete") + 1
    prefix, suffix = trace[:cut], trace[cut:]

    fs = make_fs(policy=make_policy(policy, seed=9), rows=8, cols=8)
    replay_trace(prefix, fs)
    assert fs.deleted_files() and fs.recoverable_files(), "the prefix should retire files"
    at_copy = _state(fs)
    twin = fs.copy()
    replay_trace(suffix, twin)
    assert _state(fs) == at_copy
    replay_trace(suffix, fs)
    assert _state(fs) == _state(twin)
    assert _state(fs) != at_copy
