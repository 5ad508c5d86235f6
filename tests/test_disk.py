"""Block store: transitions, the used/unused partition, snapshots."""

import random

import numpy as np
import pytest

from apexsim.disk import TO_UNUSED, TO_USED, new_disk, transition_block
from apexsim.errors import BlockStateError
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.priority import top_unused

from conftest import make_disk, make_fs
from oracles import rank_by_full_sort, score_of


def test_new_disk_starts_fully_unused_at_baseline_score():
    disk = make_disk(rows=16, cols=16)
    assert make_fs(disk=disk).free_blocks() == 256
    assert not disk.used_mask.any()
    assert all(disk.pf_array() == 9.0)
    assert disk.clock == 0


def test_new_disk_single_block():
    disk = make_disk(rows=1, cols=1)
    assert make_fs(disk=disk).free_blocks() == 1
    assert disk.pf_array()[0] == 9.0


def test_new_disk_without_neighborhood_drops_spatial_term():
    disk = make_disk(rows=2, cols=2, neighborhood="none")
    disk.sf[0] = 50.0
    assert disk.pf_array()[0] == 9.0


def test_transition_to_used_resets_tracking():
    disk = make_disk(rows=4, cols=4)
    disk.hf[5] = 5.0
    disk.sf[5] = 2.5
    transition_block(disk, 5, TO_USED)
    assert (disk.hf[5], disk.uf[5], disk.sf[5], disk.lf[5]) == (1.0, 1.0, 0.0, 1.0)
    assert disk.is_used(5)
    assert 5 not in top_unused(disk, 15)


def test_transition_to_unused_freezes_usage():
    disk = make_disk(rows=4, cols=4)
    transition_block(disk, 5, TO_USED)
    disk.uf[5] = 7.0
    transition_block(disk, 5, TO_UNUSED)
    assert (disk.hf[5], disk.uf[5]) == (0.0, 7.0)
    assert not disk.is_used(5)
    assert 5 in top_unused(disk, 16)


def test_transition_same_state_rejected():
    disk = make_disk(rows=4, cols=4)
    with pytest.raises(BlockStateError):
        transition_block(disk, 5, TO_UNUSED)
    transition_block(disk, 5, TO_USED)
    with pytest.raises(BlockStateError):
        transition_block(disk, 5, TO_USED)


def test_transition_unknown_kind_rejected():
    disk = make_disk(rows=4, cols=4)
    with pytest.raises(ValueError):
        transition_block(disk, 5, "sideways")


def test_partition_invariant_under_random_transitions():
    rng = random.Random(40)
    disk = make_disk(rows=8, cols=8)
    fs = make_fs(disk=disk)
    used = set()
    for _ in range(500):
        addr = rng.randrange(64)
        kind = TO_UNUSED if disk.is_used(addr) else TO_USED
        transition_block(disk, addr, kind)
        used ^= {addr}
        assert np.flatnonzero(disk.used_mask).tolist() == sorted(used)
        assert fs.free_blocks() == 64 - len(used)
    assert top_unused(disk, fs.free_blocks()) == rank_by_full_sort(disk)


def test_set_hyperparams_rebuilds_keys():
    """New coefficients take effect on the next ranking: nothing is cached."""
    rng = random.Random(12)
    disk = make_disk(rows=4, cols=4, hp=(4, 7, 1, 9))
    assert disk.pf_array()[3] == 9.0
    for addr in range(16):
        disk.hf[addr] = rng.randint(0, 9)
        disk.uf[addr] = rng.randint(0, 9)
    before = top_unused(disk, 16)
    disk.hyperparams = Hyperparams(1, 1, 1, 2)
    disk.hf[3] = disk.uf[3] = 0
    assert disk.pf_array()[3] == 2.0
    assert top_unused(disk, 16) == rank_by_full_sort(disk)
    assert top_unused(disk, 16) != before


def test_tick_advances_clock():
    disk = make_disk(rows=2, cols=2)
    disk.tick()
    disk.tick()
    assert disk.clock == 2


def test_pf_array_matches_scalar_keys():
    rng = random.Random(8)
    for neighborhood in ("grid-row", "none"):
        disk = make_disk(rows=4, cols=4, neighborhood=neighborhood)
        for addr in range(16):
            disk.hf[addr] = rng.randint(0, 9)
            disk.uf[addr] = rng.randint(0, 9)
            disk.sf[addr] = round(rng.uniform(-3, 3), 3)
            disk.lf[addr] = rng.randint(0, 1)
        pf = disk.pf_array()
        for addr in range(16):
            f = disk.factors(addr)
            want = score_of(f.hf, f.uf, f.sf, f.lf, disk.hyperparams, disk.spatial_enabled)
            assert pf[addr] == want


def test_snapshot_hash_is_stable_and_state_sensitive():
    a = make_disk(rows=4, cols=4)
    b = make_disk(rows=4, cols=4)
    assert a.snapshot_sha256() == b.snapshot_sha256()
    transition_block(b, 0, TO_USED)
    assert a.snapshot_sha256() != b.snapshot_sha256()


def test_snapshot_sees_payload_changes():
    disk = make_disk(rows=2, cols=2)
    transition_block(disk, 0, TO_USED)
    before = disk.snapshot_sha256()
    disk.blocks[0].payload = b"x" * 16
    assert disk.snapshot_sha256() != before


def test_event_recording_off_by_default():
    disk = make_disk(rows=2, cols=2)
    assert disk.event_log is None
    disk.emit("access", 1)
    disk.record_events(True)
    disk.emit("access", 2)
    assert disk.event_log == [("access", 2)]
