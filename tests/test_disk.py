"""Block store: claims and releases, the used/unused partition, snapshots."""

import itertools
import json
import random

import numpy as np
import pytest

from apexsim.disk import NO_OWNER, claim, new_disk, release
from apexsim.errors import BlockStateError
from apexsim.model import SF_LIMIT, DiskGeometry, Hyperparams, Neighborhood
from apexsim.priority import top_unused

from conftest import make_disk, make_fs
from oracles import rank_by_full_sort, reference_snapshot, score_of


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
    claim(disk, [5], 1)
    assert (disk.hf[5], disk.uf[5], disk.sf[5], disk.lf[5]) == (1.0, 1.0, 0.0, 1.0)
    assert (disk.version[5], disk.owner[5]) == (1, 1)
    assert disk.is_used(5)
    assert 5 not in top_unused(disk, 15)


def test_transition_to_unused_freezes_usage():
    disk = make_disk(rows=4, cols=4)
    claim(disk, [5], 1)
    disk.uf[5] = 7.0
    release(disk, [5], 0)
    assert (disk.hf[5], disk.uf[5], disk.lf[5]) == (0.0, 7.0, 0.0)
    assert (disk.version[5], disk.owner[5]) == (1, 1)  # lineage stays until a claim lands
    assert not disk.is_used(5)
    assert 5 in top_unused(disk, 16)


def test_transition_same_state_rejected():
    disk = make_disk(rows=4, cols=4)
    with pytest.raises(BlockStateError):
        release(disk, [5], 0)
    claim(disk, [5], 1)
    with pytest.raises(BlockStateError):
        claim(disk, [5], 2)
    # a mixed batch is rejected before anything changes
    with pytest.raises(BlockStateError):
        claim(disk, [6, 5], 2)
    with pytest.raises(BlockStateError):
        release(disk, [5, 6], 0)
    assert np.flatnonzero(disk.used_mask).tolist() == [5]
    assert disk.owner[6] == NO_OWNER and disk.lf[5] == 1


def test_repeated_or_out_of_range_address_rejected():
    disk = make_disk(rows=4, cols=4)
    with pytest.raises(BlockStateError):
        claim(disk, [3, 3], 1)
    claim(disk, [3, 4], 1)
    with pytest.raises(BlockStateError):
        release(disk, [4, 4], 0)
    for bad in (16, -1):
        with pytest.raises(IndexError):
            claim(disk, [bad], 2)
        with pytest.raises(IndexError):
            release(disk, [bad], 0)
    assert np.flatnonzero(disk.used_mask).tolist() == [3, 4]


def test_claim_adds_churn_per_block_taken_from_each_prior_owner():
    """Two deleted files lose blocks to one claim: each of a file's blocks
    still on its lineage gains one unit per block the claim took from it."""
    disk = make_disk(rows=4, cols=4)
    a, b = [0, 1, 2, 3, 4], [5, 6, 7]
    claim(disk, a, 1)
    claim(disk, b, 2)
    claim(disk, [8], 3)
    release(disk, a, 0)
    release(disk, b, 0)
    release(disk, [8], 0)
    claim(disk, [9], 4)
    release(disk, [9], 0)  # never-owned block claimed, then freed: no churn
    assert not disk.hf.any()
    claim(disk, [3, 9, 1, 6, 4, 10], 5)
    assert disk.hf.tolist() == [3, 1, 3, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0]
    assert disk.owner.tolist() == [1, 5, 1, 5, 5, 2, 5, 2, 3, 5, 5] + [NO_OWNER] * 5
    assert disk.siblings == {1: a, 2: b, 3: [8], 4: [9], 5: [3, 9, 1, 6, 4, 10]}


def test_partition_invariant_under_random_transitions():
    rng = random.Random(40)
    disk = make_disk(rows=8, cols=8)
    fs = make_fs(disk=disk)
    used = set()
    for fid in range(500):
        addr = rng.randrange(64)
        if disk.is_used(addr):
            release(disk, [addr], rng.randint(0, 1))
        else:
            claim(disk, [addr], fid)
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
            factors = disk.hf[addr], disk.uf[addr], disk.sf[addr], disk.lf[addr]
            want = score_of(*factors, disk.hyperparams, disk.spatial_enabled)
            assert pf[addr] == want


def test_pf_array_bitwise_at_extreme_magnitudes():
    """Where the order of the float steps shows: integer terms near 2**63, so
    base needs rounding to reach float64; sf at the clamp and -0.0; and a
    `none` disk, whose int64 sum must reach float64 in one conversion. The
    last eight blocks of each disk are drawn so that rounding base before
    adding link*lf gives another float; at random draws near 2**63 that
    happens about twice in 1024."""
    top = Hyperparams.LIMIT  # top * (2**32 + 1) < 2**63: every exact sum below fits int64
    rng = random.Random(31)
    sfs = [SF_LIMIT, -SF_LIMIT, -0.0, 0.0, None]
    for neighborhood in ("grid-row", "none"):
        for signs in itertools.product((1, -1), repeat=4):
            disk = make_disk(rows=4, cols=8, neighborhood=neighborhood, hp=[s * top for s in signs])
            hp = disk.hyperparams
            for addr in range(32):
                while True:
                    big, small = rng.randrange(2**32 - 2**20, 2**32), rng.randint(0, 1)
                    hf, uf = (big, small) if addr % 2 else (small, big)
                    lf = 1 if addr >= 24 else rng.randint(0, 1)
                    base = hp.hist * hf - hp.usage * uf
                    if addr < 24 or float(float(base) + hp.link) != float(base + hp.link):
                        break
                sf = sfs[addr % 5]
                disk.hf[addr], disk.uf[addr], disk.lf[addr] = hf, uf, lf
                disk.sf[addr] = rng.uniform(-SF_LIMIT, SF_LIMIT) if sf is None else sf
            want = np.array([
                score_of(hf, uf, sf, lf, hp, disk.spatial_enabled)
                for hf, uf, sf, lf in zip(disk.hf.tolist(), disk.uf.tolist(), disk.sf.tolist(), disk.lf.tolist())
            ])
            assert disk.pf_array().tobytes() == want.tobytes(), (neighborhood, signs)


def test_snapshot_hash_is_stable_and_state_sensitive():
    a = make_disk(rows=4, cols=4)
    b = make_disk(rows=4, cols=4)
    assert a.snapshot_sha256() == b.snapshot_sha256()
    claim(b, [0], 1)
    assert a.snapshot_sha256() != b.snapshot_sha256()


def test_snapshot_sees_payload_changes():
    disk = make_disk(rows=2, cols=2)
    claim(disk, [0], 1)
    before = disk.snapshot_sha256()
    disk.payload[0] = b"x" * 16
    assert disk.snapshot_sha256() != before


def test_snapshot_lineage_reads_owner_version_and_sibling_list():
    disk = make_disk(rows=2, cols=2)
    blocks = [3, 1]
    claim(disk, blocks, 7)
    disk.version[1] += 1
    release(disk, blocks, 0)
    snap = disk.snapshot()["blocks"]
    assert snap[0]["mrpf"] is None
    assert snap[1]["mrpf"] == {"file_id": 7, "siblings": [1, 3], "content_epoch": 2}
    assert snap[3]["mrpf"] == {"file_id": 7, "siblings": [1, 3], "content_epoch": 1}
    assert (snap[1]["state"], snap[1]["version"], snap[1]["lf"]) == ("unused", 2, 0)


@pytest.mark.parametrize("neighborhood", ["grid-row", "none", "contiguous:2"])
def test_snapshot_json_matches_reference_encoder(neighborhood):
    disk = make_disk(rows=4, cols=4, neighborhood=neighborhood)
    claim(disk, [0, 5, 2], 1)
    claim(disk, [7, 3], 2)
    claim(disk, [9], 3)
    release(disk, [0, 5, 2], 0)  # freed blocks keep their lineage
    release(disk, [9], 1)
    claim(disk, [9], 4)  # owner 3 has no block left
    disk.version[5] += 2
    disk.uf[3] += 5
    disk.payload[7] = b"abc"
    disk.payload[0] = b""
    rng = random.Random(5)
    disk.sf[:] = [rng.uniform(-1e6, 1e6) for _ in range(16)]
    disk.sf[[1, 4, 6, 8, 10]] = [-2.5, SF_LIMIT, -SF_LIMIT, -0.0, 0.1 + 0.2]
    disk.tick()
    assert (disk.owner[10:] == NO_OWNER).all()  # never owned
    want = json.dumps(reference_snapshot(disk), sort_keys=True, separators=(",", ":"))
    assert disk.snapshot_json() == want
    assert disk.snapshot() == reference_snapshot(disk)


def test_event_recording_off_by_default():
    disk = make_disk(rows=2, cols=2)
    assert disk.event_log is None
    disk.emit("access", 1)
    disk.record_events(True)
    disk.emit("access", 2)
    assert disk.event_log == [("access", 2)]
