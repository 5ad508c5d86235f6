"""Block store: claims and releases, the used/unused partition, the state digest."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from apexsim.disk import _ARRAYS, NO_OWNER, claim, new_disk, release
from apexsim.errors import BlockStateError
from apexsim.model import NONE, SF_LIMIT, DiskGeometry, Hyperparams, Neighborhood
from apexsim.priority import top_unused

from apexsim.workload import WorkloadConfig, run_simulation

from conftest import BlockLists, ScriptedPolicy, make_disk, make_fs
from oracles import assert_recoverable_index, rank_by_full_sort, reference_digest, score_of


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
    BlockLists().claim(disk, [5], 1)
    assert (disk.hf[5], disk.uf[5], disk.sf[5], disk.lf[5]) == (1.0, 1.0, 0.0, 1.0)
    assert disk.owner[5] == 1
    assert disk.used_mask[5]
    assert 5 not in top_unused(disk, 15)


def test_transition_to_unused_freezes_usage():
    disk = make_disk(rows=4, cols=4)
    BlockLists().claim(disk, [5], 1)
    disk.uf[5] = 7.0
    release(disk, [5], 0)
    assert (disk.hf[5], disk.uf[5], disk.lf[5]) == (0.0, 7.0, 0.0)
    assert disk.owner[5] == 1  # lineage stays until a claim lands
    assert not disk.used_mask[5]
    assert 5 in top_unused(disk, 16)


def test_transition_same_state_rejected():
    disk, files = make_disk(rows=4, cols=4), BlockLists()
    with pytest.raises(BlockStateError):
        release(disk, [5], 0)
    files.claim(disk, [5], 1)
    with pytest.raises(BlockStateError):
        files.claim(disk, [5], 2)
    # a mixed batch is rejected before anything changes
    with pytest.raises(BlockStateError):
        files.claim(disk, [6, 5], 2)
    with pytest.raises(BlockStateError):
        release(disk, [5, 6], 0)
    assert np.flatnonzero(disk.used_mask).tolist() == [5]
    assert disk.owner[6] == NO_OWNER and disk.lf[5] == 1


def test_repeated_or_out_of_range_address_rejected():
    disk, files = make_disk(rows=4, cols=4), BlockLists()
    with pytest.raises(BlockStateError):
        files.claim(disk, [3, 3], 1)
    files.claim(disk, [3, 4], 1)
    with pytest.raises(BlockStateError):
        release(disk, [4, 4], 0)
    for bad in (16, -1):
        with pytest.raises(IndexError):
            files.claim(disk, [bad], 2)
        with pytest.raises(IndexError):
            release(disk, [bad], 0)
    assert np.flatnonzero(disk.used_mask).tolist() == [3, 4]


def test_claim_adds_churn_per_block_taken_from_each_prior_owner():
    """Two deleted files lose blocks to one claim: each of a file's blocks
    still on its lineage gains one unit per block the claim took from it."""
    disk, files = make_disk(rows=4, cols=4), BlockLists()
    a, b = [0, 1, 2, 3, 4], [5, 6, 7]
    files.claim(disk, a, 1)
    files.claim(disk, b, 2)
    files.claim(disk, [8], 3)
    release(disk, a, 0)
    release(disk, b, 0)
    release(disk, [8], 0)
    files.claim(disk, [9], 4)
    release(disk, [9], 0)  # never-owned block claimed, then freed: no churn
    assert not disk.hf.any()
    assert files.claim(disk, [3, 9, 1, 6, 4, 10], 5) == [4]  # 4 lost its only block
    assert disk.hf.tolist() == [3, 1, 3, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0]
    assert disk.owner.tolist() == [1, 5, 1, 5, 5, 2, 5, 2, 3, 5, 5] + [NO_OWNER] * 5


def test_lineage_intact_per_address_with_one_or_many_file_ids():
    """A block is still a file's while it is unused and the owner array names
    the file: never-owned, used and re-claimed blocks are not."""
    disk, files = make_disk(rows=4, cols=4), BlockLists()
    files.claim(disk, [0, 1, 2], 1)
    files.claim(disk, [3, 4], 2)
    release(disk, [0, 1, 2], 0)
    files.claim(disk, [1], 3)  # re-claims one of file 1's freed blocks
    # 0 and 2 freed and intact, 1 re-claimed, 3 used, 5 never owned
    assert disk.lineage_intact([0, 1, 2, 3, 5], 1).tolist() == [True, False, True, False, False]
    assert disk.lineage_intact([3, 4], 2).tolist() == [False, False]
    assert disk.lineage_intact([1], 3).tolist() == [False]
    release(disk, [1], 0)
    assert disk.lineage_intact([1], 3).tolist() == [True]
    assert disk.lineage_intact([1], 1).tolist() == [False]
    # one file id per address
    assert disk.lineage_intact([2, 1, 0, 3, 5, 1], [1, 3, 1, 2, 1, 1]).tolist() == [
        True, True, True, False, False, False,
    ]
    assert disk.lineage_intact([], []).tolist() == []


def test_partition_invariant_under_random_transitions():
    rng = random.Random(40)
    disk, files = make_disk(rows=8, cols=8), BlockLists()
    fs = make_fs(disk=disk)
    used = set()
    for fid in range(500):
        addr = rng.randrange(64)
        if disk.used_mask[addr]:
            release(disk, [addr], rng.randint(0, 1))
        else:
            files.claim(disk, [addr], fid)
        used ^= {addr}
        assert np.flatnonzero(disk.used_mask).tolist() == sorted(used)
        assert fs.free_blocks() == 64 - len(used)
    assert top_unused(disk, fs.free_blocks()) == rank_by_full_sort(disk)


def test_new_coefficients_take_effect_on_the_next_ranking():
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


def test_pf_array_matches_scalar_scores():
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
            want = score_of(*factors, disk.hyperparams, disk.geometry.neighborhood.kind != NONE)
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
                score_of(hf, uf, sf, lf, hp, disk.geometry.neighborhood.kind != NONE)
                for hf, uf, sf, lf in zip(disk.hf.tolist(), disk.uf.tolist(), disk.sf.tolist(), disk.lf.tolist())
            ])
            assert disk.pf_array().tobytes() == want.tobytes(), (neighborhood, signs)


@pytest.mark.parametrize("neighborhood", ["grid-row", "contiguous:2", "none"])
def test_pf_array_of_addresses_is_the_full_array_gathered(neighborhood):
    """Scoring only some addresses gives, bit for bit, those entries of the
    full scores: at the coefficient limit, factors up to 2**32 - 1, sf at the
    clamp and -0.0, in any address order, and for no address at all. The
    result is fresh, never a view of a disk array."""
    top = Hyperparams.LIMIT
    rng = np.random.default_rng(12)
    sfs = np.array([SF_LIMIT, -SF_LIMIT, -0.0, 0.0])
    for signs in itertools.product((1, -1), repeat=4):
        disk = make_disk(rows=4, cols=8, neighborhood=neighborhood, hp=[s * top for s in signs])
        # one of hf and uf near 2**32 and the other 0 or 1, so every exact sum fits int64
        big, small = rng.integers(2**32 - 2**20, 2**32, 32), rng.integers(0, 2, 32)
        big[:4] = 2**32 - 1
        odd = np.arange(32) % 2 == 1
        disk.hf[:], disk.uf[:] = np.where(odd, big, small), np.where(odd, small, big)
        disk.lf[:] = rng.integers(0, 2, 32)
        disk.sf[:] = rng.uniform(-SF_LIMIT, SF_LIMIT, 32)
        disk.sf[::5] = sfs[np.arange(0, 32, 5) % 4]
        disk.used_mask[:] = rng.random(32) < 0.5
        full = disk.pf_array()
        free = (~disk.used_mask).nonzero()[0]
        for addrs in (free, np.arange(32), rng.permutation(32)[:9], np.array([], dtype=np.intp)):
            got = disk.pf_array(addrs)
            assert got.dtype == np.float64 and got.shape == addrs.shape
            assert np.array_equal(got.view(np.int64), full[addrs].view(np.int64)), (signs, addrs)
            for name in ("hf", "uf", "sf", "lf", "used_mask", "owner"):
                assert not np.shares_memory(got, getattr(disk, name)), name


def test_snapshot_hash_is_stable_and_state_sensitive():
    a = make_disk(rows=4, cols=4)
    b = make_disk(rows=4, cols=4)
    assert a.snapshot_sha256() == b.snapshot_sha256()
    BlockLists().claim(b, [0], 1)
    assert a.snapshot_sha256() != b.snapshot_sha256()


def test_copy_gives_every_array_its_own_memory():
    """The arrays are found on the instance, not in the copy's own list, so
    one added to Disk but not copied fails here: compare's flood copies would
    share it."""
    disk = make_disk(rows=4, cols=4)
    BlockLists().claim(disk, [0, 5, 6], 1)
    release(disk, [5], 0)
    disk.sf[[1, 2]] = [2.5, -1.0]
    arrays = {name: a for name, a in vars(disk).items() if isinstance(a, np.ndarray)}
    assert "owner" in arrays and "used_mask" in arrays
    before = {name: a.copy() for name, a in arrays.items()}
    twin = disk.copy()
    for name, a in arrays.items():
        mine = getattr(twin, name)
        assert np.array_equal(mine, a), name
        assert not np.shares_memory(mine, a), name
        mine[:] = ~mine if mine.dtype == bool else mine + 1
    for name, a in arrays.items():
        assert np.array_equal(a, before[name]), f"{name} changed through the copy"


def _digest_state(case):
    """A 4x4 disk whose state has every case the digest must encode: freed
    blocks that keep their lineage, an owner with no block left, blocks
    never owned, and sf at both clamps, -0.0 and 0.1 + 0.2. "all-used"
    claims every block for one file."""
    disk = make_disk(rows=4, cols=4, neighborhood="grid-row" if case == "all-used" else case)
    files = BlockLists()
    if case == "all-used":
        files.claim(disk, list(range(16)), 1)
        disk.tick()
        return disk
    files.claim(disk, [0, 5, 2], 1)
    files.claim(disk, [7, 3], 2)
    files.claim(disk, [9], 3)
    release(disk, [0, 5, 2], 0)  # freed blocks keep their lineage
    release(disk, [9], 1)
    files.claim(disk, [9], 4)  # owner 3 has no block left
    disk.uf[3] += 5
    rng = random.Random(5)
    disk.sf[:] = [rng.uniform(-1e6, 1e6) for _ in range(16)]
    disk.sf[[1, 4, 6, 8, 10]] = [-2.5, SF_LIMIT, -SF_LIMIT, -0.0, 0.1 + 0.2]
    disk.sf[12] = 0.0
    disk.tick()
    assert (disk.owner[10:] == NO_OWNER).all()  # never owned
    return disk


@pytest.mark.parametrize("case", ["grid-row", "none", "contiguous:2", "all-used"])
def test_snapshot_sha256_matches_reference_digest(case):
    disk = _digest_state(case)
    assert disk.snapshot_sha256() == reference_digest(disk)


@pytest.mark.parametrize("case", ["grid-row", "none", "contiguous:2", "all-used"])
def test_snapshot_sha256_hashes_the_whole_byte_string(case):
    """The hash is fed the state in pieces, each array in place; its digest
    is that of the whole byte string, built here in one buffer: the header,
    then the six arrays."""
    disk = make_disk(rows=3, cols=5, neighborhood="grid-row" if case == "all-used" else case)
    files = BlockLists()
    if case == "all-used":
        files.claim(disk, list(range(15)), 1)
    else:
        files.claim(disk, [0, 6, 12], 1)
        files.claim(disk, [4, 5], 2)
        release(disk, [0, 6, 12], 0)
        disk.sf[[1, 2, 14]] = [-0.0, SF_LIMIT, 0.1 + 0.2]
    disk.tick()
    header = json.dumps(
        ["apexsim-snapshot", 5, disk.geometry.to_dict(), list(disk.hyperparams.as_tuple()), disk.clock],
        sort_keys=True, separators=(",", ":"),
    )
    arrays = b"".join(
        np.asarray(values, dtype=dtype).tobytes()
        for values, dtype in (
            (disk.hf, "<i8"), (disk.uf, "<i8"), (disk.sf, "<f8"), (disk.lf, "<i8"),
            (disk.used_mask, "?"), (disk.owner, "<i8"),
        )
    )
    whole = header.encode() + arrays
    assert disk.snapshot_sha256() == hashlib.sha256(whole).hexdigest()


def _change(disk, what):
    """One change to one piece of the state a digest covers."""
    if what in ("hf", "uf"):
        getattr(disk, what)[0] += 1
    elif what == "sf":
        disk.sf[12] = -0.0  # was 0.0: equal as floats, not as bytes
    elif what == "lf":
        disk.lf[0] = 1 - disk.lf[0]
    elif what == "used_mask":
        disk.used_mask[0] = True
    elif what == "owner":
        disk.owner[0] = 2
    elif what == "clock":
        disk.tick()
    elif what == "coefficients":
        disk.hyperparams = Hyperparams(4, 7, 1, 8)
    elif what == "rows and cols":
        disk.geometry = replace(disk.geometry, rows=2, cols=8)
    elif what == "block size":
        disk.geometry = replace(disk.geometry, block_size_bytes=512)
    elif what == "neighborhood":
        disk.geometry = replace(disk.geometry, neighborhood=Neighborhood(NONE))
    else:
        raise AssertionError(what)


def test_snapshot_sha256_sees_every_piece_of_state():
    """One change to any array element, the clock, the coefficients or the
    geometry gives another digest; a copy gives the same one."""
    base = _digest_state("grid-row")
    want = base.snapshot_sha256()
    assert base.copy().snapshot_sha256() == want
    assert base.sf[12] == 0.0 and not np.signbit(base.sf[12])
    changes = (
        "hf", "uf", "sf", "lf", "used_mask", "owner", "clock",
        "coefficients", "rows and cols", "block size", "neighborhood",
    )
    digests = set()
    for what in changes:
        disk = base.copy()
        _change(disk, what)
        got = disk.snapshot_sha256()
        assert got == reference_digest(disk), what
        assert got != want and got not in digests, what
        digests.add(got)
    assert base.snapshot_sha256() == want, "a change to a copy reached the original"


def test_the_device_is_its_arrays():
    """A disk holds the header fields and the six arrays its digest hashes,
    and nothing else: after a seeded run of ops and in a copy. A claim keeps
    no reference to the list it was given: changing that list afterwards
    changes no block state, now or at the next claim over the file."""
    fs = make_fs(rows=8, cols=8)
    run_simulation(WorkloadConfig(rng_seed=3, total_ops=300, max_file_blocks=6), fs)
    assert fs.recoverable_files(), "the run should leave a recoverable file"
    for disk in (fs.disk, fs.disk.copy()):
        assert set(vars(disk)) == {"geometry", "hyperparams", "clock", *_ARRAYS}
    disk = make_disk(rows=4, cols=4)
    addrs = [0, 5, 6]
    claim(disk, addrs, 1, {}.__getitem__)
    before = disk.snapshot_sha256()
    addrs[:] = [1, 2]  # no longer file 1's blocks
    assert disk.snapshot_sha256() == before
    release(disk, [0, 5, 6], 0)
    assert claim(disk, [0], 2, {1: [0, 5, 6]}.__getitem__) == []
    assert disk.hf.tolist() == [1, 0, 0, 0, 0, 1, 1] + [0] * 9
    assert set(vars(disk)) == {"geometry", "hyperparams", "clock", *_ARRAYS}


def _two_deleted_files():
    """A file system whose recoverable table holds two deleted files, 1 on
    blocks [0, 5, 2] and 2 on [7, 3]; its next create lands on [7, 12]."""
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 5, 2], [7, 3], [7, 12]))
    fs.create_file("/a.txt", 2 * 4096)
    fs.create_file("/b.txt", 4096)
    fs.delete_file("/a.txt")
    fs.delete_file("/b.txt")
    return fs


def test_recoverable_table_is_the_index_claim_reads():
    """Claim finds a prior owner's blocks in the file layer's recoverable
    table, and the owner array decides which of them still count: a stale
    extra block on a record's list keeps the index check and changes no
    claim or digest; a list that misses a block its owner names fails it."""
    base, stale = _two_deleted_files(), _two_deleted_files()
    want = base.disk.snapshot_sha256()
    assert_recoverable_index(base)
    stale._recoverable[2].block_list = [7, 3, 11]  # block 11 was never file 2's
    assert stale.disk.snapshot_sha256() == want
    assert_recoverable_index(stale)
    for fs in (base, stale):  # takes file 2's block 7: only block 3 gains churn
        fs.create_file("/c.txt", 4096)
        assert_recoverable_index(fs)
    assert stale.disk.snapshot_sha256() == base.disk.snapshot_sha256() != want
    assert base.disk.hf[[3, 11]].tolist() == [1, 0]
    short = _two_deleted_files()
    short._recoverable[2].block_list = [7]  # 3 still names file 2
    assert short.disk.owner[3] == 2
    with pytest.raises(AssertionError, match=r"\[3\]"):
        assert_recoverable_index(short)
