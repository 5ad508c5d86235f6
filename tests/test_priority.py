"""Ranking score, usage tracking, churn propagation, neighborhood smoothing."""

import random
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from apexsim.disk import new_disk, release
from apexsim.errors import DiskFullError
from apexsim import priority, vfs
from apexsim.model import GRID_ROW, SF_LIMIT, DiskGeometry, Hyperparams, Neighborhood
from apexsim.priority import top_unused, update_spatial_factors
from apexsim.workload import WorkloadConfig, run_simulation

from conftest import BlockLists, ScriptedPolicy, claim_over, make_disk, make_fs
from oracles import FactorOracle, rank_by_full_sort, score_of

HP = Hyperparams(4, 7, 1, 9)


def score(f: tuple, hp: Hyperparams = HP, spatial_enabled: bool = True) -> float:
    """Score of a block with factors f = (hf, uf, sf, lf), read through
    Disk.pf_array on a one-block disk with or without a spatial neighborhood."""
    neighborhood = "grid-row" if spatial_enabled else "none"
    disk = make_disk(rows=1, cols=1, hp=hp.as_tuple(), neighborhood=neighborhood)
    disk.hf[0], disk.uf[0], disk.sf[0], disk.lf[0] = f
    return disk.pf_array()[0]


# -- model types --------------------------------------------------------------


def test_hyperparams_parse_and_lattice():
    hp = Hyperparams.parse("4,7,1,9")
    assert hp.as_tuple() == (4, 7, 1, 9)
    assert hp.in_lattice()
    assert not Hyperparams(0, 1, 1, 1).in_lattice()
    assert not Hyperparams(1, 1, 11, 1).in_lattice()
    with pytest.raises(ValueError):
        Hyperparams.parse("4,7,1")
    with pytest.raises(ValueError):
        Hyperparams.parse("4,7,one,9")


def test_hyperparams_operands_are_read_only_int64_scalars():
    hp = Hyperparams(4, -7, 1, Hyperparams.LIMIT)
    assert hp.operands is hp.operands  # built once per object
    for op, c in zip(hp.operands, hp.as_tuple(), strict=True):
        assert (op.shape, op.dtype) == ((), np.int64)
        assert op == c
        with pytest.raises(ValueError):
            op[()] = 0


def test_hyperparams_operands_leave_equality_hash_and_repr_alone():
    a, b = Hyperparams(4, 7, 1, 9), Hyperparams(4, 7, 1, 9)
    before = repr(a), hash(a)
    a.operands
    assert (repr(a), hash(a)) == before
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == "Hyperparams(hist=4, usage=7, spatial=1, link=9)"
    assert [f.name for f in fields(a)] == ["hist", "usage", "spatial", "link"]


@pytest.mark.parametrize("make", [
    lambda hp: Hyperparams.from_tuple((2, 3, 5, 8)),
    lambda hp: Hyperparams.parse("2,3,5,8"),
    lambda hp: replace(hp, hist=2, usage=3, spatial=5, link=8),
], ids=["from_tuple", "parse", "replace"])
def test_hyperparams_operands_follow_the_coefficients(make):
    hp = Hyperparams(4, 7, 1, 9)
    hp.operands  # cached on hp before the new object is made from it
    new = make(hp)
    assert new.as_tuple() == (2, 3, 5, 8)
    assert [int(op) for op in new.operands] == [2, 3, 5, 8]
    assert [int(op) for op in hp.operands] == [4, 7, 1, 9]


@pytest.mark.parametrize("const, dtype, value", [
    (priority._SF_LO, np.float64, -SF_LIMIT),
    (priority._SF_HI, np.float64, SF_LIMIT),
    (vfs._ONE_USE, np.int64, 1),
], ids=["sf-low", "sf-high", "one-use"])
def test_per_op_constants_are_read_only_scalars(const, dtype, value):
    assert (const.shape, const.dtype) == ((), dtype)
    assert const == value
    with pytest.raises(ValueError):
        const[()] = 0


def test_neighborhood_parse():
    assert Neighborhood.parse("grid-row").kind == "grid-row"
    assert Neighborhood.parse("none").kind == "none"
    band = Neighborhood.parse("contiguous:3")
    assert (band.kind, band.span) == ("contiguous", 3)
    with pytest.raises(ValueError):
        Neighborhood.parse("contiguous:0")
    with pytest.raises(ValueError):
        Neighborhood.parse("hexagonal")


def test_geometry_validation():
    geo = DiskGeometry(2, 3, Neighborhood(GRID_ROW))
    assert geo.total_blocks == 6
    with pytest.raises(ValueError):
        DiskGeometry(0, 3, Neighborhood(GRID_ROW))
    with pytest.raises(ValueError):
        DiskGeometry(2, 0, Neighborhood(GRID_ROW))


# -- score ---------------------------------------------------------------------


def test_score_worked_examples():
    assert score((1, 1, 0, 1)) == 6.0
    assert score((0, 0, 0, 0)) == 0.0
    assert score((2, 2, 3, 0)) == pytest.approx(-3.0)
    # fresh block: hf=0 uf=0 sf=0 lf=1
    assert score((0, 0, 0, 1)) == 9.0


def test_score_spatial_term_dropped_when_disabled():
    f = (1, 1, 100.0, 1)
    assert score(f, HP, spatial_enabled=False) == 6.0
    assert score(f, HP, spatial_enabled=True) == 106.0


def test_score_is_linear_in_each_factor():
    rng = random.Random(9)
    for _ in range(200):
        hp = Hyperparams(*(rng.randint(1, 10) for _ in range(4)))
        f = (
            rng.randint(0, 30),
            rng.randint(0, 30),
            round(rng.uniform(-20, 20), 3),
            rng.randint(0, 1),
        )
        assert score(f, hp) == pytest.approx(score_of(*f, hp))
        bumped = (f[0] + 1, *f[1:])
        delta = score(bumped, hp) - score(f, hp)
        assert delta == pytest.approx(hp.hist)


# -- usage tracking ------------------------------------------------------------


# one read, and a write of the first data block
USES = {"read": lambda fs, path: fs.access(path), "write": lambda fs, path: fs.write_file(path, 0)}


@pytest.mark.parametrize("use", sorted(USES))
def test_access_bumps_every_block_once(use):
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.txt", 2)
    assert rec.uf_counter == 1
    USES[use](fs, "/a.txt")
    assert rec.uf_counter == 2
    assert fs.disk.uf[rec.block_list].tolist() == [2, 2, 2]
    USES[use](fs, "/a.txt")
    assert rec.uf_counter == 3
    assert fs.disk.uf[rec.block_list].tolist() == [3, 3, 3]
    assert np.count_nonzero(fs.disk.uf) == 3


@pytest.mark.parametrize("use", [lambda fs, p: fs.access(p)], ids=["read"])
def test_access_to_zero_block_file_moves_only_its_record(use):
    """A zero-block file has no data block to write (see
    test_vfs::test_write_outside_size_rejected), but a read is one use of it."""
    fs = make_fs(rows=4, cols=4)
    fs.create_file("/a.txt", 1)
    rec = fs.create_file("/empty.txt", 0)
    assert rec.block_list.tolist() == []
    arrays = ("hf", "uf", "sf", "lf", "used_mask", "owner")
    before = {name: getattr(fs.disk, name).tobytes() for name in arrays}
    use(fs, "/empty.txt")
    assert rec.uf_counter == 2
    assert {name: getattr(fs.disk, name).tobytes() for name in arrays} == before


@pytest.mark.parametrize("use", sorted(USES))
def test_access_rejects_non_live_file(use):
    """A read or write of a deleted path finds no file, so the retired
    record's usage, and the running retired total, never move."""
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.txt", 1)
    fs.access("/a.txt")
    fs.delete_file("/a.txt")
    with pytest.raises(FileNotFoundError):
        USES[use](fs, "/a.txt")
    assert rec.uf_counter == fs.retired_usage == 2


# -- churn propagation ----------------------------------------------------------


def test_overwrite_event_bumps_unused_siblings():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2]))
    fs.create_file("/a.txt", 2)
    fs.delete_file("/a.txt")
    assert list(fs.disk.hf[:3]) == [0.0, 0.0, 0.0]
    claim_over(fs, [0], 90)
    # the claimed block resets to 1; its still-unused siblings gain one each
    assert list(fs.disk.hf[:4]) == [1.0, 1.0, 1.0, 0.0]
    claim_over(fs, [1], 91)
    # block 0 now carries another file's data, so only block 2 is bumped
    assert list(fs.disk.hf[:4]) == [1.0, 1.0, 2.0, 0.0]


def test_overwrite_event_skips_blocks_claimed_by_newer_file():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2], [1, 3]))
    fs.create_file("/a.txt", 2)
    fs.delete_file("/a.txt")
    # reclaiming block 1 fires one event against the old lineage first
    fs.create_file("/b.txt", 1)
    assert list(fs.disk.hf[:4]) == [1.0, 1.0, 1.0, 1.0]
    fs.delete_file("/b.txt")
    claim_over(fs, [0], 99)
    assert fs.disk.hf[1] == 0.0  # /b.txt's block now, left alone
    assert fs.disk.hf[2] == 2.0  # the only sibling still on the old lineage
    d = fs.disk
    assert d.pf_array()[2] == pytest.approx(score_of(d.hf[2], d.uf[2], d.sf[2], d.lf[2], HP))


def test_overwrite_event_without_lineage_is_noop():
    disk = make_disk(rows=4, cols=4)
    before = disk.hf.copy()
    BlockLists().claim(disk, [5], 1)
    before[5] = 1
    assert np.array_equal(disk.hf, before)


def test_overwrite_event_single_member_lineage():
    disk, files = make_disk(rows=4, cols=4), BlockLists()
    files.claim(disk, [3], 99)
    release(disk, [3], 0)
    before = disk.hf.copy()
    files.claim(disk, [3], 100)
    before[3] = 1
    assert np.array_equal(disk.hf, before)


# -- neighborhood smoothing ------------------------------------------------------


def test_spatial_fresh_row_averages_to_nine():
    disk = make_disk(rows=1, cols=3)
    update_spatial_factors(disk)
    # every block's neighbors carry score 9 before the pass
    assert list(disk.sf) == [9.0, 9.0, 9.0]
    assert disk.pf_array()[1] == pytest.approx(4 * 0 - 7 * 0 + 1 * 9.0 + 9 * 1)


def test_spatial_middle_block_worked_example():
    disk = make_disk(rows=1, cols=3)
    # left neighbor keeps score 9; right neighbor drops to 3
    disk.hf[2] = 6.0
    disk.uf[2] = 3.0
    disk.lf[2] = 0.0
    assert disk.pf_array()[2] == pytest.approx(3.0)
    update_spatial_factors(disk)
    assert disk.sf[1] == pytest.approx(6.0)
    assert disk.pf_array()[1] == pytest.approx(15.0)
    assert disk.sf[0] == pytest.approx(6.0)
    assert disk.sf[2] == pytest.approx(9.0)


@pytest.mark.parametrize("neighborhood", ["grid-row", "contiguous:2", "none"])
def test_spatial_pass_writes_only_sf_and_scores_are_fresh(neighborhood):
    disk, files = make_disk(rows=4, cols=4, neighborhood=neighborhood), BlockLists()
    files.claim(disk, [0, 5, 6], 1)
    release(disk, [5], 0)
    files.claim(disk, [9], 2)
    disk.uf[9] += 3
    names = ("hf", "uf", "sf", "lf", "used_mask", "owner")
    arrays = {name: getattr(disk, name) for name in names}
    before = {name: a.tobytes() for name, a in arrays.items()}
    update_spatial_factors(disk)
    for name, a in arrays.items():
        assert getattr(disk, name) is a, f"{name} rebound"
        if name != "sf":
            assert a.tobytes() == before[name], f"{name} changed by the spatial pass"
    after = {name: a.tobytes() for name, a in arrays.items()}
    pf = disk.pf_array()
    for name, a in arrays.items():
        assert not np.shares_memory(pf, a), f"pf_array shares memory with {name}"
    pf[:] = 12345.0
    assert {name: a.tobytes() for name, a in arrays.items()} == after


def test_spatial_used_blocks_pinned_to_zero():
    disk = make_disk(rows=1, cols=3)
    BlockLists().claim(disk, [1], 1)
    update_spatial_factors(disk)
    assert disk.sf[1] == 0.0
    assert disk.sf[0] != 0.0


def test_spatial_single_column_row_degenerates_to_zero():
    """A block with no neighbor gets sf 0, not 0/0: a one-column grid row, and
    a one-block contiguous disk."""
    for rows, cols, neighborhood in ((3, 1, "grid-row"), (1, 1, "contiguous:2")):
        disk = make_disk(rows=rows, cols=cols, neighborhood=neighborhood)
        disk.hf[0] = 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            update_spatial_factors(disk)
        assert list(disk.sf) == [0.0] * rows, neighborhood


def test_spatial_none_neighborhood_is_noop():
    disk = make_disk(rows=2, cols=2, neighborhood="none")
    disk.sf[:] = 123.0
    update_spatial_factors(disk)
    assert list(disk.sf) == [123.0] * 4


def test_spatial_contiguous_band_edges():
    disk = make_disk(rows=1, cols=4, neighborhood="contiguous:1")
    disk.hf[0] = 1.0  # score 4-0+0+9 = 13
    update_spatial_factors(disk)
    # block 0 sees only block 1 (score 9); block 1 sees 13 and 9
    assert disk.sf[0] == pytest.approx(9.0)
    assert disk.sf[1] == pytest.approx(11.0)
    assert disk.sf[3] == pytest.approx(9.0)


def test_spatial_contiguous_window_wider_than_disk():
    """A span that reaches past both ends makes every block a neighbor of
    every other, and the pass agrees with the oracle's literal window."""
    fs = make_fs(rows=2, cols=4, neighborhood="contiguous:10")
    oracle = FactorOracle(fs.disk.geometry, HP)
    update_spatial_factors(fs.disk)
    assert list(fs.disk.sf) == [9.0] * 8
    a = fs.create_file("/a.txt", 2)
    fs.delete_file("/a.txt")
    b = fs.create_file("/b.zip", 1)
    update_spatial_factors(fs.disk)
    oracle.apply_all([
        ("spatial",),
        ("create", a.id, a.type_class, tuple(a.block_list)),
        ("delete", a.id, a.type_class, tuple(a.block_list)),
        ("create", b.id, b.type_class, tuple(b.block_list)),
        ("spatial",),
    ])
    oracle.assert_matches(fs)


def test_spatial_contiguous_pass_equals_full_kernel_bitwise():
    """The pass clamps the span to n - 1 and counts neighbors in closed form.
    Over a sweep of disk sizes and spans, spans wider than the disk and the
    span cap included, its sf is bitwise equal to the unclamped kernel with
    convolved counts."""
    rng = np.random.default_rng(5)
    for n in range(2, 34):
        spans = {*range(1, n + 3), 2 * n, 3 * n + 1}
        if n <= 3:  # the reference kernel at the cap is 2 M wide
            spans.add(DiskGeometry.MAX_BLOCKS)
        for span in sorted(spans):
            disk = make_disk(rows=1, cols=n, neighborhood=f"contiguous:{span}")
            disk.hf[:] = rng.integers(0, 40, n)
            disk.uf[:] = rng.integers(0, 40, n)
            disk.lf[:] = rng.integers(0, 2, n)
            disk.sf[:] = rng.normal(0.0, 1e3, n)
            disk.used_mask[:] = rng.random(n) < 0.3
            pf = disk.pf_array()
            kernel = np.ones(2 * span + 1)
            window = np.convolve(pf, kernel, mode="full")[span:span + n]
            counts = np.convolve(np.ones(n), kernel, mode="full")[span:span + n] - 1.0
            want = np.minimum(np.maximum((window - pf) / counts, -SF_LIMIT), SF_LIMIT)
            want[disk.used_mask] = 0.0
            update_spatial_factors(disk)
            assert disk.sf.tobytes() == want.tobytes(), (n, span)


def test_spatial_uses_scores_frozen_before_the_pass():
    """Each pass averages pre-pass scores, not values updated mid-sweep."""
    disk = make_disk(rows=2, cols=4)
    rng = random.Random(31)
    for addr in range(8):
        disk.hf[addr] = rng.randint(0, 6)
        disk.uf[addr] = rng.randint(0, 6)
    for _ in range(2):
        pf_before = disk.pf_array()
        update_spatial_factors(disk)
        for addr in range(8):
            row = addr // 4
            others = [n for n in range(row * 4, row * 4 + 4) if n != addr]
            want = sum(pf_before[n] for n in others) / 3
            assert disk.sf[addr] == pytest.approx(want, abs=1e-9)


def test_spatial_clamped_to_limit():
    disk = make_disk(rows=1, cols=2)
    disk.sf[0] = 9e12  # runaway score feeding the next pass
    update_spatial_factors(disk)
    assert disk.sf[1] == SF_LIMIT


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("hp", [(4, 7, 1, 9), (3, 2, 2, 2)])
def test_scaled_coefficients_pick_the_same_blocks_without_a_neighborhood(hp, seed):
    """Under `none` every score is an integer sum, so scaling all four
    coefficients by k scales every score by k: the same blocks are picked.
    Under grid-row and contiguous the spatial coefficient is also the gain of
    the neighbor feedback, so nothing is asserted there."""
    cfg = WorkloadConfig(rng_seed=seed, total_ops=2000, max_file_blocks=8)
    runs = []
    for k in (1, 3):
        fs = make_fs(rows=16, cols=16, neighborhood="none", hp=[k * c for c in hp])
        _, trace = run_simulation(cfg, fs)
        arrays = tuple(getattr(fs.disk, name).tobytes() for name in ("owner", "used_mask", "hf"))
        runs.append(("".join(op.to_json_line() for op in trace), arrays))
    assert runs[0] == runs[1]


# -- ranking -------------------------------------------------------------------


def test_top_unused_fresh_disk_prefers_low_addresses():
    disk = make_disk(rows=16, cols=16)
    assert top_unused(disk, 4).tolist() == [0, 1, 2, 3]


def test_top_unused_picks_highest_score():
    disk = make_disk(rows=16, cols=16)
    disk.sf[100] = 6.0  # score 15 vs the 9.0 baseline
    assert top_unused(disk, 1).tolist() == [100]
    assert top_unused(disk, 3).tolist() == [100, 0, 1]


def test_top_unused_exhaustion_raises():
    disk = make_disk(rows=2, cols=2)
    with pytest.raises(DiskFullError):
        top_unused(disk, 5)


def set_best_class(disk, rng, best, used):
    """Tie-heavy factors on an 8x8 disk: few distinct scores below one best
    class, which holds best free blocks and two used ones; used blocks are
    used in all."""
    for addr in range(64):
        # few distinct scores, all below the best class's 4*20 + 9
        disk.hf[addr] = rng.randint(0, 2)
        disk.uf[addr] = rng.randint(0, 2)
        disk.sf[addr] = rng.choice((-1.0, 0.0, 0.5))
        disk.lf[addr] = rng.randint(0, 1)
    top = rng.sample(range(64), best + 2)
    for addr in top:
        disk.hf[addr], disk.uf[addr], disk.sf[addr], disk.lf[addr] = 20, 0, 0.0, 1
    rest = sorted(set(range(64)) - set(top))
    disk.used_mask[top[:2] + rng.sample(rest, used - 2)] = True  # used blocks never rank


@pytest.mark.parametrize("neighborhood", ["grid-row", "contiguous:2", "none"])
@pytest.mark.parametrize(
    "case", ["random", "best-short", "best-exact", "best-over", "full-disk", "signed-zero"]
)
def test_top_unused_matches_full_sort_on_random_state(case, neighborhood, monkeypatch):
    """Tie-heavy states against the reference sort. A best score class that
    alone holds count free blocks gives its lowest addresses with no sort;
    one block short of count, the stable sort runs."""
    rng = random.Random(77)
    disk = make_disk(rows=8, cols=8, neighborhood=neighborhood)
    count, best = 5, None
    if case == "random":
        count = 10
        for addr in range(64):
            disk.hf[addr] = rng.randint(0, 9)
            disk.uf[addr] = rng.randint(0, 9)
            disk.lf[addr] = rng.randint(0, 1)
        update_spatial_factors(disk)
    elif case == "full-disk":
        count = 0
        disk.used_mask[:] = True
    elif case == "signed-zero":
        # the engine never scores -0.0, so the scores are handed in; -0.0 and
        # 0.0 are one class, and it holds count + 1 free blocks
        pf = np.full(64, -1.0)
        pf[[3, 40, 41, 50]], pf[[9, 17, 63]] = -0.0, 0.0
        disk.used_mask[40] = True
        disk.pf_array = pf.copy
        best = count + 1
    else:
        best = {"best-short": count - 1, "best-exact": count, "best-over": count + 1}[case]
        set_best_class(disk, rng, best, used=10)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(a) or argsort(*a, **kw))
    got = top_unused(disk, count)
    if case == "signed-zero":
        assert got.tolist() == [3, 9, 17, 41, 50]
    else:
        assert got.tolist() == rank_by_full_sort(disk, count)
    if best is not None:
        assert bool(sorts) == (best < count)


@pytest.mark.parametrize("neighborhood", ["grid-row", "contiguous:2", "none"])
@pytest.mark.parametrize("case", ["random", "best-covers", "best-short"])
def test_top_unused_matches_full_sort_with_few_free_blocks(case, neighborhood, monkeypatch):
    """At most a quarter of the disk free (50 of 64 blocks used): only the
    free blocks are scored, and the ranking is still the reference sort's.
    A best class holding exactly count free blocks needs no sort; one block
    short of count, the stable sort runs."""
    rng = random.Random(78)
    disk = make_disk(rows=8, cols=8, neighborhood=neighborhood)
    count = 5
    if case == "random":
        for addr in range(64):
            disk.hf[addr] = rng.randint(0, 9)
            disk.uf[addr] = rng.randint(0, 9)
            disk.lf[addr] = rng.randint(0, 1)
        disk.used_mask[rng.sample(range(64), 50)] = True
        update_spatial_factors(disk)
    else:
        set_best_class(disk, rng, count if case == "best-covers" else count - 1, used=50)
    free = (~disk.used_mask).nonzero()[0]
    assert len(free) == 14
    scored, sorts = [], []
    pf_array, argsort = disk.pf_array, np.argsort
    disk.pf_array = lambda *a: scored.append(a) or pf_array(*a)
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(a) or argsort(*a, **kw))
    assert top_unused(disk, count).tolist() == rank_by_full_sort(disk, count)
    [(addrs,)] = scored
    assert addrs.tolist() == free.tolist()
    if case != "random":
        assert bool(sorts) == (case == "best-short")


@pytest.mark.parametrize("free", [1, 15, 16, 17, 32, 64])
def test_top_unused_scores_only_free_blocks_when_at_most_a_quarter_are_free(free):
    """The free blocks alone are scored exactly when 4 * free <= n; with more
    free, every block is scored and the free ones kept."""
    rng = random.Random(free)
    disk = make_disk(rows=8, cols=8)
    disk.used_mask[rng.sample(range(64), 64 - free)] = True
    scored = []
    pf_array = disk.pf_array
    disk.pf_array = lambda *a: scored.append(a) or pf_array(*a)
    assert top_unused(disk, 1).tolist() == rank_by_full_sort(disk, 1)
    [args] = scored
    if 4 * free <= 64:
        [addrs] = args
        assert addrs.tolist() == (~disk.used_mask).nonzero()[0].tolist()
    else:
        assert args == ()
