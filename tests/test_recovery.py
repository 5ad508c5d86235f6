"""Recovery ratios, the weighted aggregate, the access-time term, performance."""

import itertools
import random
from itertools import compress
from types import SimpleNamespace

import pytest

from apexsim import recovery
from apexsim.recovery import (
    PerfWeights,
    access_time_term,
    measure_recovery,
    performance,
    recovery_table,
    retired_rr,
    usage_weighted_rr,
)
from apexsim.vfs import DELETED, LINKED, OBSOLETE, PARTIAL
from apexsim.workload import OP_CREATE, WorkloadConfig, run_simulation

from conftest import ScriptedPolicy, applied_ops, claim_over, make_fs
from oracles import recovery_of, weighted_rr
from test_golden import SIM_GOLDEN, SIM_WORKLOAD, fresh_fs


def overwrite(fs, addrs):
    """Stamp new content onto freed blocks, breaking their old lineage: a
    claim by a file id the file system never hands out."""
    claim_over(fs, addrs, 999)


def test_untouched_delete_recovers_fully():
    fs = make_fs(rows=4, cols=4)
    rec = fs.create_file("/a.txt", 2)
    fs.delete_file("/a.txt")
    [(intact, rr)] = measure_recovery(fs.disk, [rec])
    assert rr == 1.0
    assert intact == [True, True, True]  # metadata block and both data blocks


def test_linked_file_is_all_or_nothing():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2, 3]))
    rec = fs.create_file("/tool.exe", 3)
    fs.delete_file("/tool.exe")
    assert measure_recovery(fs.disk, [rec]) == [([True] * 4, 1.0)]
    overwrite(fs, [3])
    [(intact, rr)] = measure_recovery(fs.disk, [rec])
    assert intact == [True, True, True, False]
    assert rr == 0.0


def test_partial_file_recovers_per_surviving_data_block():
    """All 6 ways to overwrite two of the four blocks of a metadata+3 file."""
    for lost in itertools.combinations(range(4), 2):
        fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2, 3]))
        rec = fs.create_file("/a.txt", 3)
        fs.delete_file("/a.txt")
        overwrite(fs, list(lost))
        [(intact, rr)] = measure_recovery(fs.disk, [rec])
        assert intact == [a not in lost for a in range(4)]
        if 0 in lost:  # metadata gone, nothing comes back
            assert rr == 0.0
        else:
            assert rr == 1 / 3


def test_recover_live_file_rejected():
    fs = make_fs(rows=4, cols=4)
    gone = fs.create_file("/gone.txt", 1)
    rec = fs.create_file("/a.txt", 1)
    fs.delete_file("/gone.txt")
    with pytest.raises(ValueError):
        measure_recovery(fs.disk, [rec])
    with pytest.raises(ValueError):  # anywhere in the batch
        measure_recovery(fs.disk, [gone, rec])


def test_weighted_rr_usage_weighted_mean():
    fs = make_fs(rows=8, cols=8, policy=ScriptedPolicy([0, 1], [2, 3]))
    a = fs.create_file("/a.txt", 1)
    b = fs.create_file("/b.txt", 1)
    fs.access("/a.txt")
    fs.access("/a.txt")  # a.uf_counter 3, b.uf_counter 1
    fs.delete_file("/a.txt")
    fs.delete_file("/b.txt")
    assert weighted_rr(fs.disk, [a, b]) == pytest.approx(100.0)
    overwrite(fs, [2, 3])  # kill b entirely
    assert weighted_rr(fs.disk, [a, b]) == pytest.approx(100 * 3 / 4)


def test_weighted_rr_obsolete_keeps_denominator_weight():
    fs = make_fs(rows=8, cols=8, policy=ScriptedPolicy([0, 1], [2, 3], [2, 3]))
    a = fs.create_file("/a.txt", 1)
    b = fs.create_file("/b.txt", 1)
    fs.delete_file("/a.txt")
    fs.delete_file("/b.txt")
    fs.create_file("/c.txt", 1)  # lands on all of b
    assert b.status == "obsolete"
    assert weighted_rr(fs.disk, [a, b]) == pytest.approx(50.0)


def test_weighted_rr_edge_cases():
    fs = make_fs(rows=4, cols=4)
    assert weighted_rr(fs.disk, []) == 0.0
    live = fs.create_file("/a.txt", 1)
    with pytest.raises(ValueError):
        weighted_rr(fs.disk, [live])


def test_weighted_rr_never_increases_as_blocks_die():
    rng = random.Random(13)
    fs = make_fs(rows=8, cols=8, policy=ScriptedPolicy())
    files = []
    for i in range(5):
        start = i * 4
        fs.policy._picks.append([start, start + 1, start + 2])
        files.append(fs.create_file(f"/f{i}.txt", 2))
        for _ in range(rng.randrange(3)):
            fs.access(f"/f{i}.txt")
    for i in range(5):
        fs.delete_file(f"/f{i}.txt")
    prev = weighted_rr(fs.disk, files)
    dead = list(range(20))
    rng.shuffle(dead)
    for addr in dead:
        overwrite(fs, [addr])
        cur = weighted_rr(fs.disk, files)
        assert cur <= prev + 1e-9
        assert 0.0 <= cur <= 100.0
        prev = cur
    assert prev == 0.0


def test_usage_weighted_rr_is_one_sum_over_measured_ratios():
    """The one usage-weighted sum: 0.0 when usage is 0; a 0.0 ratio (what an
    obsolete file measures) leaves its bits unchanged wherever it sits; and
    over a run with obsolete and zero-block files, retired_rr (recoverable
    files only) and the sum over every retired file both equal the
    block-by-block reference to the bit."""
    rng = random.Random(4)
    files = [SimpleNamespace(uf_counter=rng.randint(1, 9)) for _ in range(7)]
    rrs = [rng.random() for _ in files]
    usage = sum(f.uf_counter for f in files) + 5
    assert usage_weighted_rr(files, rrs, 0) == 0.0
    assert usage_weighted_rr([], [], 0) == 0.0
    base = usage_weighted_rr(files, rrs, usage)
    assert 0.0 < base < 100.0
    for i in range(len(files) + 1):
        with_zero = files[:i] + [SimpleNamespace(uf_counter=6)] + files[i:]
        got = usage_weighted_rr(with_zero, rrs[:i] + [0.0] + rrs[i:], usage)
        assert got.hex() == base.hex()

    fs = make_fs(rows=8, cols=8)
    ops = applied_ops(WorkloadConfig(rng_seed=6, total_ops=0, max_file_blocks=6), fs)
    seen = set()
    for i in range(400):
        if i in (0, 200):
            fs.create_file(f"/empty{i}.txt", 0)
            fs.delete_file(f"/empty{i}.txt")
        next(ops)
        if i % 10:
            continue
        retired = fs.deleted_files()
        want = weighted_rr(fs.disk, retired).hex()
        assert retired_rr(fs).hex() == want
        measured = [rr for _, rr in measure_recovery(fs.disk, retired)]
        assert usage_weighted_rr(retired, measured, fs.retired_usage).hex() == want
        for f, rr in zip(retired, measured):
            if f.status == OBSOLETE:
                assert rr.hex() == (0.0).hex()
                seen.add("zero-block" if len(f.block_list) == 0 else OBSOLETE)
    assert seen == {"zero-block", OBSOLETE}


def test_access_time_seek_cost_mode():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1, 2, 3]))
    fs.create_file("/a.txt", 3)
    # gaps 1+1+1 over (4-1) blocks * 16 total = 3/48
    assert access_time_term(fs) == pytest.approx(3 / 48)


def test_access_time_seek_cost_scattered_and_single():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 5, 15], []))
    fs.create_file("/a.txt", 2)
    fs.create_file("/b.txt", 0)
    # a: (5+10)/(2*16); b has under two blocks, costs nothing
    assert access_time_term(fs) == pytest.approx((15 / 32) / 2)


def test_access_time_no_live_files_is_zero():
    fs = make_fs(rows=4, cols=4)
    assert access_time_term(fs) == 0.0


def test_perf_weights_validation():
    """beta is the one weight set; recovery's alpha is the rest of one."""
    assert PerfWeights(0.5).alpha == 0.5
    assert PerfWeights(0.0).alpha == 1.0
    assert PerfWeights(0.3).alpha == 0.7
    with pytest.raises(ValueError):
        PerfWeights(-0.1)
    with pytest.raises(ValueError):
        PerfWeights(1.1)


def test_performance_combines_both_terms():
    fs = make_fs(rows=4, cols=4, policy=ScriptedPolicy([0, 1], [4, 5]))
    fs.create_file("/a.txt", 1)
    fs.create_file("/b.txt", 1)
    fs.delete_file("/a.txt")
    # wrr = 100, seek cost = 1/16 for the one remaining live file
    assert performance(fs, PerfWeights(0.0)) == pytest.approx(100.0)
    assert performance(fs, PerfWeights(1.0)) == pytest.approx(-1 / 16)
    want = 0.7 * 100 - 0.3 * (1 / 16)
    assert performance(fs, PerfWeights(0.3)) == pytest.approx(want)


def test_performance_skips_the_seek_cost_at_beta_zero(monkeypatch):
    """At beta 0 the objective does not compute the seek cost, whose weight
    is then 0, and has the bits of the objective of both terms; at any other
    beta it computes the seek cost once."""
    fs = make_fs(rows=8, cols=8)
    run_simulation(WorkloadConfig(rng_seed=4, total_ops=200, max_file_blocks=6), fs)
    seek = access_time_term(fs)
    assert seek > 0
    calls = []

    def spy(fs):
        calls.append(fs)
        return access_time_term(fs)

    monkeypatch.setattr(recovery, "access_time_term", spy)
    assert performance(fs, PerfWeights(0.0)).hex() == PerfWeights(0.0).objective(retired_rr(fs), seek).hex()
    assert calls == []
    for beta in (0.3, 1.0):
        want = PerfWeights(beta).objective(retired_rr(fs), seek)
        assert performance(fs, PerfWeights(beta)).hex() == want.hex()
    assert calls == [fs, fs]


def test_recovery_table_shape():
    fs = make_fs(rows=8, cols=8)
    fs.create_file("/a.txt", 1)
    fs.create_file("/b.exe", 1)
    fs.delete_file("/a.txt")
    fs.delete_file("/b.exe")
    rows = recovery_table(fs)
    assert len(rows) == 2
    by_path = {r["path"]: r for r in rows}
    assert by_path["/a.txt"]["type_class"] == PARTIAL
    assert by_path["/b.exe"]["type_class"] == LINKED
    assert all(r["rr"] == 1.0 for r in rows)
    assert all(r["status"] == "deleted" for r in rows)


@pytest.mark.parametrize("neighborhood,policy", sorted(SIM_GOLDEN))
def test_report_files_equal_the_oracle_per_file(neighborhood, policy):
    """A simulate report's per-file rows, one per deleted or obsolete file in
    delete order, each equal the block-by-block reference for its file, the
    obsolete ones too, which the table fills in without reading; the
    report's weighted recovery equals the full-list reference to the bit."""
    fs = fresh_fs(neighborhood, policy)
    report, _ = run_simulation(SIM_WORKLOAD, fs)
    retired = fs.deleted_files()
    assert [row["file_id"] for row in report.files] == [f.id for f in retired]
    assert any(f.status == OBSOLETE for f in retired)
    for row, f in zip(report.files, retired):
        alive, meta, rr = recovery_of(fs.disk, f)
        assert row == {
            "file_id": f.id,
            "path": f.path,
            "type_class": f.type_class,
            "status": f.status,
            "uf": f.uf_counter,
            "total_blocks": len(f.block_list),
            "surviving_blocks": len(alive),
            "metadata_intact": meta,
            "rr": rr,
        }
        assert row["rr"].hex() == rr.hex()
    assert report.weighted_rr.hex() == weighted_rr(fs.disk, retired).hex()


@pytest.mark.parametrize("neighborhood", ["grid-row", "none"])
def test_recoverable_index_matches_retired_list_after_every_op(neighborhood):
    """The file system's recoverable files and running usage total agree with
    the full retired list after every op of a seeded run in which creates
    empty prior owners, and the objective read from them equals the
    full-list weighted_rr form bit for bit."""
    fs = make_fs(rows=8, cols=8, neighborhood=neighborhood)
    ops = applied_ops(WorkloadConfig(rng_seed=9, total_ops=0, max_file_blocks=6), fs)
    mixed = PerfWeights(0.3)
    flips = 0
    for _ in range(600):
        obsolete = len(fs.deleted_files()) - len(fs.recoverable_files())
        op = next(ops)
        retired = fs.deleted_files()
        assert fs.recoverable_files() == [f for f in retired if f.status == DELETED]
        assert fs.retired_usage == sum(f.uf_counter for f in retired)
        wrr = weighted_rr(fs.disk, retired)
        assert performance(fs, PerfWeights(0.0)) == wrr
        aat = access_time_term(fs)
        assert performance(fs, mixed) == 0.7 * wrr - 0.3 * aat
        if op.kind == OP_CREATE and len(retired) - len(fs.recoverable_files()) > obsolete:
            flips += 1
    assert flips >= 20, f"only {flips} creates emptied a prior owner"


@pytest.mark.parametrize("neighborhood", ["grid-row", "none"])
def test_measure_recovery_equals_oracle_per_file(neighborhood):
    """One lineage read over many files gives each file, in order, what the
    block-by-block reference gives it alone: the surviving blocks, the
    metadata flag and the ratio. The files are linked
    and partial, whole, partly re-claimed and lost, zero-block and obsolete."""
    fs = make_fs(rows=8, cols=8, neighborhood=neighborhood)
    ops = applied_ops(WorkloadConfig(rng_seed=6, total_ops=0, max_file_blocks=6), fs)
    seen = set()
    for i in range(400):
        if i in (0, 200):  # a zero-block file, first and mid-way in delete order
            fs.create_file(f"/empty{i}.txt", 0)
            fs.delete_file(f"/empty{i}.txt")
        next(ops)
        if i % 10:
            continue
        for files in (fs.deleted_files(), fs.recoverable_files()):
            got = [
                (frozenset(compress(f.block_list, intact)), bool(intact) and intact[0], rr)
                for f, (intact, rr) in zip(files, measure_recovery(fs.disk, files), strict=True)
            ]
            assert got == [recovery_of(fs.disk, f) for f in files]
        for f in fs.deleted_files():
            alive, _, rr = recovery_of(fs.disk, f)
            if f.status == OBSOLETE:
                seen.add("zero-block" if len(f.block_list) == 0 else OBSOLETE)
            elif len(alive) == len(f.block_list):
                seen.add((f.type_class, "whole"))
            elif f.type_class == LINKED and alive:
                seen.add((LINKED, "partly re-claimed"))
            elif 0.0 < rr < 1.0:
                seen.add((PARTIAL, "partly re-claimed"))
    assert seen >= {
        "zero-block", OBSOLETE, (LINKED, "whole"), (PARTIAL, "whole"),
        (LINKED, "partly re-claimed"), (PARTIAL, "partly re-claimed"),
    }, seen
    assert measure_recovery(fs.disk, []) == []
    with pytest.raises(ValueError):
        measure_recovery(fs.disk, fs.live_files()[:1])
