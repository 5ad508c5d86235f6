"""Head-to-head policy comparison over the archival churn scenario."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

import apexsim.compare
from apexsim.compare import (
    CompareRow,
    CompareSettings,
    compare_report,
    compare_report_json,
    primary_phase,
    run_compare,
    run_flood,
)
from apexsim.config import load_config
from apexsim.disk import new_disk
from apexsim.model import GRID_ROW, DiskGeometry, Hyperparams, Neighborhood
from apexsim.policies import make_policy
from apexsim.vfs import LINKED, PARTIAL, FileSystem
from apexsim.workload import OP_CREATE, OP_DELETE, WorkloadOp, execute_op

from oracles import clairvoyant_rr_bound, flood_blocks, recovery_of, weighted_rr

GEO = DiskGeometry(16, 16, 4096, Neighborhood(GRID_ROW))
HP = Hyperparams(4, 7, 1, 9)


def small_settings(**kw):
    base = dict(
        primary_count=2,
        primary_data_blocks=6,
        secondary_targets=(30,),
        secondary_min_blocks=2,
        secondary_max_blocks=5,
        seeds=(0, 1),
        policies=("apex", "first-fit"),
    )
    base.update(kw)
    return CompareSettings(**base)


def test_settings_validation():
    with pytest.raises(ValueError):
        small_settings(primary_count=0)
    with pytest.raises(ValueError):
        small_settings(secondary_min_blocks=6)  # above the max of 5
    with pytest.raises(ValueError):
        small_settings(seeds=())
    with pytest.raises(ValueError):
        small_settings(policies=())
    with pytest.raises(ValueError):
        small_settings(secondary_targets=(-5, 102))
    small_settings(secondary_targets=(0,))  # zero churn is a valid sweep point


def test_zero_churn_leaves_everything_recoverable():
    settings = small_settings(secondary_targets=(0,))
    row = run_flood(primary_phase(GEO, HP, settings, "apex", 0), settings, (0,), 0)[0]
    assert row.weighted_rr == pytest.approx(100.0)
    assert row.per_file_rr == (1.0,) * 2


def test_full_capacity_churn_destroys_everything():
    settings = small_settings(secondary_targets=(256,))
    for policy in ("apex", "first-fit"):
        row = run_flood(primary_phase(GEO, HP, settings, policy, 0), settings, (256,), 0)[256]
        assert row.weighted_rr == pytest.approx(0.0)
        assert row.per_file_rr == (0.0,) * 2


def test_cell_is_deterministic():
    settings = small_settings()
    a = run_flood(primary_phase(GEO, HP, settings, "apex", 7), settings, (30,), 7)[30]
    b = run_flood(primary_phase(GEO, HP, settings, "apex", 7), settings, (30,), 7)[30]
    assert a == b


def test_primaries_written_once_per_seed_free_policy(monkeypatch):
    """apex and first-fit share one primary phase across seeds; random,
    whose primary blocks come from the seed's stream, writes one per seed."""
    built = []

    def counting_new_disk(*args):
        built.append(args)
        return new_disk(*args)

    monkeypatch.setattr(apexsim.compare, "new_disk", counting_new_disk)
    settings = small_settings(seeds=(0, 1, 2, 3), policies=("apex", "first-fit", "random"))
    rows = run_compare(GEO, HP, settings)
    assert len(rows) == 3 * 4
    assert len(built) == 1 + 1 + 4


def test_run_compare_row_grid():
    settings = small_settings()
    rows = run_compare(GEO, HP, settings)
    assert len(rows) == 2 * 1 * 2  # policies x targets x seeds
    keys = {(r.policy, r.secondary_blocks, r.seed) for r in rows}
    assert keys == {
        ("apex", 30, 0), ("apex", 30, 1),
        ("first-fit", 30, 0), ("first-fit", 30, 1),
    }
    for r in rows:
        assert isinstance(r, CompareRow)
        assert len(r.per_file_rr) == 2
        assert all(0.0 <= v <= 1.0 for v in r.per_file_rr)
        assert 0.0 <= r.weighted_rr <= 100.0


def test_report_document_shape():
    settings = small_settings()
    rows = run_compare(GEO, HP, settings)
    doc = compare_report(settings, rows, GEO, HP)
    assert doc["hyperparams"] == [4, 7, 1, 9]
    assert doc["settings"]["secondary_targets"] == [30]
    assert len(doc["rows"]) == 4
    assert set(doc["rows"][0]) == {
        "policy", "secondary_blocks", "seed", "weighted_rr", "per_file_rr",
    }


def reference_cell(geometry, hp, settings, policy_kind, target, seed, invert_link_rule):
    """One cell on its own fresh disk: the primaries, then a flood of seeded
    sizes clipped to the blocks left and the free space. Returns the row and
    how the flood ended: "reached" (the last file fit as drawn), "clipped"
    (the last file was cut to the blocks left) or "full"."""
    disk = new_disk(geometry, hp)
    fs = FileSystem(disk, make_policy(policy_kind, seed=seed + 1000003), invert_link_rule)
    rng = random.Random(seed)
    ext = ".avi" if settings.primary_type == PARTIAL else ".zip"
    paths = [f"/primary{i}{ext}" for i in range(settings.primary_count)]
    for path in paths:
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_CREATE, path, settings.primary_data_blocks))
    for path in paths:
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_DELETE, path))
    written, seq, end = 0, 0, "reached"
    while written < target:
        free = fs.free_blocks()
        if free < 2:
            end = "full"
            break
        drawn = rng.randint(settings.secondary_min_blocks, settings.secondary_max_blocks)
        size = max(min(drawn, target - written, free - 1), 1)
        end = "clipped" if size == target - written < drawn else "reached"
        seq += 1
        disk.tick()
        execute_op(fs, WorkloadOp(disk.clock, OP_CREATE, f"/secondary{seq:04d}.dat", size))
        written += size
    primary = fs.deleted_files()
    per_file = tuple(recovery_of(disk, f)[3] for f in primary)
    row = CompareRow(policy_kind, target, seed, weighted_rr(disk, primary), per_file)
    return row, end


SWEEP = dict(
    primary_count=4,
    primary_data_blocks=12,
    secondary_targets=(200, 30, 102, 30, 0, 500),
    seeds=tuple(range(20)),
    policies=("apex", "first-fit", "random"),
)
SHARED_FLOOD_CASES = {
    # name: (neighborhood, disk side, inverted link rule, settings)
    "grid-row-partial": ("grid-row", 16, False, dict(SWEEP)),
    "grid-row-small-sizes-inverted": (
        "grid-row", 16, True, dict(SWEEP, secondary_min_blocks=1, secondary_max_blocks=3)
    ),
    "none-linked-small-sizes": (
        "none", 16, False,
        dict(SWEEP, primary_type=LINKED, secondary_min_blocks=1, secondary_max_blocks=3),
    ),
    "contiguous-linked-inverted": ("contiguous:3", 16, True, dict(SWEEP, primary_type=LINKED)),
    # Many two-block primaries on a small disk: here a random create on a
    # copy can empty a primary that the line's larger create leaves whole
    # (under apex and first-fit a copy's create claims a prefix of the line's).
    "small-disk-many-linked-random": (
        "grid-row", 8, False,
        dict(SWEEP, primary_count=20, primary_data_blocks=1, primary_type=LINKED,
             secondary_targets=(3, 9, 14, 22, 30, 41, 70), seeds=tuple(range(100)),
             policies=("random",)),
    ),
}


@pytest.mark.parametrize("case", list(SHARED_FLOOD_CASES))
def test_shared_flood_equals_one_fresh_disk_per_cell(case):
    """run_compare runs one flood per (policy, seed); its rows equal, in
    order, the cells each flooded on their own fresh disk, and its report
    bytes equal theirs, so no -0.0 passes for 0.0. The targets are unsorted,
    repeated, zero and beyond the disk."""
    neighborhood, side, inverted, fields = SHARED_FLOOD_CASES[case]
    geometry = replace(GEO, rows=side, cols=side, neighborhood=Neighborhood.parse(neighborhood))
    settings = CompareSettings(**fields)
    expected, ends = [], set()
    for policy in settings.policies:
        for target in settings.secondary_targets:
            for seed in settings.seeds:
                row, end = reference_cell(geometry, HP, settings, policy, target, seed, inverted)
                expected.append(row)
                ends.add((target > 0, end))
    rows = run_compare(geometry, HP, settings, inverted)
    assert rows == expected
    assert compare_report_json(settings, rows, geometry, HP) == compare_report_json(
        settings, expected, geometry, HP
    )
    # the sweep exercised every way a cell can end
    assert {(True, "reached"), (True, "clipped"), (True, "full")} <= ends


def assert_within_clairvoyant_bound(geometry, settings):
    """No row of run_compare recovers more than the best placement of its
    cell's flood could leave (see oracles.clairvoyant_rr_bound). The
    tolerance covers rounding only: one recovered data block moves a row by
    at least 100 / (primaries x data blocks)."""
    n = geometry.total_blocks
    for row in run_compare(geometry, HP, settings):
        flood = flood_blocks(
            n, row.secondary_blocks, row.seed,
            settings.secondary_min_blocks, settings.secondary_max_blocks,
        )
        bound = clairvoyant_rr_bound(
            n, settings.primary_count, settings.primary_data_blocks, settings.primary_type, flood
        )
        assert row.weighted_rr <= bound + 1e-9, (row, bound)


def test_surveillance_rows_within_clairvoyant_bound():
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "surveillance.ini"))
    settings = replace(cfg.compare_settings, policies=("apex", "first-fit", "random"))
    assert_within_clairvoyant_bound(cfg.geometry, settings)


@pytest.mark.parametrize("case", range(24))
def test_seeded_rows_within_clairvoyant_bound(case):
    """Small random geometries under each neighborhood kind and primary type,
    with targets from 0 up to filling the disk."""
    rng = random.Random(case)
    neighborhood = ("grid-row", "none", f"contiguous:{rng.randint(1, 4)}")[case % 3]
    geometry = replace(
        GEO, rows=rng.randint(2, 10), cols=rng.randint(2, 10),
        neighborhood=Neighborhood.parse(neighborhood),
    )
    n = geometry.total_blocks
    data_blocks = rng.randint(1, n // 2 - 1)
    low = rng.randint(1, 6)
    settings = CompareSettings(
        primary_count=rng.randint(1, n // (data_blocks + 1)),
        primary_data_blocks=data_blocks,
        primary_type=(PARTIAL, LINKED)[case // 3 % 2],
        secondary_targets=tuple(sorted({0, n, *rng.sample(range(1, n), 3)})),
        secondary_min_blocks=low,
        secondary_max_blocks=low + rng.randint(0, 6),
        seeds=tuple(range(8)),
        policies=("apex", "first-fit", "random"),
    )
    assert_within_clairvoyant_bound(geometry, settings)
