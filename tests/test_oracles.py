"""The device model behind criteria 2 and 3 (oracles.FactorOracle): it
passes a faithful copy of a seeded run, fails on each single defect seeded
into a copy, and its own transitions reject a claim or a free that no
engine may make."""

from itertools import islice

import numpy as np
import pytest

from apexsim.model import DiskGeometry, Hyperparams
from apexsim.vfs import OBSOLETE
from apexsim.workload import WorkloadConfig

from conftest import applied_ops, make_fs
from oracles import FactorOracle, OpEvents

REFERENCE = Hyperparams(4, 7, 1, 9)


@pytest.fixture(scope="module")
def modelled_run():
    """A seeded 16x16 grid-row run, checked against the model after every
    op; no test changes it."""
    fs = make_fs(rows=16, cols=16, hp=REFERENCE.as_tuple())
    events = OpEvents(fs)
    oracle = FactorOracle(fs.disk.geometry, REFERENCE)
    cfg = WorkloadConfig(rng_seed=11, total_ops=0, max_file_blocks=8)
    for op in islice(applied_ops(cfg, fs), 400):
        oracle.apply_all(events.of(op))
        oracle.assert_matches(fs)
    return fs, oracle


def _unused(fs):
    return int(np.flatnonzero(~fs.disk.used_mask)[0])


def _bump_hf(fs):
    fs.disk.hf[_unused(fs)] += 1


def _revive_obsolete(fs):
    rec = next(r for r in fs._retired if r.status == OBSOLETE and len(r.block_list))
    fs._recoverable[rec.id] = rec


def _rename_owner(fs):
    addr = int(np.flatnonzero(fs.disk.used_mask)[0])
    fs.disk.owner[addr] = next(f.id for f in fs._live.values() if f.id != fs.disk.owner[addr])


def _drop_live(fs):
    fs._live.popitem()


def _duplicate_live(fs):
    fs._live["/duplicate.txt"] = next(iter(fs._live.values()))


def _swap_namespace(fs):
    first, second = list(fs._live)[:2]
    fs._live[first], fs._live[second] = fs._live[second], fs._live[first]


def _swap_recoverable(fs):
    first, second = list(fs._recoverable)[:2]
    fs._recoverable[first] = fs._recoverable[second]


def _unmark_recoverable(fs):
    next(iter(fs._recoverable.values())).status = OBSOLETE


def _shorten_live_list(fs):
    rec = next(f for f in fs._live.values() if len(f.block_list) > 1)
    rec.block_list = rec.block_list[:-1]


def _shorten_recoverable_list(fs):
    rec = next(r for r in fs._recoverable.values() if len(r.block_list) > 1)
    rec.block_list = rec.block_list[:-1]


def _nan_sf(fs):
    fs.disk.sf[_unused(fs)] = np.nan


def _move_sf(fs):
    addr = _unused(fs)
    before = fs.disk.sf[addr]
    fs.disk.sf[addr] += 1e-6
    assert fs.disk.sf[addr] != before


def test_model_passes_a_faithful_copy(modelled_run):
    fs, oracle = modelled_run
    assert len(fs.recoverable_files()) > 1 and fs.free_blocks()
    oracle.assert_matches(fs.copy())


@pytest.mark.parametrize("corrupt, check", [
    pytest.param(_bump_hf, "hf", id="extra-hf-bump"),
    pytest.param(_revive_obsolete, "recoverable ids", id="obsolete-recoverable"),
    pytest.param(_rename_owner, "owner", id="owner-renamed"),
    pytest.param(_drop_live, "live ids", id="live-file-dropped"),
    pytest.param(_duplicate_live, "live ids", id="live-file-duplicated"),
    pytest.param(_swap_namespace, "namespace", id="namespace-swapped"),
    pytest.param(_swap_recoverable, "record", id="recoverable-record-swapped"),
    pytest.param(_unmark_recoverable, "record", id="recoverable-record-obsolete"),
    pytest.param(_shorten_live_list, "record", id="live-list-shortened"),
    pytest.param(_shorten_recoverable_list, "record", id="recoverable-list-shortened"),
    pytest.param(_move_sf, "sf", id="sf-moved"),
    pytest.param(_nan_sf, "sf", id="sf-nan"),
])
def test_model_fails_on_a_seeded_defect(modelled_run, corrupt, check):
    fs, oracle = modelled_run
    bad = fs.copy()
    corrupt(bad)
    with pytest.raises(AssertionError, match=f"^{check} mismatch"):
        oracle.assert_matches(bad)


def test_model_rejects_a_used_or_repeated_claim_and_a_partial_or_foreign_free():
    oracle = FactorOracle(DiskGeometry(1, 4), REFERENCE)
    oracle.apply(("create", 1, "partial", (0, 1)))
    for addrs in ((1, 2), (2, 2)):
        with pytest.raises(AssertionError, match="claims a used or repeated block"):
            oracle.apply(("create", 2, "partial", addrs))
    for addrs in ((0, 2), (0,)):
        with pytest.raises(AssertionError, match="frees blocks other than the ones it owns"):
            oracle.apply(("delete", 1, "partial", addrs))


def test_model_rejects_an_event_kind_it_has_no_rule_for():
    oracle = FactorOracle(DiskGeometry(1, 4), REFERENCE)
    for event in (("score_array",), ("write", 1)):
        with pytest.raises(AssertionError, match="unknown event"):
            oracle.apply(event)
