"""The op clock: every op a command applies first advances the disk clock
once (Disk.tick), is then applied to the file system, and ends with one
spatial pass. bench/tracer.py times an op from Disk.tick to the end of its
spatial pass, so every driver keeps this order: run_simulation, replay_trace,
train with its evaluations, and compare's primary phases and floods. Each
applies its ops through workload.apply_ops, the one caller of Disk.tick."""

import sys

import pytest

from apexsim import priority, workload
from apexsim.compare import CompareSettings, run_compare
from apexsim.disk import Disk
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.tuner import TrainConfig, TrainSchedule, train
from apexsim.vfs import FileSystem
from apexsim.workload import WorkloadConfig, replay_trace, run_simulation

from conftest import make_fs

OP = ["tick", "op", "pass"]
NEIGHBORHOODS = ["grid-row", "none", "contiguous:3"]


def patch_everywhere(monkeypatch, function, replacement):
    """Replace function in every apexsim module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("apexsim.") and module.__dict__.get(function.__name__) is function:
            monkeypatch.setattr(module, function.__name__, replacement)


@pytest.fixture
def clock(monkeypatch):
    """The order of clock advances, file-system ops and spatial passes. The
    pass and the apply loop are replaced in every apexsim module that holds
    them, as the bench replaces the pass; a clock advance outside the apply
    loop is logged as its own entry."""
    log = []
    applying = []
    tick = Disk.tick

    def logged_tick(disk):
        tick(disk)
        log.append("tick" if applying else "tick outside apply_ops")

    monkeypatch.setattr(Disk, "tick", logged_tick)
    apply = workload.apply_ops

    def logged_apply(ops, fs):
        applying.append(True)
        try:
            apply(ops, fs)
        finally:
            applying.pop()

    patch_everywhere(monkeypatch, apply, logged_apply)
    spatial = priority.update_spatial_factors

    def logged_pass(disk):
        spatial(disk)
        log.append("pass")

    patch_everywhere(monkeypatch, spatial, logged_pass)
    for method in ("create_file", "delete_file", "access", "write_file"):
        def logged_op(fs, *args, _apply=getattr(FileSystem, method)):
            log.append("op")
            return _apply(fs, *args)

        monkeypatch.setattr(FileSystem, method, logged_op)
    return log


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
def test_simulate_and_replay_tick_apply_then_pass_per_op(clock, neighborhood):
    cfg = WorkloadConfig(rng_seed=3, total_ops=150, max_file_blocks=6,
                         min_utilization=0.4, op_mix=(0.4, 0.3, 0.3))
    _, trace = run_simulation(cfg, make_fs(rows=8, cols=8, neighborhood=neighborhood))
    assert clock == OP * cfg.total_ops
    clock.clear()
    replay_trace(trace, make_fs(rows=8, cols=8, neighborhood=neighborhood))
    assert clock == OP * cfg.total_ops


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
def test_train_and_its_evaluations_tick_apply_then_pass_per_op(clock, neighborhood):
    schedule = TrainSchedule(min_budget=3, oin_per_min=40)
    train(TrainConfig(DiskGeometry(8, 8, Neighborhood.parse(neighborhood)), schedule,
                      WorkloadConfig(rng_seed=3, max_file_blocks=6)))
    assert clock == OP * (3 + 2) * schedule.oin_per_min


@pytest.mark.parametrize("neighborhood", NEIGHBORHOODS)
def test_compare_phases_and_floods_tick_apply_then_pass_per_op(clock, neighborhood):
    settings = CompareSettings(primary_count=2, primary_data_blocks=5, secondary_targets=(9, 30, 61),
                               secondary_min_blocks=2, secondary_max_blocks=7, seeds=(0, 1),
                               policies=("apex", "first-fit", "random"))
    rows = run_compare(DiskGeometry(8, 8, Neighborhood.parse(neighborhood)),
                       Hyperparams(4, 7, 1, 9), settings)
    assert len(rows) == 3 * 3 * 2
    ops = len(clock) // 3
    # four primary phases (apex, first-fit, random per seed), 2 ops per
    # primary; the floods made the rest
    assert ops > 4 * 2 * settings.primary_count
    assert clock == OP * ops
