"""Golden outputs: fixed seeds give byte-identical reports and traces.

Each case hashes what a command writes: the simulate report JSON and its
trace bytes on every neighborhood kind under every policy, one two-seed
surveillance compare, one short train, and the report file each of the
simulate, replay and compare commands writes. The simulate and replay reports
hold a recovery row per deleted or obsolete file and embed the end state's
snapshot sha256, which covers every block's factors and lineage.
Most churn bumps are wiped before the end, when their block is
claimed again, so the simulate cases also hash the used mask and the factor
arrays after every op: a single bump that moves changes that hash. A change that sets out
to alter behaviour updates these values and says so.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from apexsim.cli import main
from apexsim.compare import compare_report_json, run_compare
from apexsim.config import load_config
from apexsim.disk import new_disk
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.policies import make_policy
from apexsim.tuner import train
from apexsim.vfs import LINKED, PARTIAL, FileSystem, type_class_for_path
from apexsim.workload import (
    WorkloadConfig, WorkloadRunner, read_trace, replay_trace, run_simulation, write_trace,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# 16x16, create/delete-heavy: most ops claim over or free earlier files' blocks.
SIM_WORKLOAD = WorkloadConfig(
    rng_seed=5, total_ops=300, max_file_blocks=12, min_utilization=0.5, op_mix=(0.2, 0.4, 0.4)
)

# The trace records op outcomes, not block addresses, so every policy and
# neighborhood replays the same op stream.
SIM_TRACE_GOLDEN = "8875caaa729bae80e3c4faff82ca8ef4fd09fcba0664afbedf113a8e02a07f60"
# (neighborhood, policy) -> (report sha256, factor trajectory sha256)
SIM_GOLDEN = {
    ("grid-row", "apex"): (
        "013c3fe90b53dc7935c00909b6e42d2e5fdbd39ebf43cb127ba9f549e03c5d6b",
        "197f74a98acd3ec88894a73679b1680cd66f1af91c1c93584f4bd26e329b1517",
    ),
    ("grid-row", "first-fit"): (
        "b817e9878d2ad0b6ea5860d29217234ba7a1c4edc9893f042cf7708622676abb",
        "e2aba3b50a7a1d025877da03f84e1aebd46a869890498c500c9b3c64a6a6eb6b",
    ),
    ("grid-row", "random"): (
        "cd37c4d6f1fdcc63e59e883cd38431eeac564823126f5625cf6d402de2d4eabc",
        "87cf27ce857cfcc30c6f5be84da25f4672496132cdbf793c74ee8595aecef657",
    ),
    ("none", "apex"): (
        "5041d1c8a665a08048060e5ae599fd351eecff20c7b1d9ca483351f12266c198",
        "f7d92d38df0c32689c16f518e104cc450f21377e05015495588640ca9afad7bf",
    ),
    ("none", "first-fit"): (
        "e7076f318b9b196faa8d13db53118278a327fcd914060144abd231b4f2b1001b",
        "06fc46627feb236ceeb369c30a5e4ab36d169b0786586dde8e8e0633ea60f5bf",
    ),
    ("none", "random"): (
        "946d601f1a486fe52d7652f78fcd2bf09ed7e06d5d77d484097c66c6ac0b89a3",
        "e7abda7983f6f19fb34e36377f06b903052c0f8c7e40cea828cbae4f5d5fe8c4",
    ),
    ("contiguous:3", "apex"): (
        "7252d249fba445230e2a6dde1e4f56baf85552f84e7f8bd4a3d8633083be061c",
        "8dab82a35ad322502a3123449d9c6015906aa9b499c725fb0aab8ac5db172af1",
    ),
    ("contiguous:3", "first-fit"): (
        "f282921cbd3a5e5b9f2df9adf738e5a79f769f856c65a4acdf9d468af8762107",
        "51a0476677ca2bd8d18398e779d59c9328a5d79072676dcc1876e29403f6b2b5",
    ),
    ("contiguous:3", "random"): (
        "d3c7ef6471339f541fd1b36ac6875ccc2da0d818bdfe6c9fff1210ff3d88dd93",
        "7595e7ee57a695cd6f47acffc6c3557503d94b006adce16bc43d60db11ddee8c",
    ),
}
COMPARE_GOLDEN = "0fe614a548be6fbb526da0bf2a450d9c885c74812b69f32714838d08d5c79126"
TRAIN_GOLDEN = "e5f006ae075cea182741f52839747c8f445763be5663cfb5063bead8b19b5591"

# The report file embeds the config file's sha256, so the config text is part
# of the pin.
CLI_CONFIG = """\
[disk]
rows = 8
cols = 8
neighborhood = contiguous:2

[workload]
seed = 7
total_ops = 120
max_file_blocks = 4

[compare]
primary_count = 2
primary_blocks = 4
secondary_blocks = 10,20
secondary_min_blocks = 2
secondary_max_blocks = 3
seed_count = 2
policies = apex,first-fit,random
"""
# command -> sha256 of the .json report file it writes
CLI_GOLDEN = {
    "compare": "bb001781daafc54cc33e4ec6b9ac11e1c03ecc8300edfe223d47712c897e3166",
    "replay": "5acc46a9931ceb76550d6489049a5b17c7708090d69973acc503bb42cbc49139",
    "simulate": "cf31d3a7b10daaa25a663ee72844645fa73b224e2dd8d49560da37a0d9f46fe7",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_fs(neighborhood, policy):
    geo = DiskGeometry(16, 16, 4096, Neighborhood.parse(neighborhood))
    disk = new_disk(geo, Hyperparams(4, 7, 1, 9))
    return FileSystem(disk, policy=make_policy(policy, seed=SIM_WORKLOAD.rng_seed))


def factor_trajectory(fs) -> str:
    """sha256 over the used mask and the four factor arrays after every op."""
    runner = WorkloadRunner(SIM_WORKLOAD, fs)
    disk = fs.disk
    h = hashlib.sha256()
    for _ in range(SIM_WORKLOAD.total_ops):
        runner.step()
        for arr in (disk.used_mask, disk.hf, disk.uf, disk.sf, disk.lf):
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("neighborhood,policy", sorted(SIM_GOLDEN))
def test_simulate_report_trace_and_factor_trajectory(neighborhood, policy):
    report, trace = run_simulation(SIM_WORKLOAD, fresh_fs(neighborhood, policy))
    trace_bytes = "".join(op.to_json_line() + "\n" for op in trace)
    assert sha256(trace_bytes) == SIM_TRACE_GOLDEN
    got = (sha256(report.to_json()), factor_trajectory(fresh_fs(neighborhood, policy)))
    assert got == SIM_GOLDEN[neighborhood, policy]


@pytest.mark.parametrize("contradict", [False, True], ids=["type-of-path", "type-contradicting-path"])
def test_trace_with_type_keys_replays_to_the_same_report(tmp_path, contradict):
    """Traces once carried each create's format class as "type". Such a trace
    replays to the same report bytes as the trace written today: a file's
    class comes from its path's extension, and a "type" that contradicts it
    is ignored."""
    _, trace = run_simulation(SIM_WORKLOAD, fresh_fs("grid-row", "apex"))
    write_trace(trace, tmp_path / "new.trace.jsonl")
    expected = replay_trace(read_trace(tmp_path / "new.trace.jsonl"), fresh_fs("grid-row", "apex"))
    docs = [json.loads(op.to_json_line()) for op in trace]
    creates = [doc for doc in docs if doc["op"] == "create"]
    for doc in creates:
        cls = type_class_for_path(doc["path"])
        doc["type"] = {LINKED: PARTIAL, PARTIAL: LINKED}[cls] if contradict else cls
    assert {doc["type"] for doc in creates} == {LINKED, PARTIAL}
    old = tmp_path / "old.trace.jsonl"
    old.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert replay_trace(read_trace(old), fresh_fs("grid-row", "apex")).to_json() == expected.to_json()


def test_surveillance_compare_two_seeds():
    cfg = load_config(str(CONFIGS / "surveillance.ini"))
    settings = replace(cfg.compare_settings, seeds=(0, 1))
    rows = run_compare(cfg.geometry, cfg.coefficients, settings, cfg.invert_link_rule)
    assert sha256(compare_report_json(settings, rows, cfg.geometry, cfg.coefficients)) == COMPARE_GOLDEN


def test_train_three_intervals():
    cfg = load_config(str(CONFIGS / "example.ini"))
    tc = cfg.train_config()
    tc = replace(tc, schedule=replace(tc.schedule, min_budget=3))
    assert sha256(train(tc).to_json()) == TRAIN_GOLDEN


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_report_file(tmp_path, command):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CLI_CONFIG)
    trace = tmp_path / "run.trace.jsonl"
    args = ["--config", str(cfg)]
    if command in ("simulate", "replay"):
        args += ["--trace", str(trace)]
    if command == "replay":
        assert main(["simulate", *args, "--out", str(tmp_path / "sim")]) == 0
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    (report,) = out.glob("*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CLI_GOLDEN[command]
