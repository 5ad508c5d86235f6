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
import random
from dataclasses import replace
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

from apexsim.cli import main
from apexsim.compare import compare_report_json, run_compare
from apexsim.config import load_config
from apexsim.disk import new_disk
from apexsim.model import DiskGeometry, Hyperparams, Neighborhood
from apexsim.policies import make_policy
from apexsim.recovery import access_time_term
from apexsim.tuner import train
from apexsim.vfs import LINKED, PARTIAL, FileSystem, type_class_for_path
from apexsim.workload import (
    WorkloadConfig, read_trace, replay_trace, run_simulation, write_trace,
)

from conftest import applied_ops

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# 16x16, create/delete-heavy: most ops claim over or free earlier files' blocks.
SIM_WORKLOAD = WorkloadConfig(
    rng_seed=5, total_ops=300, max_file_blocks=12, min_utilization=0.5, op_mix=(0.2, 0.4, 0.4)
)

# The trace records op outcomes, not block addresses, so every policy and
# neighborhood replays the same op stream.
SIM_TRACE_GOLDEN = "4df7cd5318bfa99d5e239939cc824cd5a0a5c3d43f37aad69b035d4509560b81"
# (neighborhood, policy) -> (report sha256, factor trajectory sha256)
SIM_GOLDEN = {
    ("grid-row", "apex"): (
        "2ff4e7becc6a408b27ff0646e42062f4fd7e496d381f3cbafc35ec7abb667eb4",
        "197f74a98acd3ec88894a73679b1680cd66f1af91c1c93584f4bd26e329b1517",
    ),
    ("grid-row", "first-fit"): (
        "e658a11c5aa4b44c01d1de032c708cbc616e0352755ec0458ff5c81be2cb68e5",
        "e2aba3b50a7a1d025877da03f84e1aebd46a869890498c500c9b3c64a6a6eb6b",
    ),
    ("grid-row", "random"): (
        "0e5f65c83d7ef95bbc58b1ff503512fe7a6c693044e5c71ed02f69af6e07d6d0",
        "87cf27ce857cfcc30c6f5be84da25f4672496132cdbf793c74ee8595aecef657",
    ),
    ("none", "apex"): (
        "f0856ab5a3cb25e75194831d6f6f6bba3a390e9cc90bc4e4f5dfc30f4c2691d0",
        "f7d92d38df0c32689c16f518e104cc450f21377e05015495588640ca9afad7bf",
    ),
    ("none", "first-fit"): (
        "12d931e5b4762d606538327de97aa1f242121c1ddfc6ece539a2828af08365f1",
        "06fc46627feb236ceeb369c30a5e4ab36d169b0786586dde8e8e0633ea60f5bf",
    ),
    ("none", "random"): (
        "ff156df1782a9bb0582fca103cb145f69ec9b4ee3ca76cf73c209462c90b42df",
        "e7abda7983f6f19fb34e36377f06b903052c0f8c7e40cea828cbae4f5d5fe8c4",
    ),
    ("contiguous:3", "apex"): (
        "6221357a779c39bad9237b499e27b5a1f142e6f4f92a036ee426c14c8ca954e0",
        "8dab82a35ad322502a3123449d9c6015906aa9b499c725fb0aab8ac5db172af1",
    ),
    ("contiguous:3", "first-fit"): (
        "c52f5ea713e7634d4df4012d8afd4c81074d6fe66e7ead275f37a3ea848d50dc",
        "51a0476677ca2bd8d18398e779d59c9328a5d79072676dcc1876e29403f6b2b5",
    ),
    ("contiguous:3", "random"): (
        "d5ae682abaec7c6ed0f990de22824641c0181155fe1a7009791a7ef6f6bcdd20",
        "7595e7ee57a695cd6f47acffc6c3557503d94b006adce16bc43d60db11ddee8c",
    ),
}
COMPARE_GOLDEN = "a4cfa7bc4e5210c5e60d646375c52e33bfc8355b8dee8ecc4239f5d445d5e145"
TRAIN_GOLDEN = "fd6027caee2097b9bc292b6b81fa7f032b480c55378d5fe6dfd3ed884886431c"

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
    "compare": "23bb79bd4f12d63d449a94c6d0ce69edb61a222954c56aea61b6721639204e9c",
    "replay": "5713d60dd4318a07bbe71dd4419452e52dc98b3553380afe9e4c22e2fb4148af",
    "simulate": "51dd8c493a7441fc02edf24e4aa83831b9770ba94325444929d23a5c9604dd97",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_fs(neighborhood, policy):
    geo = DiskGeometry(16, 16, Neighborhood.parse(neighborhood))
    disk = new_disk(geo, Hyperparams(4, 7, 1, 9))
    return FileSystem(disk, policy=make_policy(policy, seed=SIM_WORKLOAD.rng_seed))


def factor_trajectory(fs) -> str:
    """sha256 over the used mask and the four factor arrays after every op."""
    disk = fs.disk
    h = hashlib.sha256()
    for _ in islice(applied_ops(SIM_WORKLOAD, fs), SIM_WORKLOAD.total_ops):
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


@pytest.mark.parametrize("neighborhood", ["contiguous:3", "grid-row", "none"])
def test_seek_term_does_not_depend_on_the_order_of_the_live_files(neighborhood):
    """aat_seek is a function of the set of live files: on the apex end
    state of each simulate case, access_time_term gives the same bits over
    any permutation of the live files."""
    fs = fresh_fs(neighborhood, "apex")
    run_simulation(SIM_WORKLOAD, fs)
    files = fs.live_files()
    expected = access_time_term(fs)
    rng = random.Random(0)
    orders = [files[::-1], sorted(files, key=lambda f: f.path)]
    orders += [rng.sample(files, len(files)) for _ in range(20)]
    for order in orders:
        stub = SimpleNamespace(disk=fs.disk, live_files=lambda order=order: order)
        assert access_time_term(stub).hex() == expected.hex()


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
