"""Golden outputs: fixed seeds give byte-identical reports and traces.

Each case hashes what a command writes: the simulate report JSON and its
trace bytes on every neighborhood kind under every policy, one two-seed
surveillance compare, one short train, and the report file each of the
simulate, replay, recover and compare commands writes. The report embeds the
end state's snapshot sha256, which covers every block's factors and lineage.
Most churn bumps are wiped before the end, when their block is
claimed again, so the simulate cases also hash the used mask and the factor
arrays after every op: a single bump that moves changes that hash. A change that sets out
to alter behaviour updates these values and says so.
"""

import hashlib
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
from apexsim.vfs import FileSystem
from apexsim.workload import WorkloadConfig, WorkloadRunner, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# 16x16, create/delete-heavy: most ops claim over or free earlier files' blocks.
SIM_WORKLOAD = WorkloadConfig(
    rng_seed=5, total_ops=300, max_file_blocks=12, min_utilization=0.5, op_mix=(0.2, 0.4, 0.4)
)

# The trace records op outcomes, not block addresses, so every policy and
# neighborhood replays the same op stream.
SIM_TRACE_GOLDEN = "5494025583a4a38cf4219e0718930db1ef4cf685d46de293a6f4d657c1b178d5"
# (neighborhood, policy) -> (report sha256, factor trajectory sha256)
SIM_GOLDEN = {
    ("grid-row", "apex"): (
        "974cd7ca40c94d841f329efeea79dda4afca7b65fcc6e3c3bc912c13d354ae43",
        "197f74a98acd3ec88894a73679b1680cd66f1af91c1c93584f4bd26e329b1517",
    ),
    ("grid-row", "first-fit"): (
        "7df72f00167a93d66e0514b57a7265bc97a1e3e6c9c696de3d681534a4829c67",
        "e2aba3b50a7a1d025877da03f84e1aebd46a869890498c500c9b3c64a6a6eb6b",
    ),
    ("grid-row", "random"): (
        "f37171efeebc874d2fb1cec9a4561b920b8e4e8943dc4073e1ec54a35ce5c01a",
        "87cf27ce857cfcc30c6f5be84da25f4672496132cdbf793c74ee8595aecef657",
    ),
    ("none", "apex"): (
        "b0ce8741d5600032d5e8c81e0ebeb2f11f2628ee8236b38cbca9bb60ca924145",
        "f7d92d38df0c32689c16f518e104cc450f21377e05015495588640ca9afad7bf",
    ),
    ("none", "first-fit"): (
        "caa643b8f78b3669cf87e982b5ed49481b3729dc742dc8e5b3c8f57e8d0e51f8",
        "06fc46627feb236ceeb369c30a5e4ab36d169b0786586dde8e8e0633ea60f5bf",
    ),
    ("none", "random"): (
        "c281dba34f8a5d9223f983df926b7bfee01036d6e00682d145b3be0f1ed5979b",
        "e7abda7983f6f19fb34e36377f06b903052c0f8c7e40cea828cbae4f5d5fe8c4",
    ),
    ("contiguous:3", "apex"): (
        "bd0f1abf98fc18b6bcc2e724bcb00c48afa69867b2e140eef5986289481b9320",
        "8dab82a35ad322502a3123449d9c6015906aa9b499c725fb0aab8ac5db172af1",
    ),
    ("contiguous:3", "first-fit"): (
        "616301bfd8bf0b647af04ab064b0dd7b11d4df2e1b475be5aafaa7cb08d90128",
        "51a0476677ca2bd8d18398e779d59c9328a5d79072676dcc1876e29403f6b2b5",
    ),
    ("contiguous:3", "random"): (
        "a1cbe2d85eb780d56295048acaf0f07227d551a7e40bce391733155c8d38a280",
        "7595e7ee57a695cd6f47acffc6c3557503d94b006adce16bc43d60db11ddee8c",
    ),
}
COMPARE_GOLDEN = "0fe614a548be6fbb526da0bf2a450d9c885c74812b69f32714838d08d5c79126"
TRAIN_GOLDEN = "e614cdb091e517ce8095e0fc86b550a7d1139332c25e48ae5b33887b05b33ee8"

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
    "compare": "fad10648d4ffc2afe27550f2d3fcd8471aa178416b006b2394e826536f07e57d",
    "recover": "173b682050bf8438afab64d79ed772fc35ca061c635e3c8d0784324a5d37b982",
    "replay": "4a55cae65fc8f96d458b4fa761b59458255b03c910b6d1862a2551c31523b4f8",
    "simulate": "e478744c8ff84d0f651122c42e1d462163ee1e8181ab6cbb9967ba93ac0f48fc",
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
