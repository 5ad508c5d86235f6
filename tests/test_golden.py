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
        "717a44841d1f16f5bd71a236ffe5bee702d611130dbecff1d32fad559711c490",
        "197f74a98acd3ec88894a73679b1680cd66f1af91c1c93584f4bd26e329b1517",
    ),
    ("grid-row", "first-fit"): (
        "96d5444fcc1f2a1151babbf199d432e90f23ec7d9f3a1ab1e8dd29f56959ae5d",
        "e2aba3b50a7a1d025877da03f84e1aebd46a869890498c500c9b3c64a6a6eb6b",
    ),
    ("grid-row", "random"): (
        "300130d26a98df389673eff0836d8e68f279fc9348ed6b348fa399cf28de038f",
        "87cf27ce857cfcc30c6f5be84da25f4672496132cdbf793c74ee8595aecef657",
    ),
    ("none", "apex"): (
        "b5e540eb5193cd28f71772dd2094106663c60e1bc73519a03419b981a59e6e31",
        "f7d92d38df0c32689c16f518e104cc450f21377e05015495588640ca9afad7bf",
    ),
    ("none", "first-fit"): (
        "90f454e5365736faa7d81fce121c92e01a7f654095c6a5a317f9ebcbb0bc3954",
        "06fc46627feb236ceeb369c30a5e4ab36d169b0786586dde8e8e0633ea60f5bf",
    ),
    ("none", "random"): (
        "019d5c0cf763a37e1c860a321a9ee1290ae1691b18aca0d4e81c4dfb82af42da",
        "e7abda7983f6f19fb34e36377f06b903052c0f8c7e40cea828cbae4f5d5fe8c4",
    ),
    ("contiguous:3", "apex"): (
        "9d1837af2bd772bfcbc639255897c94b23a06257e434c43e3be05b7d51c4ad3b",
        "8dab82a35ad322502a3123449d9c6015906aa9b499c725fb0aab8ac5db172af1",
    ),
    ("contiguous:3", "first-fit"): (
        "66e4a83448a9ea33064cac13ccd528c05a7c573c5aa2fea25aa2275a02914b5f",
        "51a0476677ca2bd8d18398e779d59c9328a5d79072676dcc1876e29403f6b2b5",
    ),
    ("contiguous:3", "random"): (
        "a15af79820d55bd908d543ca73d5b2bc47d8870e1a99375268cad95d828edc60",
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
    "replay": "fee45d6fe4318a2519ff294e844a79807a4ef7f18399f7caa8a9e8824596d1e1",
    "simulate": "4f6b1c9e56aac45578f8e3eb2094b5a9afde5460b338a221adc9d5379327f1bb",
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
