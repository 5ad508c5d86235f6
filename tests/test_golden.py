"""Golden outputs: fixed seeds give byte-identical reports and traces.

Each case hashes what a command writes: the simulate report JSON and its
trace bytes on every neighborhood kind under every policy, one two-seed
surveillance compare and one short train. The report embeds the end state's
snapshot sha256, which covers every block's factors, lineage and payload.
Most churn bumps are wiped before the end, when their block is claimed again,
so the simulate cases also hash the used mask and the factor arrays after
every op: a single bump that moves changes that hash. A change that sets out
to alter behaviour updates these values and says so.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

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
        "ee8adce18a9f1dd6570443ab9316b233089b89c014875f5c4f414ff654077837",
        "197f74a98acd3ec88894a73679b1680cd66f1af91c1c93584f4bd26e329b1517",
    ),
    ("grid-row", "first-fit"): (
        "f23993088e416206c91e9e3a4370f95dae4128f8687d2d1215fc1600adf6b528",
        "e2aba3b50a7a1d025877da03f84e1aebd46a869890498c500c9b3c64a6a6eb6b",
    ),
    ("grid-row", "random"): (
        "16c7df6f767eaf9864474b3a8b886dfcfcf21e41b009a2ecce92bf977d1fd78b",
        "87cf27ce857cfcc30c6f5be84da25f4672496132cdbf793c74ee8595aecef657",
    ),
    ("none", "apex"): (
        "8482104d32d508e4421e9f970ed1feed1601b740316e22a0e1c1a466c82a9599",
        "f7d92d38df0c32689c16f518e104cc450f21377e05015495588640ca9afad7bf",
    ),
    ("none", "first-fit"): (
        "3740e8f46c39de885a67ba94b1251504cda1cfbdecef80e3cd328fab76771d70",
        "06fc46627feb236ceeb369c30a5e4ab36d169b0786586dde8e8e0633ea60f5bf",
    ),
    ("none", "random"): (
        "b98b001bbe8ecabe0d362366c0a457d97e0d20ce8a87dcc3caa40e9b31cf968b",
        "e7abda7983f6f19fb34e36377f06b903052c0f8c7e40cea828cbae4f5d5fe8c4",
    ),
    ("contiguous:3", "apex"): (
        "d9e29046003af07bbebde8ff436b05721dcd2ebe9403a1fce2eab01ad6ff0db1",
        "8dab82a35ad322502a3123449d9c6015906aa9b499c725fb0aab8ac5db172af1",
    ),
    ("contiguous:3", "first-fit"): (
        "67150e6164259ccd30c8759992de6dd51cd67d5ba54ab4ae40c9d038a927d104",
        "51a0476677ca2bd8d18398e779d59c9328a5d79072676dcc1876e29403f6b2b5",
    ),
    ("contiguous:3", "random"): (
        "c62ff525d2345c2d1a5e17ffeb6e8ea88870b20ce0ddb891beea6c4e1941e3ad",
        "7595e7ee57a695cd6f47acffc6c3557503d94b006adce16bc43d60db11ddee8c",
    ),
}
COMPARE_GOLDEN = "0fe614a548be6fbb526da0bf2a450d9c885c74812b69f32714838d08d5c79126"
TRAIN_GOLDEN = "e614cdb091e517ce8095e0fc86b550a7d1139332c25e48ae5b33887b05b33ee8"


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
