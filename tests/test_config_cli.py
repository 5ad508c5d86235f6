"""Config file parsing and the command line surface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import apexsim
from apexsim.cli import build_parser, main
from apexsim.compare import CompareSettings
from apexsim.config import KEYS, AppConfig, load_config
from apexsim.errors import ConfigError
from apexsim.model import DiskGeometry
from apexsim.recovery import PerfWeights
from apexsim.tuner import TrainConfig, TrainSchedule
from apexsim.workload import WorkloadConfig

from test_config_fuzz import KEYS as FUZZ_KEYS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ["compare", "replay", "simulate", "train"]


def write_cfg(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = """
[disk]
rows = 8
cols = 8

[workload]
seed = 7
total_ops = 120
max_file_blocks = 4
"""


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "[disk]\nrows = 4\ncols = 4\n"))
    assert cfg.geometry.total_blocks == 16
    assert cfg.geometry.block_size_bytes == 4096
    assert str(cfg.geometry.neighborhood) == "grid-row"
    assert cfg.policy_kind == "apex"
    assert cfg.coefficients.as_tuple() == (4, 7, 1, 9)
    assert cfg.invert_link_rule is False
    assert cfg.workload.total_ops == 1000
    assert cfg.weights.alpha == 1.0
    assert cfg.train_config().schedule.min_budget == 500


def test_defaults_are_the_dataclass_defaults(tmp_path):
    """An empty file gets every default from the dataclasses, and example.ini,
    which spells out the built-in defaults, loads to the same config."""
    cfg = load_config(write_cfg(tmp_path, ""))
    assert cfg == load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.ini"))
    assert cfg.geometry == DiskGeometry()
    assert cfg.workload == WorkloadConfig()
    assert cfg.weights == PerfWeights()
    assert cfg.compare_settings == CompareSettings()
    assert cfg.train_config() == TrainConfig(DiskGeometry(), TrainSchedule(), WorkloadConfig())
    assert cfg == AppConfig(DiskGeometry(), WorkloadConfig(), PerfWeights(),
                            cfg.train_config(), CompareSettings())


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_every_committed_config_loads(name):
    """Each config in configs/ loads: every section and key it sets is one of
    config.KEYS, and every value is in range."""
    load_config(str(CONFIGS / name))


def test_readme_and_fuzz_table_name_exactly_the_grammar():
    """config.KEYS is the one statement of the grammar. The README's
    [section] rows list its keys, each as a backticked name outside any
    parentheses, and the fuzz table draws values for exactly its pairs."""
    grammar = {(section, key) for section, keys in KEYS.items() for key in keys}
    readme = (CONFIGS.parent / "README.md").read_text()
    documented = set()
    for section, cell in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$", readme, re.MULTILINE):
        top_level = re.sub(r"\([^()]*\)", "", cell)
        documented |= {(section, key) for key in re.findall(r"`([^`]+)`", top_level)}
    assert documented == grammar
    assert set(FUZZ_KEYS) == grammar


def test_load_config_reads_every_section(tmp_path):
    body = """
[disk]
rows = 4
cols = 8
block_size = 512
neighborhood = contiguous:2
invert_link_rule = true

[policy]
kind = first-fit
coefficients = 2,3,4,5

[workload]
seed = 9
total_ops = 50
max_file_blocks = 3
linked_percent = 35
min_utilization = 0.4
mix = 0.6,0.2,0.2

[perf]
beta = 0.2

[train]
initial = 2,2,2,2
min_budget = 12
oin_per_min = 40
learning_rate = 1
discount = 0

[compare]
seed_count = 3
"""
    cfg = load_config(write_cfg(tmp_path, body))
    assert cfg.geometry.rows == 4 and cfg.geometry.cols == 8
    assert cfg.geometry.neighborhood.span == 2
    assert cfg.invert_link_rule is True
    assert cfg.policy_kind == "first-fit"
    assert cfg.coefficients.as_tuple() == (2, 3, 4, 5)
    assert cfg.workload.rng_seed == 9
    assert cfg.workload.op_mix == (0.6, 0.2, 0.2)
    assert cfg.weights == PerfWeights(0.2)
    assert cfg.weights.alpha == 0.8
    assert cfg.compare_settings.seeds == (0, 1, 2)
    tc = cfg.train_config()
    assert (tc.learning_rate, tc.discount) == (1.0, 0.0)
    assert tc.initial.as_tuple() == (2, 2, 2, 2)
    assert tc.schedule.min_budget == 12
    assert tc.invert_link_rule is True


def test_load_config_overrides(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    cfg = load_config(path, seed_override=99, policy_override="random")
    assert cfg.workload.rng_seed == 99
    assert cfg.policy_kind == "random"


def test_load_config_errors_name_the_file(tmp_path):
    missing = str(tmp_path / "nope.ini")
    with pytest.raises(ConfigError) as e:
        load_config(missing)
    assert "nope.ini" in str(e.value)

    bad_rows = write_cfg(tmp_path, "[disk]\nrows = many\ncols = 4\n", "rows.ini")
    with pytest.raises(ConfigError) as e:
        load_config(bad_rows)
    assert "rows.ini" in str(e.value) and "rows" in str(e.value)

    bad_policy = write_cfg(tmp_path, "[policy]\nkind = best\n", "pol.ini")
    with pytest.raises(ConfigError) as e:
        load_config(bad_policy)
    assert "[policy]" in str(e.value)

    bad_initial = write_cfg(tmp_path, "[train]\ninitial = 0,5,5,5\n", "init.ini")
    with pytest.raises(ConfigError) as e:
        load_config(bad_initial)
    assert "initial" in str(e.value)


def run_cli(args):
    return main(args)


def only_file(out_dir, suffix):
    names = [n for n in os.listdir(out_dir) if n.endswith(suffix)]
    assert len(names) == 1, f"expected one {suffix} in {out_dir}, got {names}"
    return os.path.join(out_dir, names[0])


def test_cli_simulate_writes_report_and_trace(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    report_path = only_file(out, ".json")
    trace_path = only_file(out, ".trace.jsonl")
    doc = json.loads(Path(report_path).read_text())
    assert doc["seed"] == 7
    assert sum(doc["op_counts"].values()) == 120
    assert doc["config_sha256"]
    assert len(Path(trace_path).read_text().splitlines()) == 120


def test_cli_recover_reports_deleted_files(tmp_path):
    """The simulate report carries one recovery row per retired file."""
    cfg = write_cfg(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    rows = doc["files"]
    assert rows, "a 120-op churn run should retire at least one file"
    for row in rows:
        assert 0.0 <= row["rr"] <= 1.0
        assert row["status"] in ("deleted", "obsolete")


def test_cli_simulate_without_deletions_reports_no_files(tmp_path):
    body = "[disk]\nrows = 8\ncols = 8\n\n[workload]\nseed = 1\ntotal_ops = 0\n"
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    assert doc["files"] == []
    assert doc["weighted_rr"] == 0.0


def test_cli_simulate_same_seed_same_report(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    docs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        doc = json.loads(Path(only_file(out, ".json")).read_text())
        doc.pop("config_sha256")
        docs.append(doc)
    assert docs[0] == docs[1]


# report keys, at any depth, that a reader can recompute from the rest of the
# report, and the access-time mode, which has one value left
DERIVABLE_KEYS = {"executed_ops", "files_deleted", "files_obsolete", "perf_alpha", "alpha",
                  "first_min_p", "visited", "tau", "aat_timestamp", "aat_mode"}


def keys_of(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from keys_of(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from keys_of(value)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_report_is_format_version_2_without_derivable_keys(tmp_path, command):
    """Every command's report file names its format and version 2, and none
    of its keys restates the rest of it."""
    body = MINIMAL + """
[train]
min_budget = 2
oin_per_min = 20

[compare]
primary_count = 2
primary_blocks = 4
secondary_blocks = 10
secondary_min_blocks = 2
secondary_max_blocks = 3
seed_count = 1
"""
    out = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, body), "--out", str(out)]
    if command == "replay":
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(CREATE)
        argv += ["--trace", str(trace)]
    assert run_cli(argv) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    assert (doc["format"], doc["version"]) == ("apexsim-report", 2)
    assert not DERIVABLE_KEYS & set(keys_of(doc))


def test_cli_simulate_contiguous_span_wider_than_disk(tmp_path):
    body = """
[disk]
rows = 2
cols = 4
neighborhood = contiguous:10

[workload]
total_ops = 60
max_file_blocks = 2
"""
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    assert sum(doc["op_counts"].values()) == 60


def test_cli_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_cli(["simulate", "--config", cfg, "--seed", "21", "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    assert doc["seed"] == 21


def test_cli_replay_matches_simulation(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = str(tmp_path / "sim")
    trace = str(tmp_path / "run.trace.jsonl")
    assert run_cli(["simulate", "--config", cfg, "--trace", trace, "--out", out]) == 0
    sim_doc = json.loads(Path(only_file(out, ".json")).read_text())

    out2 = str(tmp_path / "rep")
    assert run_cli(["replay", "--config", cfg, "--trace", trace, "--out", out2]) == 0
    rep_doc = json.loads(Path(only_file(out2, ".json")).read_text())
    assert rep_doc["snapshot_sha256"] == sim_doc["snapshot_sha256"]
    assert rep_doc["trace_path"] == "run.trace.jsonl"


def test_cli_recover_from_trace_matches_simulation(tmp_path):
    """replay of a trace that simulate wrote reports the same per-file
    recovery rows and weighted RR as simulate did."""
    cfg = write_cfg(tmp_path, MINIMAL)
    trace = str(tmp_path / "run.trace.jsonl")
    docs = []
    for name, argv in (("direct", ["simulate", "--config", cfg, "--trace", trace]),
                       ("replayed", ["replay", "--config", cfg, "--trace", trace])):
        out = str(tmp_path / name)
        assert run_cli([*argv, "--out", out]) == 0
        docs.append(json.loads(Path(only_file(out, ".json")).read_text()))
    assert docs[1]["files"] == docs[0]["files"]
    assert docs[1]["weighted_rr"] == docs[0]["weighted_rr"]
    assert docs[0]["files"]


def test_cli_replay_without_trace_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert run_cli(["replay", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "trace" in capsys.readouterr().err


CREATE = '{"tick":1,"op":"create","path":"/a.txt","size_blocks":1}\n'


@pytest.mark.parametrize(
    "trace",
    [
        '{"tick":1,"op":"create","path":"a.txt","size_blocks":1}\n',
        '{"tick":1,"op":"create","path":5,"size_blocks":1}\n',
        '{"tick":1,"op":"create","path":"/","size_blocks":1}\n',
        '{"tick":1,"op":"create","path":"/a/b.txt","size_blocks":1}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":-3}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":"x"}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":64}\n',
        CREATE + '{"tick":2,"op":"write","path":"/a.txt","offset":4000,"len":200}\n',
        CREATE + '{"tick":2,"op":"write","path":"/a.txt","offset":"0","len":10}\n',
        '{"tick":1.7,"op":"create","path":"/a.txt","size_blocks":1}\n',
        '{"tick":"7","op":"create","path":"/a.txt","size_blocks":1}\n',
        '{"tick":true,"op":"create","path":"/a.txt","size_blocks":1}\n',
    ],
    ids=["relative-path", "int-path", "root-path", "nested-path", "negative-size",
         "text-size", "create-beyond-disk", "write-past-size", "text-offset",
         "float-tick", "text-tick", "bool-tick"],
)
def test_cli_replay_rejects_malformed_trace(tmp_path, capsys, trace):
    """A trace line of the wrong shape, or an op the disk cannot carry out, is
    bad input (exit 2) that writes no report, not an internal error."""
    cfg = write_cfg(tmp_path, MINIMAL)
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(trace)
    out = tmp_path / "out"
    assert run_cli(["replay", "--config", cfg, "--trace", str(path), "--out", str(out)]) == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


LATIN_1 = "# caf\u00e9\n".encode("latin-1")  # not UTF-8
DEEP = ("[" * 100_000 + "]" * 100_000 + "\n").encode()  # past json's recursion limit


@pytest.mark.parametrize(
    "command, config_tail, trace",
    [
        ("simulate", LATIN_1, None),
        ("train", LATIN_1, None),
        ("compare", LATIN_1, None),
        ("replay", LATIN_1, CREATE.encode()),
        ("replay", b"", LATIN_1),
        ("replay", b"", DEEP),
    ],
    ids=["simulate-config-latin-1", "train-config-latin-1", "compare-config-latin-1",
         "replay-config-latin-1", "replay-trace-latin-1", "replay-trace-too-deep"],
)
def test_cli_undecodable_input_exits_two(tmp_path, capsys, command, config_tail, trace):
    """A config or trace that is not UTF-8, or a trace line nested deeper than
    json can decode, is bad input (exit 2) that writes no report."""
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(MINIMAL.encode() + config_tail)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if trace is not None:
        path = tmp_path / "run.trace.jsonl"
        path.write_bytes(trace)
        argv += ["--trace", str(path)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not os.listdir(out)


def test_cli_every_subcommand_has_help():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    assert sorted(helps) == sorted(sub.choices)
    for name, text in helps.items():
        assert text and text.strip(), f"{name} has no help text"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--policy", "first-fit"),
        ("train", "--trace", "t.jsonl"),
        ("compare", "--trace", "t.jsonl"),
    ],
)
def test_cli_rejects_a_flag_its_command_does_not_read(tmp_path, capsys, command, flag, value):
    """train always ranks with apex and reads no trace; compare reads no
    trace. argparse rejects those flags with exit 2 before anything runs."""
    cfg = write_cfg(tmp_path, "[disk]\nrows = 4\ncols = 4\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        run_cli([command, "--config", cfg, flag, value, "--out", str(out)])
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "gone.ini")
    code = run_cli(["simulate", "--config", missing, "--out", str(tmp_path)])
    assert code == 2
    assert "gone.ini" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, bad",
    [("simulate", "config"), ("replay", "config"), ("train", "config"),
     ("compare", "config"), ("simulate", "out"), ("simulate", "trace-dir-missing"),
     ("simulate", "trace-is-dir")],
    ids=["simulate-config-dir", "replay-config-dir", "train-config-dir",
         "compare-config-dir", "simulate-out-file", "simulate-trace-dir-missing",
         "simulate-trace-is-dir"],
)
def test_cli_bad_config_or_out_path_fails_before_the_run(tmp_path, capsys, monkeypatch, command, bad):
    """A --config that names a directory, an --out that names an existing
    file, or a simulate --trace that names a directory or lies in one that
    does not exist, is rejected with exit 2, naming the path, before the
    command runs; a bad config or trace path makes no output directory."""
    for name in ("run_simulation", "replay_trace", "train", "run_compare"):
        monkeypatch.setattr(apexsim.cli, name, lambda *a, **kw: pytest.fail("ran on a bad path"))
    cfg, out = write_cfg(tmp_path, MINIMAL), tmp_path / "out"
    trace_args = []
    if bad == "config":
        cfg = named = str(tmp_path / "conf.d")
        os.mkdir(cfg)
    elif bad == "out":
        out.write_text("")
        named = str(out)
    else:
        named = str(tmp_path / "missing" / "x.jsonl" if bad == "trace-dir-missing" else tmp_path)
        trace_args = ["--trace", named]
    argv = [command, "--config", cfg, "--out", str(out), *trace_args]
    if command == "replay":
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(CREATE)
        argv += ["--trace", str(trace)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert out.is_file() if bad == "out" else not out.exists()


@pytest.mark.parametrize("command", ["simulate", "replay"])
def test_cli_policy_override_does_not_hide_a_bad_policy_kind(tmp_path, capsys, command):
    """--policy replaces the file's [policy] kind, but an invalid kind in the
    file still fails the command with exit 2, naming it, and writes no report."""
    cfg, out = write_cfg(tmp_path, MINIMAL + "[policy]\nkind = bogus\n"), tmp_path / "out"
    argv = [command, "--config", cfg, "--policy", "apex", "--out", str(out)]
    if command == "replay":
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(CREATE)
        argv += ["--trace", str(trace)]
    assert run_cli(argv) == 2
    assert "[policy] kind = 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m apexsim` is the same command line, exit code included."""
    src = str(Path(apexsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    missing = str(tmp_path / "gone.ini")
    done = subprocess.run(
        [sys.executable, "-m", "apexsim", "simulate", "--config", missing, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "gone.ini" in done.stderr


def test_cli_bad_initial_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[train]\ninitial = 11,1,1,1\n")
    code = run_cli(["train", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "initial" in capsys.readouterr().err


def test_cli_train_writes_json_and_csv(tmp_path, capsys):
    body = MINIMAL + "\n[train]\nmin_budget = 4\noin_per_min = 30\n"
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert run_cli(["train", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    csv_path = only_file(out, ".csv")
    assert doc["best_state"]
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "min,p,epsilon,hist,usage,spatial,link"
    assert len(lines) == 5
    assert "final=" in capsys.readouterr().out


def test_cli_train_gain_is_na_when_the_first_objective_is_zero(tmp_path, capsys):
    # a 3-interval train on the default disk: its first interval recovers
    # nothing, and a ratio to 0 is no gain, whatever the final objective
    cfg = write_cfg(tmp_path, "[train]\nmin_budget = 3\noin_per_min = 50\n")
    assert run_cli(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert " p_first=0.0000 " in out
    assert " gain=n/a " in out


def test_cli_compare_single_seed_and_policy(tmp_path):
    body = MINIMAL + """
[compare]
primary_count = 2
primary_blocks = 4
secondary_blocks = 10
secondary_min_blocks = 2
secondary_max_blocks = 3
"""
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    code = run_cli([
        "compare", "--config", cfg, "--seed", "4", "--policy", "first-fit",
        "--out", out,
    ])
    assert code == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    rows = doc["rows"]
    assert len(rows) == 1
    assert rows[0]["policy"] == "first-fit"
    assert rows[0]["seed"] == 4
    csv_lines = Path(only_file(out, ".csv")).read_text().splitlines()
    assert csv_lines[0].startswith("policy,secondary_blocks,seed,weighted_rr,rr_file_0")
    assert len(csv_lines) == 2


def test_cli_recover_is_not_a_command(tmp_path, capsys):
    """simulate and replay reports carry the per-file recovery rows, so there
    is no recover command: argparse rejects it with exit 2 before anything
    runs, and no report is written."""
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as e:
        run_cli(["recover", "--config", cfg, "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "recover" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,body,named",
    [
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\npolicies = apex,bogus\n", "bogus"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nprimary_type = weird\n", "weird"),
        ("compare", "[disk]\nrows = 8\ncols = 8\n", "primary corpus"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nsecondary_blocks = -5,102\n",
         "secondary_blocks"),
        ("simulate", MINIMAL + "mix = nan,0.5,0.5\n", "op_mix"),
        ("simulate", MINIMAL + "[policy]\ncoefficients = 100000000000000000000000,1,1,1\n",
         "2147483647"),
        ("simulate", MINIMAL + "[train]\nmin_budget = -1\n", "min_budget"),
        ("simulate", "[disk]\nrows = 2\ncols = 2\nneighborhood = contiguous:100000000000\n",
         "1048576"),
        ("simulate", "[disk]\nblock_size = 100000000000000\n", "65536"),
        ("simulate", "[disk]\nrows = 1025\ncols = 1024\n", "1048576"),
        ("simulate", MINIMAL + "[compare]\nseed_count = 100000000000\n", "10000"),
        ("simulate", "[disk]\nneighborhood = contiguous_x:2\n", "contiguous_x:2"),
        ("simulate", "[disk]\nneighborhood = contiguousness:4\n", "contiguousness:4"),
        ("simulate", "[disk]\ninvert_link_rule = maybe\n", "not a boolean: 'maybe'"),
        ("simulate", "rows = 8\n" + MINIMAL, "no section headers"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nprimery_blocks = 4\n",
         "[compare] primery_blocks: unknown key"),
        ("simulate", MINIMAL + "[trian]\nmin_budget = 2\n", "[trian]: unknown section"),
        ("train", MINIMAL + "[train]\nmode = hill-climb\nmin_budget = 2\n",
         "[train] mode: unknown key"),
        ("simulate", "[DEFAULT]\nrows = 4\n" + MINIMAL, "[DEFAULT] rows: unknown key"),
        ("simulate", MINIMAL + "[perf]\nalpha = 1.0\n", "[perf] alpha: unknown key"),
        ("train", MINIMAL + "[train]\nmin_budget = 2\noin_per_min = 20\ntau = 50\n",
         "[train] tau: unknown key"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nseeds = 0,3\n",
         "[compare] seeds: unknown key"),
    ],
    ids=["unknown-compare-policy", "unknown-primary-type", "disk-smaller-than-corpus",
         "negative-secondary-target",
         "nan-op-mix", "coefficient-beyond-bound", "bad-train-value-in-simulate",
         "span-beyond-cap", "block-size-beyond-cap", "disk-beyond-cap", "seed-count-beyond-cap",
         "contiguous-prefixed-kind", "contiguous-longer-kind", "non-boolean-flag",
         "key-before-any-section", "misspelt-key", "unknown-section", "train-mode-key",
         "default-section-key", "perf-alpha-key", "train-tau-key", "compare-seeds-key"],
)
def test_cli_rejects_accepted_but_unusable_values(tmp_path, capsys, command, body, named):
    """Values the grammar parses but no run can use, and sections or keys it
    does not name, are bad input (exit 2), named in the message, not an
    internal error or a NaN in the report; no report is written."""
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


# (id, text after MINIMAL, the key it names): a misspelt key, the keys of
# values that are derived (alpha is 1 - beta, tau comes from min_budget and
# epsilon_floor) or set one way only (seed_count for the compare seeds), and
# the key of a retired mode (the access-time term is the seek cost alone)
OUTSIDE_THE_GRAMMAR = [
    ("", "totl_ops = 50\n", "[workload] totl_ops"),
    ("perf-alpha-", "[perf]\nalpha = 1.0\n", "[perf] alpha"),
    ("perf-aat-mode-", "[perf]\naat_mode = seek-cost\n", "[perf] aat_mode"),
    ("train-tau-", "[train]\ntau = 50\n", "[train] tau"),
    ("compare-seeds-", "[compare]\nseeds = 0,3\n", "[compare] seeds"),
]


@pytest.mark.parametrize(
    "command,extra,named",
    [(c, extra, named) for _, extra, named in OUTSIDE_THE_GRAMMAR for c in COMMANDS],
    ids=[prefix + c for prefix, _, _ in OUTSIDE_THE_GRAMMAR for c in COMMANDS],
)
def test_cli_key_outside_the_grammar_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                          command, extra, named):
    """Every command loads its config through the grammar: a misspelt or
    retired key exits 2, naming the file, the section and the key, before
    the run."""
    for name in ("run_simulation", "replay_trace", "train", "run_compare"):
        monkeypatch.setattr(apexsim.cli, name, lambda *a, **kw: pytest.fail("ran on a bad key"))
    cfg, out = write_cfg(tmp_path, MINIMAL + extra), tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "replay":
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(CREATE)
        argv += ["--trace", str(trace)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {named}: unknown key\n"
    assert not out.exists()
