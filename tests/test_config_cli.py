"""Config file parsing and the command line surface."""

import argparse
import configparser
import json
import os
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    """Each config in configs/ loads, and sets only keys that load_config
    reads: a misspelt key would leave its value at the default unseen."""
    path = CONFIGS / name
    load_config(str(path))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    for section in parser.sections():
        assert set(parser[section]) <= set(KEYS[section]), (name, section)


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
alpha = 0.8
beta = 0.2
aat_mode = timestamp

[train]
mode = hill-climb
initial = 2,2,2,2
min_budget = 12
oin_per_min = 40
learning_rate = 0.5
discount = 0.5

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
    assert cfg.weights.aat_mode == "timestamp"
    assert cfg.compare_settings.seeds == (0, 1, 2)
    tc = cfg.train_config()
    assert tc.mode == "hill-climb"
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
    assert doc["executed_ops"] == 120
    assert doc["config_sha256"]
    assert len(Path(trace_path).read_text().splitlines()) == 120


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
    assert doc["executed_ops"] == 60


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


def test_cli_replay_without_trace_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert run_cli(["replay", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "trace" in capsys.readouterr().err


CREATE = '{"tick":1,"op":"create","path":"/a.txt","size_blocks":1,"type":"partial"}\n'


@pytest.mark.parametrize(
    "trace",
    [
        '{"tick":1,"op":"create","path":"a.txt","size_blocks":1,"type":"partial"}\n',
        '{"tick":1,"op":"create","path":5,"size_blocks":1,"type":"partial"}\n',
        '{"tick":1,"op":"create","path":"/","size_blocks":1,"type":"partial"}\n',
        '{"tick":1,"op":"create","path":"/a/b.txt","size_blocks":1,"type":"partial"}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":-3,"type":"partial"}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":"x","type":"partial"}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":1,"type":"bogus"}\n',
        '{"tick":1,"op":"create","path":"/a.txt","size_blocks":64,"type":"partial"}\n',
        CREATE + '{"tick":2,"op":"write","path":"/a.txt","offset":4000,"len":200}\n',
        CREATE + '{"tick":2,"op":"write","path":"/a.txt","offset":"0","len":10}\n',
        '{"tick":1.7,"op":"create","path":"/a.txt","size_blocks":1,"type":"partial"}\n',
        '{"tick":"7","op":"create","path":"/a.txt","size_blocks":1,"type":"partial"}\n',
        '{"tick":true,"op":"create","path":"/a.txt","size_blocks":1,"type":"partial"}\n',
    ],
    ids=["relative-path", "int-path", "root-path", "nested-path", "negative-size",
         "text-size", "unknown-type", "create-beyond-disk", "write-past-size", "text-offset",
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
        ("recover", LATIN_1, None),
        ("replay", LATIN_1, CREATE.encode()),
        ("replay", b"", LATIN_1),
        ("recover", b"", LATIN_1),
        ("replay", b"", DEEP),
        ("recover", b"", DEEP),
    ],
    ids=["simulate-config-latin-1", "train-config-latin-1", "compare-config-latin-1",
         "recover-config-latin-1", "replay-config-latin-1", "replay-trace-latin-1",
         "recover-trace-latin-1", "replay-trace-too-deep", "recover-trace-too-deep"],
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
     ("compare", "config"), ("recover", "config"), ("simulate", "out")],
    ids=["simulate-config-dir", "replay-config-dir", "train-config-dir",
         "compare-config-dir", "recover-config-dir", "simulate-out-file"],
)
def test_cli_bad_config_or_out_path_fails_before_the_run(tmp_path, capsys, monkeypatch, command, bad):
    """A --config that names a directory, or an --out that names an existing
    file, is rejected with exit 2, naming the path, before the command runs;
    a bad config makes no output directory."""
    for name in ("run_simulation", "replay_trace", "train", "run_compare"):
        monkeypatch.setattr(apexsim.cli, name, lambda *a, **kw: pytest.fail("ran on a bad path"))
    cfg, out = write_cfg(tmp_path, MINIMAL), tmp_path / "out"
    if bad == "config":
        cfg = named = str(tmp_path / "conf.d")
        os.mkdir(cfg)
    else:
        out.write_text("")
        named = str(out)
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "replay":
        trace = tmp_path / "run.trace.jsonl"
        trace.write_text(CREATE)
        argv += ["--trace", str(trace)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert out.is_file() if bad == "out" else not out.exists()


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


def test_cli_recover_without_deletions_is_empty(tmp_path):
    body = "[disk]\nrows = 8\ncols = 8\n\n[workload]\nseed = 1\ntotal_ops = 0\n"
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert run_cli(["recover", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    assert doc["rows"] == []
    assert doc["weighted_rr"] == 0.0


def test_cli_recover_reports_deleted_files(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert run_cli(["recover", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(only_file(out, ".json")).read_text())
    rows = doc["rows"]
    assert rows, "a 120-op churn run should retire at least one file"
    for row in rows:
        assert 0.0 <= row["rr"] <= 1.0
        assert row["status"] in ("deleted", "obsolete")


def test_cli_recover_from_trace_matches_simulation(tmp_path):
    """recover --trace replays a trace that simulate wrote; its report is the
    one recover writes from running the same simulation itself."""
    cfg = write_cfg(tmp_path, MINIMAL)
    trace = str(tmp_path / "run.trace.jsonl")
    assert run_cli(["simulate", "--config", cfg, "--trace", trace, "--out", str(tmp_path / "sim")]) == 0
    docs = []
    for name, extra in (("direct", []), ("replayed", ["--trace", trace])):
        out = str(tmp_path / name)
        assert run_cli(["recover", "--config", cfg, "--out", out, *extra]) == 0
        docs.append(Path(only_file(out, ".json")).read_text())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["rows"]


@pytest.mark.parametrize(
    "command,body,named",
    [
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\npolicies = apex,bogus\n", "bogus"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nprimary_type = weird\n", "weird"),
        ("compare", "[disk]\nrows = 8\ncols = 8\n", "primary corpus"),
        ("compare", MINIMAL + "[compare]\nprimary_count = 2\nsecondary_blocks = -5,102\n",
         "secondary_blocks"),
        ("simulate", MINIMAL + "mix = nan,0.5,0.5\n", "op_mix"),
        ("train", MINIMAL + "[train]\nmin_budget = 2\noin_per_min = 20\ntau = nan\n", "tau"),
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
    ],
    ids=["unknown-compare-policy", "unknown-primary-type", "disk-smaller-than-corpus",
         "negative-secondary-target",
         "nan-op-mix", "nan-tau", "coefficient-beyond-bound", "bad-train-value-in-simulate",
         "span-beyond-cap", "block-size-beyond-cap", "disk-beyond-cap", "seed-count-beyond-cap",
         "contiguous-prefixed-kind", "contiguous-longer-kind", "non-boolean-flag",
         "key-before-any-section"],
)
def test_cli_rejects_accepted_but_unusable_values(tmp_path, capsys, command, body, named):
    """Values the grammar parses but no run can use are bad input (exit 2),
    named in the message, not an internal error or a NaN in the report."""
    cfg = write_cfg(tmp_path, body)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
