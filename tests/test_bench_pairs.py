"""The summary arithmetic and exit status of scripts/bench_pairs.py, on
hand-made runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_wins_in_each_metrics_direction():
    parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [12.0, 12.5, 10.0, 15.0, 11.0]
    up = bench_pairs.summarize(parent, change, "higher")
    assert (up["parent_median"], up["change_median"]) == (11.0, 12.0)
    assert up["change_wins"] == 4
    assert up["change_vs_parent"] == pytest.approx(1 / 11)
    assert up["parent_quartiles"] == [9.5, 12.5] and up["parent_iqr"] == 3.0
    assert not up["beyond_parent_iqr"]  # a gain of 1 inside an IQR of 3
    down = bench_pairs.summarize(parent, change, "lower")
    assert down["change_wins"] == 1 and not down["beyond_parent_iqr"]
    far = bench_pairs.summarize(parent, [v - 5 for v in parent], "lower")
    assert far["change_wins"] == 5 and far["beyond_parent_iqr"]
    one = bench_pairs.summarize([4.0], [5.0], "higher")
    assert one["parent_iqr"] == 0.0 and one["change_wins"] == 1 and one["beyond_parent_iqr"]


def run(value, fingerprint, correct=True, failed=0):
    """A hand-made bench/run.py result."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in bench_pairs.METRICS}
    return {"metrics": metrics, "fingerprint": fingerprint, "correct": correct, "failed": failed,
            "attempted": 10}


def test_entry_flags_a_fingerprint_that_moved():
    same = bench_pairs.entry("w", 3, [(run(1.0, {"a": 1}), run(2.0, {"a": 1}))] * 3)
    assert same["fingerprints_equal"] and same["all_correct"] and same["pairs"] == 3
    assert same["metrics"]["ops_per_s"] == {"parent": [1.0] * 3, "change": [2.0] * 3}
    assert same["summary"]["ops_per_s"]["change_wins"] == 3
    assert same["summary"]["wall_s"]["change_wins"] == 0
    moved = bench_pairs.entry("w", 3, [(run(1.0, {"a": 1}), run(1.0, {"a": 2}))])
    assert not moved["fingerprints_equal"]


@pytest.mark.parametrize("bad, status", [
    ({}, 0),
    ({"fingerprint": {"a": 2}}, 0),  # a warning only
    ({"correct": False}, 1),
    ({"failed": 3}, 1),
], ids=["clean", "moved-fingerprint", "not-correct", "failed-ops"])
def test_main_exits_1_after_writing_when_a_run_is_wrong(tmp_path, monkeypatch, capsys, bad, status):
    """A run that is not correct or failed ops makes the exit status 1, with
    the JSON written and its (workload, seed) named; a moved fingerprint
    only warns."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()

    def run_once(tree, workload, seed, seconds):
        fields = {"fingerprint": {"a": 1}} | (bad if tree == change and seed == 4 else {})
        env = {"source_sha256": str(tree), "python": "3", "numpy": "2", "nproc": 1}
        return run(1.0, **fields) | {"env": env}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    argv = [str(parent), str(change), "--workload", "w", "--seed", "3", "--seed", "4",
            "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == status
    doc = json.loads(out.read_text())
    assert [(e["workload"], e["seed"], e["pairs"]) for e in doc["workloads"]] == [
        ("w", 3, 2), ("w", 4, 2),
    ]
    captured = capsys.readouterr()
    assert "correct True, failed 0" in captured.out
    assert ("w seed 4: a run was not correct or reported failed ops" in captured.err) == bool(status)
    assert ("warning: w seed 4: fingerprints differ" in captured.err) == ("fingerprint" in bad)
    assert "w seed 3" not in captured.err
