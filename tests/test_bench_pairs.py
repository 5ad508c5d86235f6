"""The summary arithmetic of scripts/bench_pairs.py, on hand-made runs."""

import importlib.util
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


def test_entry_flags_a_fingerprint_that_moved():
    def run(value, fingerprint):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in bench_pairs.METRICS}
        return {"metrics": metrics, "fingerprint": fingerprint, "correct": True, "failed": 0,
                "attempted": 10}

    same = bench_pairs.entry("w", 3, [(run(1.0, {"a": 1}), run(2.0, {"a": 1}))] * 3)
    assert same["fingerprints_equal"] and same["all_correct"] and same["pairs"] == 3
    assert same["metrics"]["ops_per_s"] == {"parent": [1.0] * 3, "change": [2.0] * 3}
    assert same["summary"]["ops_per_s"]["change_wins"] == 3
    assert same["summary"]["wall_s"]["change_wins"] == 0
    moved = bench_pairs.entry("w", 3, [(run(1.0, {"a": 1}), run(1.0, {"a": 2}))])
    assert not moved["fingerprints_equal"]
