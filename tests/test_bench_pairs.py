"""tools/bench_pairs.py's pure parts: the seed list and the summary of
alternating parent/change runs, on hand-made results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "readings_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


def results(name, parent, change):
    """Runs in pair order that report ``name`` with the given values."""
    return {
        side: [{"metrics": {name: {"value": v}}} for v in values]
        for side, values in (("parent", parent), ("change", change))
    }


@pytest.mark.parametrize(
    "text, seeds",
    [("2301-2304", [2301, 2302, 2303, 2304]), ("7-7", [7]), ("5,3,9", [5, 3, 9]), ("11", [11])],
)
def test_seed_list(text, seeds):
    assert bench_pairs.seed_list(text) == seeds


def test_ties_count_for_neither_side():
    metric = bench_pairs.summarise(SPEC, results("run_s", [1, 2, 3, 4], [1, 1, 3, 5]))["run_s"]
    assert metric["change_better_in_pairs"] == "1/4"


def test_wins_follow_the_metrics_direction():
    metric = bench_pairs.summarise(
        SPEC, results("readings_per_s", [10, 10, 10], [11, 9, 12])
    )["readings_per_s"]
    assert metric["change_better_in_pairs"] == "2/3"


@pytest.mark.parametrize(
    "name, change, within",
    [
        # Lower is better: within up to 25% above the parent's median.
        ("run_s", [1.24, 1.25, 1.26], True),
        ("run_s", [1.25, 1.26, 1.27], False),
        ("run_s", [0.1, 0.1, 0.1], True),
        # Higher is better: within down to 25% below the parent's median.
        ("readings_per_s", [0.76, 0.75, 0.74], True),
        ("readings_per_s", [0.74, 0.73, 0.72], False),
        ("readings_per_s", [9.0, 9.0, 9.0], True),
    ],
)
def test_within_bound(name, change, within):
    metric = bench_pairs.summarise(SPEC, results(name, [1.0, 1.0, 1.0], change))[name]
    assert metric["within_bound"] is within


def test_gap_against_the_parents_interquartile_range():
    # The parent's quartiles are 2 and 4 (inclusive method): an IQR of 2.
    parent = [1, 2, 3, 4, 5]
    metric = bench_pairs.summarise(SPEC, results("run_s", parent, [3, 4, 5, 6, 7]))["run_s"]
    assert (metric["parent"], metric["change"]["median"]) == (
        {"median": 3, "q1": 2, "q3": 4}, 5)
    assert metric["gap_exceeds_parent_iqr"] is False
    metric = bench_pairs.summarise(SPEC, results("run_s", parent, [4, 5, 6, 7, 8]))["run_s"]
    assert metric["gap_exceeds_parent_iqr"] is True
    assert metric["change_vs_parent_pct"] == 100.0


def test_a_missing_run_or_metric_leaves_its_pair_out():
    runs = results("run_s", [1, 2, 3], [1, 1, 1])
    runs["change"][1] = None
    runs["parent"][2] = {"metrics": {}}
    summary = bench_pairs.summarise(SPEC, runs)
    assert summary["run_s"]["runs"] == {"parent": [1], "change": [1]}
    assert "readings_per_s" not in summary
