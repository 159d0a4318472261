import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"points_per_s": "higher", "point_ms_p50": "lower"}


def result(points_per_s, p50, correct=True):
    return {"correct": correct, "attempted": 5, "failed": 0 if correct else 5,
            "metrics": {"points_per_s": {"value": points_per_s, "unit": "points/s"},
                        "point_ms_p50": {"value": p50, "unit": "ms"}}}


def pairs_of(parent, change):
    return [{"parent": result(*a), "change": result(*b)} for a, b in zip(parent, change)]


def test_better_directions_come_from_the_benchmark_file():
    better = bench_pairs.end_to_end()
    assert better["points_per_s"] == "higher"
    assert better["point_ms_p50"] == "lower"
    assert list(better)[:2] == ["points_per_s", "point_ms_p50"]


def test_bounds_come_from_the_benchmark_file():
    limits = bench_pairs.bounds()
    assert set(limits) == set(bench_pairs.end_to_end())
    assert limits["points_per_s"] == 0.25 and limits["peak_rss_mb"] == 0.1


@pytest.mark.parametrize("ratio, direction, outside", [
    (0.76, "higher", False), (0.74, "higher", True), (2.0, "higher", False),
    (1.24, "lower", False), (1.26, "lower", True), (0.5, "lower", False),
])
def test_outside_bound_is_a_worsening_beyond_the_bound(ratio, direction, outside):
    assert bench_pairs.outside_bound(ratio, direction, 0.25) is outside


def test_summary_flags_a_metric_outside_its_bound():
    pairs = pairs_of(parent=[(100, 10.0), (100, 10.0)], change=[(70, 11.0), (72, 12.0)])
    lines = bench_pairs.summary(pairs, BETTER, {"points_per_s": 0.25, "point_ms_p50": 0.25})
    assert lines[0].endswith("change/parent 0.710; won: change 0, parent 2 of 2; "
                             "outside bound 0.25")
    assert lines[1].endswith("won: change 0, parent 2 of 2")
    assert bench_pairs.summary(pairs, BETTER) == [line.split("; outside")[0] for line in lines]


def test_parent_runs_first_in_odd_pairs():
    assert [bench_pairs.order(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_medians_quartiles_and_wins():
    pairs = pairs_of(parent=[(50, 15.0), (54, 14.0), (52, 16.0), (60, 10.0)],
                     change=[(70, 10.0), (72, 9.0), (52, 11.0), (58, 12.0)])
    lines = bench_pairs.summary(pairs, BETTER)
    assert lines[0] == ("points_per_s (higher is better): parent median 53 [51.5, 55.5]; "
                        "change median 64 [56.5, 70.5]; change/parent 1.208; "
                        "won: change 2, parent 1 of 4")
    assert lines[1] == ("point_ms_p50 (lower is better): parent median 14.5 [13, 15.25]; "
                        "change median 10.5 [9.75, 11.25]; change/parent 0.724; "
                        "won: change 3, parent 1 of 4")


def test_summary_of_one_pair_and_missing_metrics():
    pairs = pairs_of(parent=[(50, 15.0)], change=[(60, 12.0)])
    pairs[0]["change"]["metrics"].pop("point_ms_p50")
    lines = bench_pairs.summary(pairs, BETTER)
    assert lines == ["points_per_s (higher is better): parent median 50 [50, 50]; "
                     "change median 60 [60, 60]; change/parent 1.200; "
                     "won: change 1, parent 0 of 1"]


def test_pair_line_names_the_order_and_incorrect_runs():
    results = {"parent": result(50, 15.0), "change": result(60, 12.0, correct=False)}
    assert bench_pairs.pair_line(2, results, BETTER) == (
        "pair 2 (change first); points_per_s 50 -> 60; point_ms_p50 15 -> 12; change incorrect")


@pytest.mark.parametrize("incorrect, status", [(None, 0), (3, 1)])
def test_main_alternates_and_fails_on_an_incorrect_run(monkeypatch, capsys, incorrect, status):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        return result(50 if checkout == "old" else 60, 10.0, correct=len(calls) != incorrect)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["old", "new", "--workload", "time_series", "--pairs", "2", "--seed", "7",
            "--seconds", "3"]
    assert bench_pairs.main(argv) == status
    assert calls == [("old", "time_series", 7, 3), ("new", "time_series", 7, 3),
                     ("new", "time_series", 7, 3), ("old", "time_series", 7, 3)]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 1 (parent first); points_per_s 50 -> 60")
    assert "won: change 2, parent 0 of 2" in out[2]


@pytest.mark.parametrize("metric, parent, change, unresolved", [
    (0, [100, 100, 100, 100], [95, 96, 97, 98], False),  # no parent spread
    (0, [60, 90, 110, 140], [95, 96, 97, 98], True),  # spread 0.35 of the median, overlapping
    (0, [60, 90, 110, 140], [150, 160, 170, 180], False),  # every change run beats every parent
    (1, [6, 9, 11, 14], [3, 4, 5, 5.5], False),  # the same, lower is better
    (1, [6, 9, 11, 14], [3, 4, 5, 6.5], True),
])
def test_summary_marks_a_metric_unresolved_when_the_parent_spreads_wider_than_its_bound(
        metric, parent, change, unresolved):
    def runs(values):
        return [(v, 10.0) if metric == 0 else (100, v) for v in values]

    pairs = pairs_of(parent=runs(parent), change=runs(change))
    line = bench_pairs.summary(pairs, BETTER, {"points_per_s": 0.25, "point_ms_p50": 0.25})[metric]
    assert line.endswith("; unresolved, parent spread wider than 0.25") is unresolved
    assert "outside bound" not in line
