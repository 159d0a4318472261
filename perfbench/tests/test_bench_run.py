"""Metric arithmetic of the runner and its reading of the program's CSV."""

import pytest

import run
from magnonblockade.scenarios import SweepResult, emit_csv


def test_parse_csv_reads_the_program_format():
    result = SweepResult(scenario="s", columns=["J", "log10_g2", "error"],
                         rows=[(1.5, -3.25, ""), (2.0, None, "ValueError: x")])
    rows = run.parse_csv(emit_csv(result))
    assert rows == [{"J": 1.5, "log10_g2": -3.25, "error": ""},
                    {"J": 2.0, "log10_g2": None, "error": "ValueError: x"}]
    with pytest.raises(ValueError):
        run.parse_csv("J,error\n1,\n")


def test_point_percentiles_use_each_points_median_over_repeats():
    plain = [
        {"good": 3, "sweep_s": 1.0, "peak_rss_mb": 50.0, "point_ms": [10.0, 100.0, 20.0]},
        {"good": 3, "sweep_s": 2.0, "peak_rss_mb": 52.0, "point_ms": [12.0, 10.0, 22.0]},
        {"good": 2, "sweep_s": 1.0, "peak_rss_mb": 51.0, "point_ms": [11.0, 12.0, 21.0]},
    ]
    metrics = run._end_to_end_metrics(plain, setups=[0.3, 0.1, 0.2])
    values = {k: m["value"] for k, m in metrics.items()}
    # per-point medians are 11, 12, 21: the 100 ms burst in one repeat is gone
    assert values["point_ms_p50"] == pytest.approx(12.0)
    assert values["point_ms_p90"] == pytest.approx(12.0 + 0.8 * 9.0)
    assert values["points_per_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["peak_rss_mb"] == pytest.approx(51.0)
    assert {k: m["unit"] for k, m in metrics.items()} == run.END_TO_END
