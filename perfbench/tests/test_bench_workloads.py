"""Seeded workload configs: deterministic, inside their figure's axis range,
and read by the program as the benchmark intends."""

import json
import os

import pytest

import run
import workloads
from magnonblockade.scenarios import get_scenario, parse_config

NAMES = list(workloads.SPECS)


@pytest.mark.parametrize("name", NAMES)
def test_config_is_deterministic_per_seed(name):
    first = workloads.make(name, 3).config_text()
    assert workloads.make(name, 3).config_text() == first
    assert workloads.make(name, 4).config_text() != first
    assert workloads.make(name).seed == workloads.DEFAULT_SEED != workloads.CONFIRM_SEED


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.CONFIRM_SEED, 12345])
def test_axis_values_stay_inside_the_figure_range(name, seed):
    wl = workloads.make(name, seed)
    figure = get_scenario(wl.spec.figure)
    ranges = {ax.path: (min(ax.values), max(ax.values)) for ax in figure.axes}
    assert [path for path, _ in wl.axes] == [ax.path for ax in figure.axes]
    for (path, values), spec in zip(wl.axes, wl.spec.axes):
        lo, hi = ranges[path]
        assert len(values) == len(set(values)) == spec.num
        assert list(values) == sorted(values)
        assert all(lo <= v <= hi for v in values), (path, values, lo, hi)


@pytest.mark.parametrize("name", NAMES)
def test_config_copies_the_figure_and_parses_to_the_same_grid(name):
    wl = workloads.make(name)
    figure = get_scenario(wl.spec.figure)
    assert wl.spec.mode == figure.mode
    assert wl.spec.params == figure.params
    assert wl.spec.options == figure.options
    cfg = parse_config(wl.config_text())
    assert cfg.fock_dim == wl.spec.fock_dim
    assert cfg.grid_points() == wl.grid_points()
    assert len(cfg.grid_points()) == wl.n_points


def test_metric_declarations_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
