"""Self-time arithmetic and wrapper installation of the span tracer."""

import numpy as np
import pytest

import spans
from spans import Span


def _span(span_id, parent_id, name, start, end, counts=None):
    return Span(span_id, parent_id, name, start, end, counts)


def test_self_time_of_nested_spans():
    recorded = [
        _span(1, 0, "root", 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 2, "leaf", 20, 30),
        _span(4, 1, "b", 50, 70),
    ]
    selfs = spans.self_times_ns(recorded)
    assert selfs == {1: 50, 2: 20, 3: 10, 4: 20}
    assert sum(selfs.values()) == 100


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    recorded = [
        _span(1, 0, "root", 0, 100),
        _span(2, 1, "a", 10, 40),
        _span(3, 1, "b", 30, 60),
        _span(4, 1, "c", 90, 120),
    ]
    assert spans.self_times_ns(recorded)[1] == 100 - 50 - 10


def test_aggregate_sums_self_time_calls_and_counts_per_name():
    recorded = [
        _span(1, 0, "cli.main", 0, 10_000_000),
        _span(2, 1, "dynamics.evolve", 1_000_000, 4_000_000, {"rk4_steps": 7}),
        _span(3, 1, "dynamics.evolve", 5_000_000, 9_000_000, {"rk4_steps": 5}),
    ]
    agg = spans.aggregate(recorded)
    assert agg["dynamics.evolve"] == {"self_ms": 7.0, "calls": 2, "rk4_steps": 12}
    assert agg["cli.main"]["self_ms"] == pytest.approx(3.0)
    # cli.main is orchestration: only the evolve self time counts
    assert spans.coverage(recorded, 0.010) == pytest.approx(0.7)


def test_tracer_links_parents_and_attaches_counts():
    tracer = spans.Tracer("t")

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, counter=lambda r: {"value": r})

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(1) == 4
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent_id == 0
    assert [s.parent_id for s in by_name["leaf"]] == [root.span_id] * 2
    assert spans.aggregate(tracer.spans)["leaf"]["value"] == 4
    exported = tracer.export()
    assert exported["trace_id"] == "t"
    assert spans.spans_from_export(exported) == tracer.spans


def test_failed_call_still_records_its_span():
    tracer = spans.Tracer("t")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom, counter=lambda r: {"n": 1})()
    (span,) = tracer.spans
    assert span.name == "boom" and span.counts is None


def test_rk4_steps_from_trajectory():
    from magnonblockade.dynamics import Trajectory

    traj = Trajectory(times=np.array([0.0, 1.0, 3.0]), states=[], params=None,
                      step=0.5, trace_drift=0.0)
    assert spans.rk4_steps(traj) == {"rk4_steps": 2 + 4}


def test_install_wraps_every_importing_namespace_and_restores():
    import magnonblockade
    from magnonblockade import cli, dynamics, hilbert, scenarios

    originals = (dynamics.steady_state, scenarios.steady_state,
                 magnonblockade.steady_state, cli.run_scenario,
                 hilbert.DensityMatrix.validate)
    tracer = spans.Tracer("t")
    restore = spans.install(tracer)
    try:
        assert dynamics.steady_state is scenarios.steady_state is magnonblockade.steady_state
        assert dynamics.steady_state is not originals[0]
        assert cli.run_scenario is scenarios.run_scenario is not originals[3]
        cfg = scenarios.parse_config(
            "scenario = t\nmode = steady\nfock_dim = 4\n"
            "params.J_over_2pi_MHz = 20\nparams.kappa_over_2pi_MHz = 1\n"
            "params.Omega_m_over_2pi_MHz = 0.1\nparams.Omega_q_over_Omega_m = 3\n")
        scenarios.run_scenario(cfg)
    finally:
        restore()
    assert (dynamics.steady_state, scenarios.steady_state, magnonblockade.steady_state,
            cli.run_scenario, hilbert.DensityMatrix.validate) == originals
    ids = {s.span_id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"scenarios.run_scenario", "dynamics.steady_state",
            "dynamics.build_liouvillian", "model.build_h_eff",
            "observables.g2_zero", "analytic.g2_analytic"} <= names
    (solve,) = [s for s in tracer.spans if s.name == "dynamics.steady_state"]
    assert ids[solve.parent_id].name == "scenarios.run_scenario"
