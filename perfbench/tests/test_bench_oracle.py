"""The independent references agree with the library where both are exact
enough, and the check rejects outputs that miss them."""

from dataclasses import replace

import numpy as np
import pytest

import oracle
import workloads
from magnonblockade import (build_h_eff, build_liouvillian, collapse_channels,
                            g2_zero, steady_state, steady_state_periodic)
from magnonblockade.scenarios import _system_params

FIG9A_POINT = {"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
               "Omega_m_over_2pi_MHz": 0.033, "Delta_plus_over_J": 1.0,
               "drive_freq_over_2pi_MHz": 1500.0, "g_rp_over_J": 0.3,
               "Omega_q_over_Omega_m": 3.0}


def test_liouvillian_matches_the_library_build():
    user = dict(FIG9A_POINT, g_rp_over_J=0.0)
    p = _system_params(user, 4)
    h, channels, _, _ = oracle._system(user, 4)
    np.testing.assert_allclose(h, build_h_eff(p), atol=1e-9)
    lib = build_liouvillian(build_h_eff(p), collapse_channels(p)).matrix
    np.testing.assert_allclose(oracle.liouvillian(h, channels), lib, atol=1e-9)


def test_steady_reference_matches_the_library():
    user = dict(FIG9A_POINT, g_rp_over_J=0.0)
    p = _system_params(user, 6)
    rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
    assert oracle.steady(user, 6)["log10_g2"] == pytest.approx(np.log10(g2_zero(rho)), abs=1e-6)


def test_periodic_reference_matches_512_step_rk4():
    p = _system_params(FIG9A_POINT, 6)
    fine = np.log10(g2_zero(steady_state_periodic(p, steps_per_period=512)))
    ref = oracle.periodic(FIG9A_POINT, 6)["log10_g2"]
    assert ref == pytest.approx(fine, abs=1e-5)
    assert oracle.periodic(FIG9A_POINT, 6, harmonics=8)["log10_g2"] == pytest.approx(ref, abs=1e-10)


def _rows_from(refs):
    return [{"error": "", "residual_inf": 1e-15, **r} for r in refs]


def test_check_passes_references_and_rejects_misses():
    full = workloads.make("steady_large_n")
    path, values = full.axes[0]
    wl = workloads.Workload(spec=replace(full.spec, fock_dim=4), seed=1,
                            axes=((path, values[:3]),))
    refs = oracle.reference(wl)
    rows = _rows_from(refs)
    assert oracle.check(wl, rows, refs) == [None] * 3
    rows[0]["log10_g2"] += 2 * oracle.TOLERANCES["steady"]["log10_g2"]
    rows[1]["error"] = "SteadyStateError: no kernel"
    rows[2]["residual_inf"] = 1e-6
    verdicts = oracle.check(wl, rows, refs)
    assert all(verdicts)
    assert "log10_g2" in verdicts[0] and "error tag" in verdicts[1] and "residual" in verdicts[2]
    assert all(oracle.check(wl, rows[:2], refs))


def test_time_series_reference_starts_in_vacuum_and_keeps_trace():
    wl = workloads.make("time_series")
    user = wl.grid_points()[0]
    series = oracle.time_series(user, 4, dict(wl.spec.options, time_points=11))
    assert series[0]["P0"] == 1.0 and series[0]["log10_g2"] is None
    assert all(s["log10_g2"] is not None for s in series[1:])
    assert series[-1]["kappa_t"] == pytest.approx(30.0)
