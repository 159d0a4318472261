"""Acceptance suite: every reference regression value at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). Expensive steady states are shared through module-scoped fixtures.

One check is expected to fail and is kept red deliberately: criterion 6.
The stated longitudinal model puts the minima at ratio 3.00/3.00/3.05, not
at the quoted 3.1/3.2/3.3; the quoted shift of about g_rp/J is first order,
while a coupling term rotating at the drive frequency acts only at order
g_rp^2/omega_d. The paper's form of that term is not in the repository (see
the test's docstring).

Criterion 8 checks the global-minimum root l1(r) of the stationarity quartic
against its small-r series and a brute-force minimization of the correlation.
An earlier [1.9, 2.1] band on l1 matched the printed "alpha = 1" shorthand of
the Ferrari factorization, not the exact root, which leaves it at r ~ 0.217.
"""

import math

import numpy as np
import pytest

from magnonblockade.analytic import (
    derivative_roots,
    derivative_roots_numeric,
    g2_dimensionless,
    quartic_coefficients,
    second_derivative,
)
from magnonblockade.dynamics import build_liouvillian, evolve, steady_state, steady_state_periodic
from magnonblockade.hilbert import DensityMatrix
from magnonblockade.model import (
    MHZ,
    SystemParams,
    build_h_eff,
    collapse_channels,
    thermal_occupation,
)
from magnonblockade.observables import g2_from_populations, g2_zero, populations
from magnonblockade.scenarios import ScenarioConfig, convergence_check

from column_stacking import unvec, vec


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def make_params(j_mhz, kappa_mhz, om_mhz, ratio, dplus_over_j=1.0,
                dminus_over_dplus=0.0, m_th=0.0, g_rp_over_j=0.0, fock_dim=6):
    J = j_mhz * MHZ
    dplus = dplus_over_j * J
    return SystemParams.from_detunings(
        J=J, Delta_plus=dplus, Delta_minus=dminus_over_dplus * dplus,
        Omega_m=om_mhz * MHZ, Omega_q=ratio * om_mhz * MHZ,
        kappa_m=kappa_mhz * MHZ, kappa_q=kappa_mhz * MHZ,
        omega_drive=1500.0 * MHZ, m_th=m_th, g_rp=g_rp_over_j * J,
        fock_dim=fock_dim)


def steady_g2(p: SystemParams) -> float:
    rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
    return g2_zero(rho)


def log10_steady_g2(**kwargs) -> float:
    return math.log10(steady_g2(make_params(**kwargs)))


@pytest.fixture(scope="module")
def optimal_state() -> DensityMatrix:
    """Steady state at the deep-blockade operating point
    (J/2pi = 35 MHz, kappa/2pi = 0.5 MHz, Omega_m/2pi = 0.033 MHz, ratio 3)."""
    p = make_params(35.0, 0.5, 0.033, 3.0)
    return steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))


def test_criterion_01_drive_ratio_regression():
    """Steady log10 g2 at the resonant coupling point for four probe ratios."""
    expected = {1.0: -1.99, 2.0: -2.58, 5.0: -2.99, 10.0: -2.21}
    got = {ratio: log10_steady_g2(j_mhz=20.0, kappa_mhz=1.0, om_mhz=0.1, ratio=ratio)
           for ratio in expected}
    ok = all(abs(got[k] - expected[k]) <= 0.1 for k in expected)
    detail = ", ".join(f"ratio {k:g}: {got[k]:+.3f} (ref {expected[k]:+.2f})"
                       for k in expected)
    report(1, "drive-ratio regression", ok, detail)
    assert ok, detail


def test_criterion_02_bunching_feature():
    """Strong bunching maxima near Delta_plus/J = +-0.7 across the ratio family."""
    window = np.linspace(0.5, 0.9, 41)
    results = []
    for sign in (1.0, -1.0):
        best_val, best_loc = -math.inf, None
        for ratio in (1.0, 2.0, 5.0, 10.0):
            vals = [log10_steady_g2(j_mhz=20.0, kappa_mhz=1.0, om_mhz=0.1,
                                    ratio=ratio, dplus_over_j=sign * d)
                    for d in window]
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_loc = vals[i], sign * window[i]
        results.append((best_loc, best_val))
    ok = all(val >= 1.5 and abs(abs(loc) - 0.7) <= 0.1 for loc, val in results)
    detail = "; ".join(f"max log10 g2 = {val:+.2f} at Delta+/J = {loc:+.3f}"
                       for loc, val in results)
    report(2, "bunching feature", ok, detail)
    assert ok, detail


def test_criterion_03_coupling_strength_regression():
    """Blockade deepening with coupling at the triple-probe ratio."""
    got14 = log10_steady_g2(j_mhz=14.0, kappa_mhz=1.0, om_mhz=0.1, ratio=3.0)
    got35 = log10_steady_g2(j_mhz=35.0, kappa_mhz=1.0, om_mhz=0.1, ratio=3.0)
    ok = abs(got14 - (-4.44)) <= 0.15 and abs(got35 - (-6.03)) <= 0.15
    detail = f"J14: {got14:+.3f} (ref -4.44), J35: {got35:+.3f} (ref -6.03)"
    report(3, "coupling-strength regression", ok, detail)
    assert ok, detail


def test_criterion_04_optimal_point(optimal_state):
    """Deepest blockade at the optimized operating point."""
    got = math.log10(g2_zero(optimal_state))
    ok = abs(got - (-7.24)) <= 0.15
    detail = f"log10 g2 = {got:+.3f} (ref -7.24 +- 0.15)"
    report(4, "optimal point", ok, detail)
    assert ok, detail


def test_criterion_05_thermal_suite():
    """Thermal-occupation regressions, the g2 = 1 crossing temperature, and
    low-temperature saturation."""
    got8 = log10_steady_g2(j_mhz=35.0, kappa_mhz=0.5, om_mhz=0.033, ratio=3.0,
                           m_th=1e-8)
    got7 = log10_steady_g2(j_mhz=35.0, kappa_mhz=0.5, om_mhz=0.033, ratio=3.0,
                           m_th=1e-7)

    omega_m = 1500.0 * MHZ + 35.0 * MHZ  # drive frame plus detuning

    def log_g2_at(t_mk: float) -> float:
        return log10_steady_g2(j_mhz=35.0, kappa_mhz=0.5, om_mhz=0.033, ratio=3.0,
                               m_th=thermal_occupation(omega_m, t_mk * 1e-3))

    lo, hi = 10.0, 25.0
    assert log_g2_at(lo) < 0.0 < log_g2_at(hi)
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if log_g2_at(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t_cross = (lo + hi) / 2.0

    saturated = [log_g2_at(t) for t in (1.0, 2.6)]
    ok = (abs(got8 - (-6.01)) <= 0.15 and abs(got7 - (-5.03)) <= 0.15
          and abs(t_cross - 17.2) <= 1.0
          and all(abs(v - (-7.24)) <= 0.15 for v in saturated))
    detail = (f"m_th=1e-8: {got8:+.3f} (ref -6.01), m_th=1e-7: {got7:+.3f} "
              f"(ref -5.03), crossing at {t_cross:.2f} mK (ref 17.2), "
              f"saturation {saturated[0]:+.3f}/{saturated[1]:+.3f} (ref -7.24)")
    report(5, "thermal suite", ok, detail)
    assert ok, detail


def test_criterion_06_longitudinal_suite():
    """Longitudinal-coupling targets: minima locations and depths.

    Expected RED; the cause is narrowed down but cannot be settled from the
    repository. The stated model adds g_rp sigma+sigma- (m e^{-i w_d t} + h.c.)
    with w_d/2pi = 1500 MHz. The harmonic (matrix continued fraction) solve
    of steady_state_periodic gives minima at ratio 3.00 / 3.00 / 3.05 with
    depths -6.179 / -5.596 / -5.245; it agrees with a Sambe-space LU of the
    whole harmonic system to 1e-10 in log10 g2, so these numbers are
    converged to the digits shown.

    The quoted minima, 3.1 / 3.2 / 3.3 with depths -6.93 / -6.65 / -6.40,
    shift the optimal ratio by about g_rp/J: a first-order effect. A term
    rotating at w_d acts only at order g_rp^2/w_d, a qubit shift of 0.07 MHz
    at g_rp/J = 0.3, and leaves the minimum at ratio 3.00. A static
    g_rp sigma+sigma- m'm term reproduces the quoted locations exactly on
    this 0.05 grid, but its depths are -7.44 / -7.55 / -7.65; adding the
    rotating term on top gives -6.23 / -5.69 / -5.37. Neither matches.
    The paper's Hamiltonian for the longitudinal term, and the figure the
    references come from, are not in the repository; the references and
    tolerances stay as quoted until they are.
    """
    expected = [(0.1, 3.1, -6.93), (0.2, 3.2, -6.65), (0.3, 3.3, -6.40)]
    ratios = np.arange(2.70, 3.71, 0.05)
    lines = []
    ok = True
    for g_over_j, ref_ratio, ref_log in expected:
        best_ratio, best_log = None, math.inf
        for ratio in ratios:
            p = make_params(35.0, 0.5, 0.033, float(ratio), g_rp_over_j=g_over_j)
            val = math.log10(g2_zero(steady_state_periodic(p)))
            if val < best_log:
                best_ratio, best_log = float(ratio), val
        ok = ok and abs(best_ratio - ref_ratio) <= 0.1 and abs(best_log - ref_log) <= 0.2
        lines.append(f"g_rp/J={g_over_j}: min {best_log:+.3f} at ratio {best_ratio:.2f} "
                     f"(ref {ref_log:+.2f} at {ref_ratio})")
    detail = "; ".join(lines)
    report(6, "longitudinal suite", ok, detail)
    assert ok, ("stated model (harmonic solve, converged to 1e-10 in log10 g2) "
                "disagrees with the quoted reference values: " + detail
                + ". The references shift the optimum by ~g_rp/J (first order); "
                "the drive-rotating term acts at order g_rp^2/w_d. A static "
                "sigma+sigma- m'm term matches the locations but not the "
                "depths; the paper's form of the term is not in the repository.")


def test_criterion_07_analytic_vs_numeric():
    """Closed-form versus master-equation log10 g2 curves over the ratio axis.

    Agreement metric: |log10 numeric - log10 analytic| / |log10 analytic|,
    i.e. relative deviation of the plotted curves.
    """
    ratios = np.linspace(1.0, 6.0, 26)

    def deviations(kappa_mhz):
        out = []
        for ratio in ratios:
            log_n = log10_steady_g2(j_mhz=20.0, kappa_mhz=kappa_mhz, om_mhz=0.1,
                                    ratio=float(ratio))
            log_a = math.log10(g2_dimensionless(float(ratio) - 1.0, kappa_mhz / 20.0))
            out.append(abs(log_n - log_a) / abs(log_a))
        return np.array(out)

    dev_strong = deviations(1.0)
    dev_weak = deviations(0.5)
    weak_tail = dev_weak[ratios >= 3.0]
    ok = dev_strong.max() <= 0.10 and weak_tail.max() > 0.10
    detail = (f"kappa/2pi=1 MHz: max deviation {dev_strong.max():.3f} (<= 0.10); "
              f"kappa/2pi=0.5 MHz: max deviation {weak_tail.max():.3f} for "
              f"ratio >= 3 (documented breakdown)")
    report(7, "analytic vs numeric", ok, detail)
    assert ok, detail


def test_criterion_08_quartic_roots():
    """Global-minimum root, l2 band, radical-vs-companion agreement, curvature
    at the minimum.

    l1 is checked as what it stands for, the global minimum of
    g2_dimensionless near l = 2 (probe ratio Omega_q/Omega_m = l1 + 1, about
    three). Differentiating g2_dimensionless gives quartic_coefficients
    exactly, and expanding that quartic about l = 2 gives
    l1(r) = 2 + 9r^2/4 - 33r^4/32 + 195r^6/128 + ...; so
    (a) l1 lies within 2r^6 of the series truncated after r^4, and
    (b) l1 lies within 1e-4 of the brute-force argmin of g2_dimensionless on
        a 1e-4 grid over l in [-0.9, 6].

    An earlier first clause asked for 1.9 <= l1 <= 2.1. The exact root leaves
    that band at r ~ 0.217 and reaches l1(0.25) = 2.137. The band fits the
    printed "alpha = 1" shorthand of the Ferrari factorization (see
    analytic._ferrari_pair), exact only as r -> 0: with the third resolvent
    root it gives l1(0.25) = 2.054 and l2(0.25) = -0.015.
    """
    samples = [0.25 * k / 20.0 for k in range(1, 21)]
    grid = np.linspace(-0.9, 6.0, 69001)
    l1_ok, l2_band, agree, curvature = True, True, True, True
    l1_violations = []
    for r in samples:
        radical = derivative_roots(r)
        numeric = derivative_roots_numeric(r)
        series = 2.0 + 9.0 * r**2 / 4.0 - 33.0 * r**4 / 32.0
        argmin = float(grid[np.argmin(g2_dimensionless(grid, r))])
        if (abs(radical.l1 - series) > 2.0 * r**6 + 1e-12
                or abs(radical.l1 - argmin) > 1e-4):
            l1_ok = False
            l1_violations.append(f"l1({r:.4f}) = {radical.l1:.6f} vs series "
                                 f"{series:.6f}, argmin {argmin:.4f}")
        l2_band = l2_band and -0.05 <= radical.l2 <= 0.1
        agree = agree and (abs(radical.l1 - numeric.l1) <= 1e-8
                           and abs(radical.l2 - numeric.l2) <= 1e-8)
        curvature = curvature and second_derivative(radical.l1, r) > 0.0
        b, c, d, f = quartic_coefficients(r)
        agree = agree and max(abs(np.polyval([1, b, c, d, f], radical.l1)),
                              abs(np.polyval([1, b, c, d, f], radical.l2))) <= 1e-8
    ok = l1_ok and l2_band and agree and curvature
    detail = (f"l1 = series +- 2r^6 and grid argmin +- 1e-4: {l1_ok}"
              + (f" ({'; '.join(l1_violations)})" if l1_violations else "")
              + f"; l2 in [-0.05,0.1]: {l2_band}; radical=companion@1e-8: {agree}; "
              f"curvature>0 at l1: {curvature}")
    report(8, "quartic roots", ok, detail)
    assert ok, detail


def test_criterion_09_property_suite():
    """Independent-oracle properties: coherent and thermal limits, solver
    cross-validation, generator consistency, trajectory invariants, and
    truncation convergence."""
    from magnonblockade.hilbert import (
        HilbertSpace,
        dagger,
        embed_magnon,
        embed_qubit,
        fock_annihilation,
        qubit_lowering,
    )

    checks = {}

    # the magnon beside an idle qubit (J = 0, undriven, decaying to |g>); N = 10
    # is the smallest truncation that holds both limits below to 1e-6
    space = HilbertSpace(10)
    m = embed_magnon(fock_annihilation(space), space)
    kappa = 1.0 * MHZ
    idle_qubit = (kappa, embed_qubit(qubit_lowering(), space))

    # coherent limit: driven damped mode is Poissonian
    h = 0.05 * kappa * (m + dagger(m))
    rho_c = steady_state(build_liouvillian(h, [(kappa, m), idle_qubit]))
    checks["coherent g2=1"] = abs(g2_zero(rho_c) - 1.0) <= 1e-6

    # thermal limit: occupation-0.1 bath state is bunched
    channels = [(kappa * 1.1, m), (kappa * 0.1, dagger(m)), idle_qubit]
    rho_t = steady_state(build_liouvillian(np.zeros_like(m), channels))
    checks["thermal g2=2"] = abs(g2_zero(rho_t) - 2.0) <= 1e-6

    # kernel steady state vs long-time integration on the ratio-sweep points
    worst = 0.0
    drift_ok, positive_ok = True, True
    for ratio in (1.0, 2.0, 5.0, 10.0):
        for dplus in (-1.0, -0.7, 0.7, 1.0):
            p = make_params(20.0, 1.0, 0.1, ratio, dplus_over_j=dplus)
            rho_ss = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
            d = p.space.total_dim
            rho0 = np.zeros((d, d), dtype=complex)
            rho0[0, 0] = 1.0
            traj = evolve(DensityMatrix(rho0, p.space), p,
                          np.array([0.0, 40.0 / p.kappa_m]))
            rel = abs(g2_zero(traj.states[-1]) - g2_zero(rho_ss)) / g2_zero(rho_ss)
            worst = max(worst, rel)
            drift_ok = drift_ok and traj.trace_drift <= 1e-8
            positive_ok = positive_ok and all(
                np.linalg.eigvalsh(s.matrix).min() >= -1e-7 for s in traj.states)
    checks[f"steady vs long-time ({worst:.2e})"] = worst <= 5e-3
    checks["trace preserved"] = drift_ok
    checks["states positive"] = positive_ok

    # Liouvillian action vs directly coded right-hand side
    p = make_params(20.0, 1.0, 0.1, 5.0, m_th=1e-3)
    hmat = build_h_eff(p)
    chans = collapse_channels(p)
    liouv = build_liouvillian(hmat, chans)
    rng = np.random.default_rng(5)
    worst_rhs = 0.0
    for _ in range(10):
        a = rng.normal(size=hmat.shape) + 1j * rng.normal(size=hmat.shape)
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        direct = -1j * (hmat @ rho - rho @ hmat)
        for rate, cop in chans:
            cd = cop.conj().T
            direct += (rate / 2) * (2 * cop @ rho @ cd - cd @ cop @ rho - rho @ cd @ cop)
        worst_rhs = max(worst_rhs, np.abs(unvec(liouv.matrix @ vec(rho)) - direct).max())
    checks[f"Liouvillian vs RHS ({worst_rhs:.1e})"] = worst_rhs <= 1e-12

    # truncation convergence at the strong-coupling optimum
    cfg = ScenarioConfig(
        name="fig4_optimum", mode="steady",
        params={"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 1.0,
                "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0})
    conv = convergence_check(cfg, [6, 8])
    checks[f"N6->N8 convergence ({conv.max_rel_change:.1e})"] = conv.passed

    ok = all(checks.values())
    detail = "; ".join(f"{name}: {'ok' if good else 'FAIL'}"
                       for name, good in checks.items())
    report(9, "property suite", ok, detail)
    assert ok, detail


def test_criterion_10_population_hierarchy(optimal_state):
    """Single-excitation dominance and the population form of g2 at the
    optimal point."""
    pops = populations(optimal_state)
    p1, p2 = pops[1], pops[2]
    g2 = g2_zero(optimal_state)
    approx = g2_from_populations(pops)
    ok = (-2.5 <= math.log10(p1) <= -1.5
          and p1 / p2 >= 1e8
          and abs(approx - g2) / g2 <= 0.05)
    detail = (f"P1 = {p1:.3e}, P1/P2 = {p1 / p2:.2e}, "
              f"2P2/P1^2 = {approx:.3e} vs g2 = {g2:.3e}")
    report(10, "population hierarchy", ok, detail)
    assert ok, detail
