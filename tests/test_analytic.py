import math
from dataclasses import replace

import numpy as np
import pytest

from magnonblockade.analytic import (
    derivative_roots,
    derivative_roots_numeric,
    g2_analytic,
    g2_dimensionless,
    optimal_drive_ratios,
    quartic_coefficients,
    second_derivative,
    steady_amplitudes_closed,
    steady_amplitudes_general,
)
from magnonblockade.dynamics import build_liouvillian, steady_state
from magnonblockade.model import MHZ, SystemParams, build_h_eff, collapse_channels
from magnonblockade.observables import g2_zero

J20, KAPPA1, OMEGA01 = 20.0 * MHZ, 1.0 * MHZ, 0.1 * MHZ


def amplitude_residuals(amps, J, kappa, delta_plus, omega_m, omega_q):
    """Residuals of the four steady equations of the truncated ansatz."""
    z = delta_plus - 0.5j * kappa
    s2 = math.sqrt(2.0)
    return np.array([
        J * amps.c_g1 + omega_q * amps.c_g0 + z * amps.c_e0,
        J * amps.c_e0 + omega_m * amps.c_g0 + z * amps.c_g1,
        s2 * J * amps.c_g2 + omega_q * amps.c_g1 + omega_m * amps.c_e0 + 2 * z * amps.c_e1,
        s2 * J * amps.c_e1 + s2 * omega_m * amps.c_g1 + 2 * z * amps.c_g2,
    ])


def master_equation_g2(j_mhz, kappa_mhz, om_mhz, ratio):
    p = SystemParams.from_detunings(
        J=j_mhz * MHZ, Delta_plus=j_mhz * MHZ, Omega_m=om_mhz * MHZ,
        Omega_q=ratio * om_mhz * MHZ, kappa_m=kappa_mhz * MHZ, kappa_q=kappa_mhz * MHZ)
    rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
    return g2_zero(rho)


class TestSteadyAmplitudesClosed:
    def test_symmetric_drive(self):
        J, kappa, omega = J20, KAPPA1, OMEGA01
        amps = steady_amplitudes_closed(J, kappa, omega, omega)
        expected = -2j * omega * kappa / (kappa**2 + 4j * J * kappa)
        assert amps.c_e0 == pytest.approx(expected, rel=1e-14)
        assert amps.c_g1 == pytest.approx(expected, rel=1e-14)

    def test_triple_probe_coefficients(self):
        # at Omega_q = 3 Omega_m: A = -Omega_m^2 kappa^2, B = 8 J kappa Omega_m^2
        J, kappa, om = J20, KAPPA1, OMEGA01
        amps = steady_amplitudes_closed(J, kappa, om, 3 * om)
        a = -(om**2) * kappa**2
        b = 8 * J * kappa * om**2
        expected = 2 * math.sqrt(2) * (a + 1j * b) / (
            (kappa**2 - 2 * J**2 + 4j * J * kappa) * (kappa**2 + 4j * J * kappa))
        assert amps.c_g2 == pytest.approx(expected, rel=1e-13)

    def test_residuals_vanish(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            J = rng.uniform(5, 40) * MHZ
            kappa = rng.uniform(0.1, 2) * MHZ
            om = rng.uniform(0.01, 0.5) * MHZ
            oq = rng.uniform(0.0, 6.0) * om
            amps = steady_amplitudes_closed(J, kappa, om, oq)
            res = amplitude_residuals(amps, J, kappa, J, om, oq)
            scale = max(abs(amps.c_g0), abs(amps.c_e0), abs(amps.c_g1),
                        abs(amps.c_e1), abs(amps.c_g2))
            assert np.abs(res).max() <= 1e-10 * scale

    def test_rejects_zero_kappa(self):
        with pytest.raises(ValueError):
            steady_amplitudes_closed(J20, 0.0, OMEGA01, OMEGA01)


class TestSteadyAmplitudesGeneral:
    def fig5_params(self, ratio, delta_plus=None):
        return SystemParams.from_detunings(
            J=J20, Delta_plus=J20 if delta_plus is None else delta_plus,
            Omega_m=OMEGA01, Omega_q=ratio * OMEGA01,
            kappa_m=KAPPA1, kappa_q=KAPPA1)

    def test_matches_closed_form_at_resonant_coupling(self):
        for ratio in (1.0, 2.0, 3.0, 5.0):
            general = steady_amplitudes_general(self.fig5_params(ratio))
            closed = steady_amplitudes_closed(J20, KAPPA1, OMEGA01, ratio * OMEGA01)
            for field in ("c_e0", "c_g1", "c_e1", "c_g2"):
                assert getattr(general, field) == pytest.approx(
                    getattr(closed, field), rel=1e-12)

    def test_no_drive_gives_empty_excited_sector(self):
        amps = steady_amplitudes_general(replace(self.fig5_params(0.0), Omega_m=0.0, Omega_q=0.0))
        assert amps.c_e0 == amps.c_g1 == amps.c_e1 == amps.c_g2 == 0.0

    def test_arbitrary_detuning_solves_system(self):
        p = self.fig5_params(2.5, delta_plus=0.6 * J20)
        amps = steady_amplitudes_general(p)
        res = amplitude_residuals(amps, p.J, p.kappa_m, p.Delta_plus, p.Omega_m, p.Omega_q)
        assert np.abs(res).max() <= 1e-10

    def test_rejects_unequal_kappas(self):
        p = replace(self.fig5_params(2.0), kappa_q=0.5 * MHZ)
        with pytest.raises(ValueError, match="kappa"):
            steady_amplitudes_general(p)

    def test_master_equation_cross_check(self):
        # log10 curves agree within 10% relative in the strong-decay regime
        for ratio in np.linspace(1.0, 6.0, 11):
            amps = steady_amplitudes_general(self.fig5_params(ratio))
            analytic = 2 * abs(amps.c_g2) ** 2 / abs(amps.c_g1) ** 4
            numeric = master_equation_g2(20.0, 1.0, 0.1, ratio)
            log_a, log_n = math.log10(analytic), math.log10(numeric)
            assert abs(log_n - log_a) / abs(log_a) <= 0.10

    def test_weak_drive_hierarchy(self):
        # ground amplitude dominates at equal weak drives
        amps = steady_amplitudes_general(self.fig5_params(1.0))
        total = sum(abs(getattr(amps, f)) ** 2
                    for f in ("c_g0", "c_e0", "c_g1", "c_e1", "c_g2"))
        assert abs(amps.c_g0) ** 2 / total >= 0.99
        # single-magnon amplitude well above the double-excitation one
        for ratio in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            a = steady_amplitudes_general(self.fig5_params(ratio))
            assert abs(a.c_g1) > 5 * abs(a.c_g2)


class TestG2Analytic:
    def test_frozen_regression_at_triple_probe(self):
        # J/2pi=20 MHz, kappa/2pi=1 MHz, Omega_m/2pi=0.1 MHz, ratio 3
        full, approx = g2_analytic(J20, KAPPA1, OMEGA01, 3 * OMEGA01)
        assert approx == pytest.approx(6.202737469748e-06, rel=1e-10)
        assert math.log10(approx) == pytest.approx(-5.0, abs=0.3)

    def test_full_vs_approx_in_weak_drive_regime(self):
        for ratio in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            full, approx = g2_analytic(J20, KAPPA1, OMEGA01, ratio * OMEGA01)
            assert abs(full - approx) / approx < 0.01

    def test_scale_invariance_of_approx_form(self):
        _, base = g2_analytic(J20, KAPPA1, OMEGA01, 3 * OMEGA01)
        for lam in (0.5, 2.0):
            _, scaled = g2_analytic(J20, KAPPA1, lam * OMEGA01, 3 * lam * OMEGA01)
            assert scaled == pytest.approx(base, rel=1e-12)


    def test_self_check_raises_on_inconsistent_amplitudes(self, monkeypatch):
        import dataclasses

        import magnonblockade.analytic as analytic_mod

        closed = analytic_mod.steady_amplitudes_closed

        def perturbed(*args):
            amps = closed(*args)
            return dataclasses.replace(amps, c_g2=amps.c_g2 * (1.0 + 1e-6))

        monkeypatch.setattr(analytic_mod, "steady_amplitudes_closed", perturbed)
        with pytest.raises(ArithmeticError, match="deviates from amplitude form"):
            analytic_mod.g2_analytic(J20, KAPPA1, OMEGA01, 3 * OMEGA01)


class TestG2Dimensionless:
    def test_frozen_values(self):
        assert g2_dimensionless(2.0, 0.1) == pytest.approx(9.703954202915e-05, rel=1e-11)
        assert g2_dimensionless(2.0, 0.05) == pytest.approx(6.202737469748e-06, rel=1e-11)

    def test_consistent_with_physical_form(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            l = rng.uniform(-0.5, 6.0)
            r = rng.uniform(0.01, 0.25)
            J = rng.uniform(5, 40) * MHZ
            om = rng.uniform(0.01, 0.3) * MHZ
            _, approx = g2_analytic(J, r * J, om, (l + 1.0) * om)
            assert g2_dimensionless(l, r) == pytest.approx(approx, rel=1e-10)

    def test_bounded_at_large_ratio(self):
        value = g2_dimensionless(1e6, 0.1)
        assert math.isfinite(value)
        assert 0.0 < value < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g2_dimensionless(2.0, 0.0)
        with pytest.raises(ValueError):
            g2_dimensionless(-1.0, 0.1)

    def test_elementwise_on_arrays(self):
        ls = np.array([-0.5, 0.0, 2.0, 4.5])
        values = g2_dimensionless(ls, 0.1)
        assert values.shape == ls.shape
        for l, value in zip(ls, values):
            assert value == pytest.approx(g2_dimensionless(float(l), 0.1), rel=1e-14)
        with pytest.raises(ValueError):
            g2_dimensionless(np.array([0.0, -1.0]), 0.1)


class TestDerivativeRoots:
    def test_extrema_near_two_and_zero(self):
        pair = derivative_roots(0.1)
        assert pair.l1 == pytest.approx(2.0, abs=0.05)
        assert pair.l2 == pytest.approx(0.0, abs=0.01)

    def test_turning_point_regime(self):
        # kappa/2pi = 0.5 MHz at J/2pi ~ 35.7 MHz
        pair = derivative_roots(0.014)
        assert pair.l1 == pytest.approx(2.00044, abs=1e-4)
        assert abs(pair.l2) < 1e-3

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1, 0.2, 0.25])
    def test_radical_matches_companion_matrix(self, r):
        radical = derivative_roots(r)
        numeric = derivative_roots_numeric(r)
        assert abs(radical.l1 - numeric.l1) <= 1e-8
        assert abs(radical.l2 - numeric.l2) <= 1e-8

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1, 0.2, 0.25])
    def test_back_substitution_residuals(self, r):
        b, c, d, f = quartic_coefficients(r)
        pair = derivative_roots(r)
        for root in (pair.l1, pair.l2):
            assert abs(np.polyval([1.0, b, c, d, f], root)) <= 1e-8

    def test_roots_above_minus_one(self):
        for r in np.linspace(0.005, 0.25, 30):
            pair = derivative_roots(r)
            assert pair.l1 > -1.0
            assert pair.l2 > -1.0

    @pytest.mark.parametrize("r", [-0.1, 0.0, 0.3])
    def test_rejects_out_of_range(self, r):
        with pytest.raises(ValueError):
            derivative_roots(r)

    def test_global_minimum_property(self):
        grid = np.linspace(-0.9, 6.0, 4001)
        for r in (0.05, 0.1, 0.2):
            l1 = derivative_roots(r).l1
            best = g2_dimensionless(l1, r)
            values = [g2_dimensionless(l, r) for l in grid]
            assert best < min(values) + 1e-15 or best <= min(values)

    def test_physical_entry_point(self):
        ratio_global, ratio_local = optimal_drive_ratios(35.0 * MHZ, 0.5 * MHZ)
        assert ratio_global == pytest.approx(3.0, abs=0.01)
        assert ratio_local == pytest.approx(1.0, abs=0.01)


class TestRadicalFallback:
    def test_companion_roots_used_when_radicals_fail(self, monkeypatch):
        import magnonblockade.analytic as analytic_mod
        from magnonblockade.analytic import RadicalRootWarning

        monkeypatch.setattr(analytic_mod, "_radical_root_candidates", lambda r: [])
        with pytest.warns(RadicalRootWarning):
            pair = analytic_mod.derivative_roots(0.1)
        reference = derivative_roots_numeric(0.1)
        assert pair.l1 == reference.l1
        assert pair.l2 == reference.l2

    def test_divergence_reported_on_large_residual(self, monkeypatch):
        import magnonblockade.analytic as analytic_mod
        from magnonblockade.analytic import RadicalRootWarning

        monkeypatch.setattr(analytic_mod, "_radical_root_candidates",
                            lambda r: [(2.5, 0.1, 1e-3)])
        with pytest.warns(RadicalRootWarning, match="residual"):
            pair = analytic_mod.derivative_roots(0.1)
        assert pair.l1 == derivative_roots_numeric(0.1).l1


class TestSecondDerivative:
    def test_finite_difference_agreement(self):
        l, r, h = 2.0, 0.1, 1e-4
        fd = (g2_dimensionless(l + h, r) - 2 * g2_dimensionless(l, r)
              + g2_dimensionless(l - h, r)) / h**2
        assert second_derivative(l, r) == pytest.approx(fd, rel=1e-4)

    def test_positive_at_global_minimum(self):
        for r in np.linspace(0.0125, 0.25, 20):
            pair = derivative_roots(r)
            assert second_derivative(pair.l1, r) > 0.0

    def test_sign_flip_between_extrema(self):
        # a local maximum sits between the two minima at r = 0.1
        r = 0.1
        pair = derivative_roots(r)
        grid = np.linspace(-0.5, 3.0, 701)
        signs = [second_derivative(l, r) for l in grid]
        assert min(signs) < 0.0
        assert second_derivative(pair.l1, r) > 0.0
        assert second_derivative(pair.l2, r) > 0.0
