import math
from types import SimpleNamespace

import numpy as np
import pytest

from magnonblockade.dynamics import Trajectory, build_liouvillian, evolve, steady_state
from magnonblockade.hilbert import (
    DensityMatrix,
    HilbertSpace,
    dagger,
    embed_magnon,
    embed_qubit,
    fock_annihilation,
    qubit_lowering,
)
from magnonblockade.model import MHZ, SystemParams, build_h_eff, collapse_channels
from magnonblockade.observables import (
    OCCUPATION_FLOOR,
    UndefinedCorrelationError,
    g2_from_populations,
    g2_time_series,
    g2_zero,
    populations,
)


def partial_trace_qubit(rho: DensityMatrix) -> np.ndarray:
    """The magnon's reduced density matrix rho_m = Tr_q[rho] of a composite state."""
    n = rho.space.fock_dim
    return np.einsum("anam->nm", rho.matrix.reshape(2, n, 2, n))


def magnon_dm(matrix, n):
    """The composite state of a magnon in ``matrix`` beside a qubit in |g>."""
    ground = np.diag([1.0, 0.0])
    return DensityMatrix(np.kron(ground, np.asarray(matrix, dtype=complex)), HilbertSpace(n))


def vacuum(p):
    d = p.space.total_dim
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho, p.space)


def fig2a_params(**kwargs):
    base = dict(J=20.0 * MHZ, Delta_plus=20.0 * MHZ, Omega_m=0.1 * MHZ,
                Omega_q=0.1 * MHZ, kappa_m=1.0 * MHZ, kappa_q=1.0 * MHZ)
    base.update(kwargs)
    return SystemParams.from_detunings(**base)


def coherent_magnon(alpha, n):
    amps = np.array([
        math.exp(-abs(alpha) ** 2 / 2) * alpha**k / math.sqrt(math.factorial(k))
        for k in range(n)
    ], dtype=complex)
    return magnon_dm(np.outer(amps, amps.conj()), n)


def thermal_magnon(m_th, n):
    weights = (m_th / (1.0 + m_th)) ** np.arange(n) / (1.0 + m_th)
    weights /= weights.sum()
    return magnon_dm(np.diag(weights), n)


class TestPartialTrace:
    # populations(rho) is the diagonal of Tr_q[rho]: both are checked against
    # states whose magnon marginal is known
    def test_product_state(self):
        n = 4
        rng = np.random.default_rng(31)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sigma = a @ a.conj().T
        sigma /= np.trace(sigma)
        excited = np.diag([0.0, 1.0]).astype(complex)
        rho = DensityMatrix(np.kron(excited, sigma), HilbertSpace(n))
        assert np.abs(partial_trace_qubit(rho) - sigma).max() <= 1e-14
        assert np.abs(populations(rho) - np.diag(sigma).real).max() <= 1e-15

    def test_maximally_entangled_pair(self):
        n = 4
        psi = np.zeros(2 * n, dtype=complex)
        psi[0] = 1 / math.sqrt(2)      # |g,0>
        psi[n + 1] = 1 / math.sqrt(2)  # |e,1>
        rho = DensityMatrix(np.outer(psi, psi.conj()), HilbertSpace(n))
        reduced = partial_trace_qubit(rho)
        assert np.allclose(np.diag(reduced).real, [0.5, 0.5, 0.0, 0.0], atol=1e-14)
        assert np.abs(reduced - np.diag(np.diag(reduced))).max() <= 1e-14
        assert np.abs(populations(rho) - [0.5, 0.5, 0.0, 0.0]).max() <= 1e-15

    def test_commutes_with_magnon_observables(self):
        n = 5
        rng = np.random.default_rng(33)
        a = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        rho_mat = a @ a.conj().T
        rho_mat /= np.trace(rho_mat)
        rho = DensityMatrix(rho_mat, HilbertSpace(n))
        m = fock_annihilation(HilbertSpace(n))
        n_op = dagger(m) @ m
        full = np.trace(rho.matrix @ np.kron(np.eye(2), n_op))
        reduced = np.trace(partial_trace_qubit(rho) @ n_op)
        assert abs(full - reduced) <= 1e-12
        assert abs(full - populations(rho) @ np.arange(n)) <= 1e-12


class TestPopulations:
    def test_sum_to_one_and_nonnegative(self):
        p = fig2a_params()
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        pops = populations(rho)
        assert pops.sum() == pytest.approx(1.0, abs=1e-8)
        assert pops.min() >= -1e-9


class TestG2Zero:
    def test_single_fock_state(self):
        n = 5
        rho = np.zeros((n, n))
        rho[1, 1] = 1.0
        assert g2_zero(magnon_dm(rho, n)) == 0.0

    def test_coherent_state_poissonian(self):
        assert g2_zero(coherent_magnon(0.3, 20)) == pytest.approx(1.0, abs=1e-6)

    def test_thermal_state_bunching(self):
        # geometric-distribution moments give exactly 2 in the untruncated limit
        assert g2_zero(thermal_magnon(0.1, 20)) == pytest.approx(2.0, abs=1e-6)

    def test_thermal_dissipator_steady_state(self):
        # the m_th dissipator alone relaxes the mode to the thermal state, beside
        # an idle qubit that decays to |g>; N = 10 is the smallest truncation
        # within the bound
        space = HilbertSpace(10)
        m = embed_magnon(fock_annihilation(space), space)
        kappa, m_th = 1.0 * MHZ, 0.1
        channels = [(kappa * (m_th + 1), m), (kappa * m_th, dagger(m)),
                    (kappa, embed_qubit(qubit_lowering(), space))]
        rho = steady_state(build_liouvillian(np.zeros_like(m), channels))
        assert g2_zero(rho) == pytest.approx(2.0, abs=1e-6)

    def test_vacuum_raises(self):
        n = 4
        rho = np.zeros((n, n))
        rho[0, 0] = 1.0
        with pytest.raises(UndefinedCorrelationError):
            g2_zero(magnon_dm(rho, n))

    def test_invariant_under_number_dephasing(self):
        n = 8
        rng = np.random.default_rng(37)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        base = g2_zero(magnon_dm(rho, n))
        for theta in rng.uniform(0, 2 * math.pi, size=5):
            u = np.diag(np.exp(1j * theta * np.arange(n)))
            rotated = u @ rho @ u.conj().T
            assert g2_zero(magnon_dm(rotated, n)) == pytest.approx(base, rel=1e-12)

    def test_composite_equals_reduced(self):
        # g2 reads only the magnon marginal: the same beside a qubit in |g>
        p = fig2a_params()
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        reduced = magnon_dm(partial_trace_qubit(rho), p.fock_dim)
        assert g2_zero(rho) == pytest.approx(g2_zero(reduced), rel=1e-12)

    def test_single_excitation_support_is_zero(self):
        n = 6
        rho = np.diag([0.7, 0.3, 0, 0, 0, 0]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.2
        assert g2_zero(magnon_dm(rho, n)) == 0.0


class TestG2TimeSeries:
    def test_asymptote_at_resonant_coupling(self):
        p = fig2a_params()
        kappa = p.kappa_m
        t_grid = np.linspace(0.0, 30.0 / kappa, 61)
        traj = evolve(vacuum(p), p, t_grid)
        tail = g2_time_series(traj)[kappa * traj.times >= 20.0]
        assert all(math.log10(v) == pytest.approx(-2.0, abs=0.2) for v in tail)

    def test_bunching_asymptote_above_one(self):
        p = fig2a_params(Delta_plus=0.7 * 20.0 * MHZ)
        kappa = p.kappa_m
        traj = evolve(vacuum(p), p, np.linspace(0.0, 30.0 / kappa, 31))
        assert g2_time_series(traj)[-1] > 1.0

    def test_constant_input_gives_constant_series(self):
        p = fig2a_params()
        rho_ss = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        traj = evolve(rho_ss, p, np.linspace(0.0, 2.0 / p.kappa_m, 9))
        values = g2_time_series(traj)
        assert values.max() - values.min() <= 1e-6 * values[0]

    def test_undefined_points_become_gaps(self):
        p = fig2a_params(Omega_m=0.0, Omega_q=0.0)
        traj = evolve(vacuum(p), p, np.linspace(0.0, 1.0 / p.kappa_m, 5))
        assert np.isnan(g2_time_series(traj)).all()


def g2_or_nan(state):
    try:
        return g2_zero(state)
    except UndefinedCorrelationError:
        return math.nan


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStackedG2:
    """g2_time_series and g2_zero share one stacked core, so they agree bit for bit."""

    @pytest.mark.parametrize("kwargs", [{}, {"Delta_plus": 0.7 * 20.0 * MHZ},
                                        {"fock_dim": 3}, {"Omega_m": 0.0, "Omega_q": 0.0}])
    def test_series_equals_g2_zero_of_each_state(self, kwargs):
        p = fig2a_params(**kwargs)
        traj = evolve(vacuum(p), p, np.linspace(0.0, 10.0 / p.kappa_m, 41))
        series = g2_time_series(traj)
        reference = [g2_or_nan(state) for state in traj.states]
        assert same_bits(series, reference)
        assert math.isnan(series[0])  # the vacuum has no occupation

    def test_populations_are_those_of_the_states(self):
        p = fig2a_params()
        traj = evolve(vacuum(p), p, np.linspace(0.0, 10.0 / p.kappa_m, 21))
        assert same_bits(traj.populations, [populations(state) for state in traj.states])

    def test_trajectory_without_populations_gathers_them_from_its_states(self):
        p = fig2a_params()
        traj = evolve(vacuum(p), p, np.linspace(0.0, 10.0 / p.kappa_m, 21))
        bare = Trajectory(times=traj.times, states=traj.states, params=p, step=traj.step,
                          trace_drift=traj.trace_drift)
        assert bare.populations is None
        assert same_bits(g2_time_series(bare), g2_time_series(traj))

    def test_nan_only_below_the_occupation_floor(self):
        below = np.nextafter(OCCUPATION_FLOOR, 0.0)
        p1 = np.array([0.0, below, OCCUPATION_FLOOR, np.nextafter(OCCUPATION_FLOOR, 1.0),
                       2.0 * OCCUPATION_FLOOR, 1e-3])
        stack = np.zeros((p1.size, 5))
        stack[:, 1] = p1
        stack[-1, 2] = 1e-5  # <m'm> of the others is P1 alone
        stack[:, 0] = 1.0 - stack.sum(axis=1)
        series = g2_time_series(SimpleNamespace(populations=stack))
        assert np.isnan(series).tolist() == [True, True, False, False, False, False]
        assert series[-1] > 0.0
        states = [magnon_dm(np.diag(row), 5) for row in stack]
        assert same_bits(series, [g2_or_nan(state) for state in states])
        for state in states[:2]:
            with pytest.raises(UndefinedCorrelationError):
                g2_zero(state)


class TestG2FromPopulations:
    def test_single_excitation_limit(self):
        eps = 1e-3
        assert g2_from_populations([1 - eps, eps, 0.0, 0.0]) == 0.0

    def test_poissonian_populations(self):
        # oracle: 2 (e^-L L^2/2) / (e^-L L)^2 = e^L at L = |alpha|^2
        lam = 0.01
        pops = np.exp(-lam) * lam ** np.arange(10) / [math.factorial(k) for k in range(10)]
        value = g2_from_populations(pops)
        assert value == pytest.approx(math.exp(lam), rel=1e-10)
        assert value == pytest.approx(1.0, abs=0.011)

    def test_matches_full_correlation_at_optimal_point(self):
        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=0.099 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ)
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        approx = g2_from_populations(populations(rho))
        assert approx == pytest.approx(g2_zero(rho), rel=0.05)

    def test_vanishing_p1_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_from_populations([1.0, 0.0, 0.0])
