import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonblockade.dynamics import (
    DegenerateKernelError,
    Liouvillian,
    PeriodicConvergenceError,
    SteadyStateError,
    build_liouvillian,
    evolve,
    liouvillian_spectrum,
    steady_state,
    steady_state_periodic,
    unvec,
    vec,
)
from magnonblockade.hilbert import (
    DensityMatrix,
    HilbertSpace,
    dagger,
    embed_magnon,
    fock_annihilation,
)
from magnonblockade.model import MHZ, SystemParams, build_h_eff, collapse_channels
from magnonblockade.observables import g2_zero

FIG2A = dict(J=20.0 * MHZ, Delta_plus=20.0 * MHZ, Omega_m=0.1 * MHZ,
             Omega_q=0.1 * MHZ, kappa_m=1.0 * MHZ, kappa_q=1.0 * MHZ)


def fig2a_params(**kwargs):
    return SystemParams.from_detunings(**{**FIG2A, **kwargs})


def lindblad_rhs(h, channels, rho):
    out = -1j * (h @ rho - rho @ h)
    for rate, c in channels:
        cd = dagger(c)
        out += (rate / 2) * (2 * c @ rho @ cd - cd @ c @ rho - rho @ cd @ c)
    return out


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def vacuum(p):
    d = p.space.total_dim
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho, p.space, True)


class TestBuildLiouvillian:
    def test_matches_direct_rhs_on_random_states(self):
        p = fig2a_params(m_th=1e-3)
        h = build_h_eff(p)
        channels = collapse_channels(p)
        liouv = build_liouvillian(h, channels)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = random_density(rng, p.space.total_dim)
            direct = lindblad_rhs(h, channels, rho)
            via_l = unvec(liouv.matrix @ vec(rho))
            assert np.abs(via_l - direct).max() <= 1e-12

    def test_trace_preservation_left_null_vector(self):
        p = fig2a_params()
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        d = p.space.total_dim
        tr = vec(np.eye(d, dtype=complex))
        assert np.abs(tr @ liouv.matrix).max() <= 1e-10

    def test_single_magnon_decay(self):
        p = fig2a_params(J=0.0, Delta_plus=0.0, Omega_m=0.0, Omega_q=0.0, kappa_q=0.0)
        space = p.space
        m = embed_magnon(fock_annihilation(space), space)
        kappa = p.kappa_m
        liouv = build_liouvillian(np.zeros_like(m), [(kappa, m)])
        n = space.fock_dim
        rho = np.zeros((2 * n, 2 * n), dtype=complex)
        rho[1, 1] = 1.0  # |g,1><g,1|
        rhs = unvec(liouv.matrix @ vec(rho))
        expected = np.zeros_like(rho)
        expected[0, 0] = kappa
        expected[1, 1] = -kappa
        assert np.abs(rhs - expected).max() <= 1e-12

    def test_unitary_case_spectrum_imaginary(self):
        p = fig2a_params(kappa_m=0.0, kappa_q=0.0)
        h = build_h_eff(p)
        liouv = build_liouvillian(h, [])
        d = p.space.total_dim
        eye = np.eye(d)
        expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        assert np.abs(liouv.matrix - expected).max() <= 1e-12
        evals = np.linalg.eigvals(liouv.matrix)
        assert np.abs(evals.real).max() <= 1e-10 * np.abs(evals).max()

    def test_dissipative_spectrum(self):
        liouv = build_liouvillian(build_h_eff(fig2a_params()),
                                  collapse_channels(fig2a_params()))
        evals = liouvillian_spectrum(liouv)
        assert evals.real.max() <= 1e-10
        # unique kernel eigenvalue sorted first, then a finite spectral gap
        assert abs(evals[0]) <= 1e-10
        assert evals[1].real < -0.1 * fig2a_params().kappa_m

    def test_rejects_nonhermitian_hamiltonian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            build_liouvillian(h, [])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            build_liouvillian(np.eye(4, dtype=complex), [(1.0, np.eye(6, dtype=complex))])


class TestSteadyState:
    def test_pure_decay_reaches_vacuum(self):
        p = fig2a_params(Omega_m=0.0, Omega_q=0.0)
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        d = p.space.total_dim
        expected = np.zeros((d, d))
        expected[0, 0] = 1.0
        assert np.abs(rho.matrix - expected).max() <= 1e-10

    def test_driven_cavity_coherent_state(self):
        # magnon-only driven damped oscillator: <m> = -2i Omega/kappa, g2 = 1
        n = 20
        space = HilbertSpace(n)
        m = fock_annihilation(space)
        kappa = 1.0 * MHZ
        omega_d = 0.05 * kappa
        h = omega_d * (m + dagger(m))
        rho = steady_state(build_liouvillian(h, [(kappa, m)]),
                           space=space, composite=False)
        amp = np.trace(rho.matrix @ m)
        assert amp == pytest.approx(-2j * omega_d / kappa, abs=1e-9)
        assert g2_zero(rho) == pytest.approx(1.0, abs=1e-6)

    def test_resonant_point_blockade_depth(self):
        rho = steady_state(build_liouvillian(build_h_eff(fig2a_params()),
                                             collapse_channels(fig2a_params())))
        assert math.log10(g2_zero(rho)) == pytest.approx(-2.0, abs=0.2)

    def test_degenerate_kernel_reports_multiplicity(self):
        p = fig2a_params(kappa_m=0.0, kappa_q=0.0)
        liouv = build_liouvillian(build_h_eff(p), [])
        with pytest.raises(DegenerateKernelError) as err:
            steady_state(liouv)
        assert err.value.multiplicity >= p.space.total_dim

    def test_missing_kernel_detected(self):
        p = fig2a_params()
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        shifted = Liouvillian(matrix=liouv.matrix - 0.5 * np.eye(liouv.dim),
                              hamiltonian=liouv.hamiltonian, channels=liouv.channels)
        with pytest.raises(SteadyStateError, match="no Liouvillian kernel"):
            steady_state(shifted)

    def test_residual_bound(self):
        p = fig2a_params()
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        rho = steady_state(liouv)
        assert np.abs(liouv.matrix @ vec(rho.matrix)).max() <= 1e-10


    def test_fig6b_deep_blockade_matches_extended_precision(self):
        """Deepest fig6b point: J/2pi = 35 MHz, Omega_m/2pi = 5 kHz,
        kappa/2pi = 0.179 MHz, Omega_q/Omega_m = 3, Delta_plus = J, N = 6.

        Reference: mpmath at dps = 40, lu_solve of L (built here in double
        precision) with row 0 replaced by the trace row and right-hand side
        e_0, reduced to log10 g2 in the same precision.
        """
        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.005 * MHZ,
            Omega_q=0.015 * MHZ, kappa_m=0.179 * MHZ, kappa_q=0.179 * MHZ)
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        assert math.log10(g2_zero(rho)) == pytest.approx(-9.15244830397511, abs=1e-8)

    def test_svd_not_used_on_a_regular_point(self, monkeypatch):
        p = fig2a_params()
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called on a regular point")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rho = steady_state(liouv)
        assert np.abs(liouv.matrix @ vec(rho.matrix)).max() <= 1e-10

    def test_svd_fallback_gives_the_same_state(self, monkeypatch):
        import magnonblockade.dynamics as dynamics_mod

        p = fig2a_params(m_th=0.05)
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        fast = steady_state(liouv)
        monkeypatch.setattr(dynamics_mod, "_bordered_solve", lambda *args: None)
        slow = steady_state(liouv)
        assert np.abs(fast.matrix - slow.matrix).max() <= 1e-10


@st.composite
def random_params(draw, dissipative=True):
    rate = st.floats(0.2, 2.0)
    kappa_m, kappa_q = (draw(rate), draw(rate)) if dissipative else (0.0, 0.0)
    if dissipative and abs(kappa_m - kappa_q) < 1e-3:
        kappa_q = kappa_m + 0.1
    return SystemParams.from_detunings(
        J=draw(st.floats(0.0, 40.0)) * MHZ,
        Delta_plus=draw(st.floats(-40.0, 40.0)) * MHZ,
        Delta_minus=draw(st.floats(-5.0, 5.0)) * MHZ,
        Omega_m=draw(st.floats(0.0, 0.5)) * MHZ,
        Omega_q=draw(st.floats(0.0, 1.5)) * MHZ,
        kappa_m=kappa_m * MHZ, kappa_q=kappa_q * MHZ,
        m_th=draw(st.floats(0.0, 0.1)),
        fock_dim=draw(st.integers(4, 8)),
    )


class TestSteadyStateProperties:
    @settings(max_examples=30, deadline=None)
    @given(random_params())
    def test_matches_svd_null_vector(self, p):
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        rho = steady_state(liouv)
        null = np.linalg.svd(liouv.matrix)[2][-1].conj()
        reference = unvec(null / np.trace(unvec(null)))
        assert np.abs(rho.matrix - reference).max() <= 1e-9
        assert np.abs(liouv.matrix @ vec(rho.matrix)).max() <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(random_params(dissipative=False))
    def test_undamped_kernel_is_degenerate(self, p):
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        with pytest.raises(DegenerateKernelError) as err:
            steady_state(liouv)
        assert err.value.multiplicity >= p.space.total_dim


class TestEvolve:
    def test_free_evolution_is_constant(self):
        p = SystemParams.from_detunings(J=0.0, Delta_plus=0.0, omega_drive=0.0)
        rng = np.random.default_rng(2)
        rho0 = DensityMatrix(random_density(rng, p.space.total_dim), p.space, True)
        traj = evolve(rho0, p, np.linspace(0.0, 1.0, 5))
        for state in traj.states:
            assert np.abs(state.matrix - rho0.matrix).max() <= 1e-12

    def test_qubit_rabi_oscillation(self):
        p = SystemParams.from_detunings(J=0.0, Delta_plus=0.0, Omega_q=0.5 * MHZ)
        cycles = 2.0
        t_end = cycles * math.pi / p.Omega_q  # P_e period is pi/Omega_q
        t_grid = np.linspace(0.0, t_end, 401)
        traj = evolve(vacuum(p), p, t_grid)
        n = p.fock_dim
        p_e = np.array([state.matrix[n, n].real for state in traj.states])
        expected = np.sin(p.Omega_q * t_grid) ** 2
        assert np.abs(p_e - expected).max() <= 1e-6

    def test_long_time_limit_matches_steady_state(self):
        p = fig2a_params()
        kappa = p.kappa_m
        traj = evolve(vacuum(p), p, np.array([0.0, 30.0 / kappa]))
        g2_t = g2_zero(traj.states[-1])
        rho_ss = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        assert abs(g2_t - g2_zero(rho_ss)) / g2_zero(rho_ss) <= 0.01

    def test_trace_and_positivity_along_trajectory(self):
        p = fig2a_params()
        t_grid = np.linspace(0.0, 10.0 / p.kappa_m, 41)
        traj = evolve(vacuum(p), p, t_grid)
        assert traj.trace_drift <= 1e-8
        for state in traj.states:
            assert abs(np.trace(state.matrix).real - 1.0) <= 1e-8
            assert np.linalg.eigvalsh(state.matrix).min() >= -1e-7

    def test_rk4_steps_drive_vectors_and_matrices(self):
        # one step count drives a state vector and the propagator matrix alike
        from magnonblockade.dynamics import _rk4_steps

        p = fig2a_params(fock_dim=3)
        lmat = build_liouvillian(build_h_eff(p), collapse_channels(p)).matrix
        v0 = vec(vacuum(p).matrix)
        states = list(_rk4_steps(lambda t, v: lmat @ v, v0, 0.0, 0.05, 5))
        assert len(states) == 5
        for prop in _rk4_steps(lambda t, v: lmat @ v, np.eye(lmat.shape[0]), 0.0, 0.05, 5):
            pass
        assert np.abs(prop @ v0 - states[-1]).max() <= 1e-13

    def test_rejects_bad_grid(self):
        p = fig2a_params()
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, np.array([0.0, 0.2, 0.2]))


class TestEvolveAgainstAdaptiveIntegrator:
    """Independent oracle: scipy's DOP853 on the same master equation."""

    def scipy_final_state(self, p, t_end, rho0):
        from scipy.integrate import solve_ivp

        from magnonblockade.dynamics import _split_periodic_liouvillian

        l0, l1, l2, omega = _split_periodic_liouvillian(p)

        def rhs(t, v):
            out = l0 @ v
            if p.g_rp > 0.0:
                out = out + np.exp(-1j * omega * t) * (l1 @ v)
                out = out + np.exp(1j * omega * t) * (l2 @ v)
            return out

        sol = solve_ivp(rhs, (0.0, t_end), vec(rho0), method="DOP853",
                        rtol=1e-11, atol=1e-13)
        return unvec(sol.y[:, -1])

    def test_static_evolution_matches(self):
        # fixed-step RK4 transient accuracy against a tight adaptive reference
        p = fig2a_params()
        t_end = 1.0 / p.kappa_m
        traj = evolve(vacuum(p), p, np.array([0.0, t_end]))
        ref = self.scipy_final_state(p, t_end, vacuum(p).matrix)
        assert np.abs(traj.states[-1].matrix - ref).max() <= 1e-7

    def test_time_dependent_evolution_matches(self):
        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=0.099 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
            omega_drive=1500.0 * MHZ, g_rp=3.5 * MHZ)
        period = 2 * math.pi / p.omega_drive
        t_end = 20 * period
        traj = evolve(vacuum(p), p, np.array([0.0, t_end]), time_dependent=True)
        ref = self.scipy_final_state(p, t_end, vacuum(p).matrix)
        assert np.abs(traj.states[-1].matrix - ref).max() <= 1e-9

    def test_split_generator_matches_longitudinal_hamiltonian(self):
        # the harmonic-split generator equals the Liouvillian rebuilt from the
        # instantaneous longitudinal Hamiltonian at every sampled phase
        from magnonblockade.dynamics import _split_periodic_liouvillian
        from magnonblockade.model import build_h_longitudinal

        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=0.099 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
            omega_drive=1500.0 * MHZ, g_rp=7.0 * MHZ)
        l0, l1, l2, omega = _split_periodic_liouvillian(p)
        for t in (0.0, 1.7e-4, 5.3e-4):
            split = l0 + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2
            direct = build_liouvillian(build_h_longitudinal(p, t),
                                       collapse_channels(p)).matrix
            assert np.abs(split - direct).max() <= 1e-11 * np.abs(direct).max()


OPT = dict(J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
           Omega_q=3 * 0.033 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
           omega_drive=1500.0 * MHZ)


class TestSteadyStatePeriodic:
    def test_continuity_to_static_problem(self):
        p = SystemParams.from_detunings(**OPT, g_rp=1e-8 * 35.0 * MHZ)
        rho_per = steady_state_periodic(p)
        rho_stat = steady_state(build_liouvillian(build_h_eff(p.with_(g_rp=0.0)),
                                                  collapse_channels(p)))
        assert np.abs(rho_per.matrix - rho_stat.matrix).max() <= 1e-6

    def test_rejects_zero_coupling(self):
        p = SystemParams.from_detunings(**OPT)
        with pytest.raises(ValueError, match="g_rp"):
            steady_state_periodic(p)

    def test_nonconvergence_reported(self):
        p = SystemParams.from_detunings(**OPT, g_rp=0.1 * 35.0 * MHZ)
        with pytest.raises(PeriodicConvergenceError):
            steady_state_periodic(p, kappa_t=0.01)

    def test_state_is_valid_density_matrix(self):
        p = SystemParams.from_detunings(**OPT, g_rp=0.1 * 35.0 * MHZ)
        rho = steady_state_periodic(p)
        rho.validate()
        # paper-value regressions for this solver live in test_acceptance
        assert g2_zero(rho) < 1e-5
