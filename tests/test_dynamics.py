import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magnonblockade.dynamics as dynamics_mod
from magnonblockade.dynamics import (
    DegenerateKernelError,
    Liouvillian,
    SteadyStateError,
    _basis,
    _blocked_kernel,
    _chunk_entries,
    _chunk_rows,
    _coords,
    _density,
    _excitation_blocks,
    _kernel_state,
    _levels,
    _liouvillian_plan,
    _max_step,
    _one_period_maps,
    _periodic_parts,
    _rk4_steps,
    _steady_stack,
    _truncated_harmonics,
    _unit_coupling,
    build_liouvillian,
    evolve,
    steady_state,
    steady_state_periodic,
    steady_states,
)
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
from magnonblockade.observables import g2_zero, populations
from magnonblockade.scenarios import (
    SweepAxis,
    _steady_chunk,
    _steady_rows,
    _system_params,
    built_in_scenarios,
    get_scenario,
    parse_config,
    run_scenario,
)

from column_stacking import unvec, vec

FIG2A = dict(J=20.0 * MHZ, Delta_plus=20.0 * MHZ, Omega_m=0.1 * MHZ,
             Omega_q=0.1 * MHZ, kappa_m=1.0 * MHZ, kappa_q=1.0 * MHZ)


def fig2a_params(**kwargs):
    return SystemParams.from_detunings(**{**FIG2A, **kwargs})


def fig7b_params(fock_dim):
    """The first fig7b grid point (kappa/2pi = 0.2 MHz) at ``fock_dim`` Fock states."""
    cfg = get_scenario("fig7b")
    return _system_params(cfg.grid_points()[0], fock_dim)


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
    return DensityMatrix(rho, p.space)


def idle_qubit(space, rate):
    """The decay channel of an undriven, uncoupled qubit, which leaves it in
    |g> and the magnon's steady state unchanged."""
    return rate, embed_qubit(qubit_lowering(), space)


def split_periodic_liouvillian(p):
    """``_periodic_parts`` as complex column-stacked harmonics,
    L(t) = L0 + e^{-iwt} L1 + e^{iwt} L2 with L1 = (L_c + i L_s)/2 and
    L2 = (L_c - i L_s)/2, the superoperators of -i[A, .] and -i[A', .]; the
    form the harmonic-expansion references of the periodic solve are written in."""
    liouv, lc, ls, omega = _periodic_parts(p)
    return liouv, (lc.matrix + 1j * ls.matrix) / 2, (lc.matrix - 1j * ls.matrix) / 2, omega


def sambe_period_average(p, harmonics):
    """Period average of the periodic steady state from one sparse LU of the
    whole Floquet-Liouville (Sambe-space) system truncated at |k| <= harmonics
    (Sambe, PRA 7, 2203 (1973)), in the complex column-stacked form: block row
    k holds (L0 - ikw) rho_k + L1 rho_{k+1} + L2 rho_{k-1} = 0, and row 0 of
    block row 0 is the trace condition tr(rho_0) = 1. One refinement step
    follows the solve."""
    from scipy.sparse import bmat, csr_matrix
    from scipy.sparse.linalg import splu

    liouv, l1, l2, omega = split_periodic_liouvillian(p)
    l0 = liouv.matrix
    dim, n = l0.shape[0], 2 * harmonics + 1
    blocks = [[None] * n for _ in range(n)]
    for i, k in enumerate(range(-harmonics, harmonics + 1)):
        row = {i: l0 - 1j * k * omega * np.eye(dim)}
        if i + 1 < n:
            row[i + 1] = l1.copy()
        if i > 0:
            row[i - 1] = l2.copy()
        if k == 0:
            for block in row.values():
                block[0] = 0.0
            row[i][0] = vec(np.eye(p.space.total_dim))
        for j, block in row.items():
            blocks[i][j] = csr_matrix(block)
    sambe = bmat(blocks, format="csc")
    rhs = np.zeros(n * dim, dtype=complex)
    rhs[harmonics * dim] = 1.0
    lu = splu(sambe)
    sol = lu.solve(rhs)
    sol = sol + lu.solve(rhs - sambe @ sol)
    rho = unvec(sol[harmonics * dim:(harmonics + 1) * dim])
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho / np.trace(rho).real, p.space)


def spy_truncations(monkeypatch):
    """The list of harmonic counts that ``steady_state_periodic`` truncates
    its recursion at, in call order, filled as it runs."""
    calls = []
    truncated = dynamics_mod._truncated_harmonics

    def spy(p, l0, harmonics):
        calls.append(harmonics)
        return truncated(p, l0, harmonics)

    monkeypatch.setattr(dynamics_mod, "_truncated_harmonics", spy)
    return calls


def log10_g2(rho):
    return math.log10(g2_zero(rho))


def one_period_steps(p, steps_per_period=64):
    """The RK4 steps of one drive period in ``_one_period_maps``: the given
    count, or more where a step would exceed ``_max_step``."""
    period = 2.0 * math.pi / p.omega_drive
    return max(steps_per_period, math.ceil(period / _max_step(p, build_h_eff(p))))


def textbook_rk4(gen, v, t0, t1, n):
    """The states after each of n allocating RK4 steps of v' = gen(t) v."""
    h = (t1 - t0) / n
    t = t0
    states = []
    for _ in range(n):
        k1 = gen(t) @ v
        k2 = gen(t + h / 2.0) @ (v + (h / 2.0) * k1)
        k3 = gen(t + h / 2.0) @ (v + (h / 2.0) * k2)
        k4 = gen(t + h) @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        states.append(v)
    return states


def identical(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        evals = np.linalg.eigvals(liouv.matrix)
        evals = evals[np.argsort(np.abs(evals.real))]
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_hamiltonian(self, value):
        # a real nan or inf on the diagonal gives a nan deviation, which passes
        # the Hermiticity check, since nan > tol is false
        p = fig2a_params()
        h = build_h_eff(p)
        h[1, 1] = value
        with pytest.raises(ValueError, match="Hamiltonian has a non-finite entry"):
            build_liouvillian(h, collapse_channels(p))

    @pytest.mark.parametrize("bad", ["rate", "operator"])
    def test_rejects_non_finite_channel(self, bad):
        p = fig2a_params()
        (rate, c), *rest = collapse_channels(p)
        if bad == "rate":
            rate = math.nan
        else:
            c = c.copy()
            c[0, 1] = math.inf
        with pytest.raises(ValueError, match="non-finite rate or operator entry"):
            build_liouvillian(build_h_eff(p), [(rate, c), *rest])


class TestLiouvillianPlanCache:
    """A build that reuses a cached index plan gives the bits of a build from a
    cleared cache, whatever the cache held before."""

    @staticmethod
    def cold(h, channels):
        _liouvillian_plan.cache_clear()
        return build_liouvillian(h, channels).real.tobytes()

    @staticmethod
    def warm(p, h, channels):
        _liouvillian_plan.cache_clear()
        build_liouvillian(build_h_eff(p), collapse_channels(p))
        return build_liouvillian(h, channels).real.tobytes()

    def test_same_pattern_other_values(self):
        base = fig2a_params()
        p = fig2a_params(J=31.0 * MHZ, Omega_q=0.4 * MHZ, kappa_m=0.7 * MHZ)
        h, channels = build_h_eff(p), collapse_channels(p)
        assert self.warm(base, h, channels) == self.cold(h, channels)
        build_liouvillian(build_h_eff(base), collapse_channels(base))
        assert _liouvillian_plan.cache_info().currsize == 1

    @pytest.mark.parametrize("change", [dict(Omega_q=0.0), dict(m_th=0.2), dict(kappa_q=0.0)])
    def test_pattern_changes(self, change):
        p = fig2a_params(**change)
        h, channels = build_h_eff(p), collapse_channels(p)
        assert self.warm(fig2a_params(), h, channels) == self.cold(h, channels)

    def test_channel_order(self):
        p = fig2a_params(m_th=0.2)
        h, channels = build_h_eff(p), collapse_channels(p)[::-1]
        assert self.warm(p, h, channels) == self.cold(h, channels)


def random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestHermitianBasis:
    """The real generator is L in the coordinates of ``_basis``; its complex
    view is checked against an assembly by dense Kronecker products."""

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_complex_view_matches_kron_assembly(self, n):
        rng = np.random.default_rng(n)
        a = random_operator(rng, n)
        h = a + a.conj().T
        channels = [(0.7, random_operator(rng, n)), (0.2, random_operator(rng, n))]
        eye = np.eye(n)
        expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        for rate, c in channels:
            cdc = dagger(c) @ c
            expected = expected + rate * (np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc)
                                          - 0.5 * np.kron(cdc.T, eye))
        assert np.abs(build_liouvillian(h, channels).matrix - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_real_matrix_annihilates_the_trace(self, n):
        rng = np.random.default_rng(n)
        a = random_operator(rng, n)
        liouv = build_liouvillian(a + dagger(a), [(0.7, random_operator(rng, n))])
        assert liouv.real.dtype == np.float64 and liouv.real.shape == (n * n, n * n)
        trace_row = np.zeros(n * n)
        trace_row[:n] = 1.0
        assert np.abs(trace_row @ liouv.real).max() <= 1e-12

    def test_coordinates_round_trip(self):
        rho = random_density(np.random.default_rng(3), 8)
        rho = (rho + rho.conj().T) / 2
        x = _coords(rho)
        assert x.dtype == np.float64
        assert np.abs(_density(x) - rho).max() <= 1e-15
        basis = _basis(8)
        assert np.abs((basis.coefs * x[basis.coords]).sum(axis=1) - vec(rho)).max() <= 1e-15

    def test_solvers_never_read_the_complex_view(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a solver read Liouvillian.matrix")

        monkeypatch.setattr(Liouvillian, "matrix", property(refuse))
        p = fig2a_params(fock_dim=4)
        steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        evolve(vacuum(p), p, np.linspace(0.0, 3.0 / p.kappa_m, 4))
        p = SystemParams.from_detunings(**OPT, fock_dim=3, g_rp=0.3 * 35.0 * MHZ)
        steady_state_periodic(p)
        cfg = parse_config("scenario = t\nmode = steady\nfock_dim = 4\n"
                           "params.J_over_2pi_MHz = 20\nparams.kappa_over_2pi_MHz = 1\n"
                           "params.Omega_m_over_2pi_MHz = 0.1\n")
        (row,) = run_scenario(cfg).rows
        assert row[-1] == ""


class TestSteadyState:
    def test_pure_decay_reaches_vacuum(self):
        p = fig2a_params(Omega_m=0.0, Omega_q=0.0)
        rho = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        d = p.space.total_dim
        expected = np.zeros((d, d))
        expected[0, 0] = 1.0
        assert np.abs(rho.matrix - expected).max() <= 1e-10

    def test_driven_cavity_coherent_state(self):
        # driven damped magnon beside an idle, decaying qubit:
        # <m> = -2i Omega/kappa, g2 = 1; N = 5 is the smallest truncation
        # within the bounds
        space = HilbertSpace(5)
        m = embed_magnon(fock_annihilation(space), space)
        kappa = 1.0 * MHZ
        omega_d = 0.05 * kappa
        h = omega_d * (m + dagger(m))
        rho = steady_state(build_liouvillian(h, [(kappa, m), idle_qubit(space, kappa)]))
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
        shifted = Liouvillian(real=liouv.real - 0.5 * np.eye(liouv.dim))
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

    def test_fig8a_thermal_point_matches_extended_precision(self):
        """fig8a point with three channels: J/2pi = 35 MHz, kappa/2pi = 0.5 MHz,
        Omega_m/2pi = 0.033 MHz, Omega_q/Omega_m = 3, Delta_plus = J, m_th = 1e-6,
        N = 6. The heating channel moves log10 g2 from -7.313 (m_th = 0).

        Reference: mpmath at dps = 40, with L = -i(I kron H - H^T kron I)
        + sum (g/2)(2 conj(C) kron C - I kron C'C - (C'C)^T kron I) assembled
        term by term in that precision from the double-precision H and C of
        ``build_h_eff`` and ``collapse_channels``, then lu_solve with row 0
        replaced by the trace row and right-hand side e_0.
        """
        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=3 * 0.033 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ, m_th=1e-6)
        channels = collapse_channels(p)
        assert len(channels) == 3
        rho = steady_state(build_liouvillian(build_h_eff(p), channels))
        assert math.log10(g2_zero(rho)) == pytest.approx(-4.035412163808222022, abs=1e-10)
        assert populations(rho)[1] == pytest.approx(0.016289207180167294872, rel=1e-10)

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

        def singular(*args):
            raise np.linalg.LinAlgError("singular block")

        # the banded and the one-level eliminations both fail, so the SVD decides
        svd_calls = []
        svd_kernel = dynamics_mod._svd_kernel

        def spy(gen):
            svd_calls.append(gen)
            return svd_kernel(gen)

        monkeypatch.setattr(dynamics_mod, "_blocked_kernel", singular)
        monkeypatch.setattr(dynamics_mod, "_svd_kernel", spy)
        slow = steady_state(liouv)
        assert len(svd_calls) == 1
        assert np.abs(fast.matrix - slow.matrix).max() <= 1e-10

    @pytest.mark.parametrize("p", [fig2a_params(), fig7b_params(12)], ids=["fig2a", "fig7b-N12"])
    def test_dense_solve_not_used_on_a_regular_point(self, monkeypatch, p):
        import magnonblockade.dynamics as dynamics_mod

        def no_dense(*args):
            raise AssertionError("dense kernel solve called on a regular point")

        monkeypatch.setattr(dynamics_mod, "_kernel_state", no_dense)
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        rho = steady_state(liouv)
        assert liouv.residual(rho.matrix) <= 1e-10

    def test_steady_solve_imports_no_scipy(self):
        """Importing scipy.linalg adds about 300 ms and 29 MB to a process, so the
        library, which needs only numpy, must not pull it in."""
        code = ("import sys\n"
                "import magnonblockade as mb\n"
                "p = mb.SystemParams.from_detunings(J=20.0, Delta_plus=20.0, Omega_m=0.1,\n"
                "                                   Omega_q=0.3, kappa_m=1.0, kappa_q=1.0)\n"
                "mb.steady_state(mb.build_liouvillian(mb.build_h_eff(p), mb.collapse_channels(p)))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        import magnonblockade

        src = os.path.dirname(os.path.dirname(magnonblockade.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


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


def block_labels(fock_dim):
    """The block of ``_excitation_blocks`` each Hermitian coordinate belongs to."""
    index = _excitation_blocks(fock_dim).index
    labels = np.zeros(4 * fock_dim ** 2, dtype=int)
    for b, idx in enumerate(index):
        labels[idx] = b
    return labels


def block_spread(gen, fock_dim):
    """The largest block distance that a nonzero of ``gen`` bridges."""
    labels = block_labels(fock_dim)
    rows, cols = np.nonzero(gen)
    return int(np.abs(labels[rows] - labels[cols]).max())


def dense_levels(gens, fock_dim):
    """The per-block rows ``_blocked_kernel`` reads, gathered from each dense
    generator of a stack at the coordinates of ``_excitation_blocks`` and
    stacked: the reference for the level rows that ``_group_rows`` forms
    straight from the entries."""
    blocks = _excitation_blocks(fock_dim)
    return [np.stack([gen[np.ix_(idx, columns)] for gen in gens])
            for idx, columns in zip(blocks.index, blocks.columns)]


def stack_rows(liouvs, fock_dim):
    """The level-row vectors and slot mask of a stack of Liouvillians, as
    ``_chunk_rows`` forms those of a chunk, with each Liouvillian a group of
    its own."""
    groups = [([i], liouv.layout, liouv.weight[None]) for i, liouv in enumerate(liouvs)]
    return _chunk_rows(groups, len(liouvs), fock_dim)


def stack_solve(liouvs, fock_dim):
    """``_steady_stack`` of a stack of Liouvillians."""
    return _steady_stack(*stack_rows(liouvs, fock_dim), liouvs.__getitem__, fock_dim)


def assert_rows_are_the_dense_rows(liouvs, fock_dim):
    """The level rows and row 0 that ``_chunk_rows`` forms from the entries of
    a stack of Liouvillians equal, bit for bit, those gathered from each
    dense matrix."""
    rows, slotted = stack_rows(liouvs, fock_dim)
    assert slotted.all()
    gens = [liouv.real for liouv in liouvs]
    for level, dense in zip(_levels(rows, fock_dim), dense_levels(gens, fock_dim), strict=True):
        assert identical(level, dense)
    start = _excitation_blocks(fock_dim).offsets[-1]
    assert identical(rows[:, start:start + gens[0].shape[0]], np.stack([gen[0] for gen in gens]))


@pytest.fixture
def dense_reads(monkeypatch):
    """The Liouvillians that form their dense matrix from their entries while
    the test runs, in order."""
    formed = []
    form = Liouvillian.real.func

    def counted(liouv):
        formed.append(liouv)
        return form(liouv)

    real = functools.cached_property(counted)
    real.__set_name__(Liouvillian, "real")
    monkeypatch.setattr(Liouvillian, "real", real)
    return formed


def blocked_against_dense(gen, fock_dim):
    """max|x - x_dense| of the kernel vector of the excitation-blocked
    ordering against that of the one-level ordering (``_kernel_state``), after
    checking that the blocked solve vouched for it and that its residual
    passes."""
    x, vouched = _blocked_kernel(dense_levels([gen], fock_dim), _excitation_blocks(fock_dim))
    assert vouched.tolist() == [True]
    assert np.abs(gen @ x[0]).max() <= 1e-10
    return np.abs(x[0] - _kernel_state(gen)).max()


def cubic_generator():
    """A generator with a cubic magnon term, m^3 + m'^3, which couples
    coordinates two excitation blocks apart, and its space."""
    p = fig2a_params(Omega_m=0.3 * MHZ)
    space = p.space
    m = embed_magnon(fock_annihilation(space), space)
    cubic = np.linalg.matrix_power(m, 3)
    h = build_h_eff(p) + 0.5 * MHZ * (cubic + dagger(cubic))
    return build_liouvillian(h, collapse_channels(p)), space


def first_point(cfg):
    """``cfg`` cut down to the first value of each axis."""
    return replace(cfg, axes=tuple(
        SweepAxis(ax.path, ax.values[:1], paired={k: v[:1] for k, v in ax.paired.items()})
        for ax in cfg.axes))


def assert_stacked_build_is_the_point_build(params):
    """The entries and level rows of ``_chunk_entries`` and the states and
    residuals of ``steady_states`` equal, bit for bit, those of each point
    built and solved alone."""
    n = params[0].space.fock_dim
    groups = _chunk_entries(params)
    assert sorted(i for members, *_ in groups for i in members) == list(range(len(params)))
    rows, slotted = _chunk_rows(groups, len(params), n)
    for members, layout, weights in groups:
        for i, weight in zip(members, weights, strict=True):
            liouv = build_liouvillian(build_h_eff(params[i]), collapse_channels(params[i]))
            assert liouv.layout is layout
            assert identical(weight, liouv.weight)
            assert identical(rows[i], liouv._rows[0][0])
    assert slotted.all()
    for p, result in zip(params, steady_states(params), strict=True):
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        rho, residual = result
        assert identical(rho.matrix, steady_state(liouv).matrix)
        assert residual == liouv.residual(rho.matrix)


def assert_chunk_columns_are_the_point_columns(users, fock_dim):
    """Every column of ``_steady_chunk`` is, bit for bit, that of the point
    solved alone by ``_steady_rows``, and a failed point has its error."""
    for user, chunked in zip(users, _steady_chunk(users, fock_dim, {}), strict=True):
        try:
            alone = _steady_rows(user, fock_dim, {})
        except Exception as exc:
            assert type(chunked) is type(exc) and str(chunked) == str(exc)
            continue
        assert chunked.keys() == alone.keys()
        for column, values in alone.items():
            assert [None if v is None else float(v).hex() for v in chunked[column]] == \
                [None if v is None else float(v).hex() for v in values]


class TestStackedBuild:
    """A chunk is built as arrays, with the bits of each point's own build."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(random_params(), min_size=1, max_size=4))
    def test_random_chunks(self, params):
        n = params[0].fock_dim
        assert_stacked_build_is_the_point_build([replace(p, fock_dim=n) for p in params])

    @pytest.mark.parametrize("fock_dim", [6, 12])
    def test_grid_chunks(self, fock_dim):
        cfg = get_scenario("fig6a").with_grid(3)
        users = cfg.grid_points()
        assert_stacked_build_is_the_point_build([_system_params(u, fock_dim) for u in users])
        assert_chunk_columns_are_the_point_columns(users, fock_dim)

    def test_chunk_of_mixed_channels_drives_and_rates(self):
        """m_th = 0 and m_th > 0 have different channels, Omega_q = 0 and kappa
        = 0 other nonzero patterns; kappa = 0 has no unique steady state."""
        base = {"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0}
        users = [base, {**base, "m_th": 0.05}, {**base, "Omega_q_over_Omega_m": 0.0},
                 {**base, "kappa_over_2pi_MHz": 0.0}, {**base, "m_th": 0.02, "Delta_plus_over_J": 0.5},
                 {**base, "Omega_m_over_2pi_MHz": 0.0}]
        params = [_system_params(u, 6) for u in users]
        groups = _chunk_entries(params)
        assert len(groups) == 4
        assert_stacked_build_is_the_point_build([params[i] for i in (0, 1, 2, 4, 5)])
        assert isinstance(steady_states(params)[3], DegenerateKernelError)
        assert_chunk_columns_are_the_point_columns(users, 6)


class TestBlockedKernel:
    def test_blocks_partition_the_coordinates(self):
        index = _excitation_blocks(6).index
        assert [idx.size for idx in index] == [4, 20, 36, 42, 28, 12, 1]
        assert sorted(np.concatenate(index).tolist()) == list(range(1, 144))
        assert max(idx.size for idx in _excitation_blocks(12).index) == 90

    @settings(max_examples=30, deadline=None)
    @given(random_params())
    def test_matches_dense_kernel_state(self, p):
        gen = build_liouvillian(build_h_eff(p), collapse_channels(p)).real
        assert blocked_against_dense(gen, p.space.fock_dim) <= 1e-12

    @pytest.mark.parametrize("fock_dim", [12, 20])
    def test_matches_dense_kernel_state_at_large_truncations(self, fock_dim):
        p = fig7b_params(fock_dim)
        gen = build_liouvillian(build_h_eff(p), collapse_channels(p)).real
        assert blocked_against_dense(gen, fock_dim) <= 1e-12

    @pytest.mark.parametrize("name", [cfg.name for cfg in built_in_scenarios()
                                      if cfg.mode in ("steady", "roots")])
    def test_built_in_generators_are_block_tridiagonal(self, monkeypatch, name):
        import magnonblockade.scenarios as scenarios_mod

        generators = []

        def recording(liouv):
            generators.append(liouv.real)
            return steady_state(liouv)

        def recording_chunk(params):
            params = list(params)
            generators.extend(build_liouvillian(build_h_eff(p), collapse_channels(p)).real
                              for p in params)
            return steady_states(params)

        monkeypatch.setattr(scenarios_mod, "steady_state", recording)
        monkeypatch.setattr(scenarios_mod, "steady_states", recording_chunk)
        cfg = get_scenario(name)
        run_scenario(first_point(cfg))
        assert generators
        for gen in generators:
            assert block_spread(gen, cfg.fock_dim) <= 1

    @settings(max_examples=30, deadline=None)
    @given(random_params())
    def test_level_rows_are_the_dense_rows(self, p):
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        assert_rows_are_the_dense_rows([liouv], p.space.fock_dim)

    @pytest.mark.parametrize("fock_dim", [12, 20])
    def test_level_rows_are_the_dense_rows_at_large_truncations(self, fock_dim):
        p = fig7b_params(fock_dim)
        assert_rows_are_the_dense_rows([build_liouvillian(build_h_eff(p), collapse_channels(p))],
                                       fock_dim)

    def test_level_rows_of_a_chunk_of_mixed_patterns(self):
        """m_th = 0, m_th > 0 and Omega_q = 0 give three nonzero patterns (kappa
        = 0 keeps its channels, at rate 0), so the chunk's rows come from one
        bincount per pattern; each point's rows are its dense rows, and the
        singular kappa = 0 point leaves its neighbours the bits of their own
        solves."""
        ps = [fig2a_params(), fig2a_params(m_th=0.05), fig2a_params(kappa_q=0.3 * MHZ),
              fig2a_params(Omega_q=0.0), fig2a_params(kappa_m=0.0, kappa_q=0.0)]
        liouvs = [build_liouvillian(build_h_eff(p), collapse_channels(p)) for p in ps]
        assert len({id(liouv.layout) for liouv in liouvs}) == 3
        assert_rows_are_the_dense_rows(liouvs, 6)
        solved = stack_solve(liouvs, 6)
        assert isinstance(solved[4], DegenerateKernelError)
        for i in range(4):
            alone = steady_state(Liouvillian(liouvs[i].real))
            assert identical(solved[i][0].matrix, alone.matrix)

    @pytest.mark.parametrize("name", [cfg.name for cfg in built_in_scenarios()
                                      if cfg.mode in ("steady", "roots")])
    def test_static_point_forms_no_dense_generator(self, dense_reads, name):
        result = run_scenario(first_point(get_scenario(name)))
        assert not any(result.column("error"))
        assert dense_reads == []

    def test_large_truncation_sweep_forms_no_dense_generator(self, dense_reads):
        result = run_scenario(replace(get_scenario("fig7b").with_grid(3), fock_dim=12))
        assert len(result.rows) == 3 and not any(result.column("error"))
        assert dense_reads == []

    def test_out_of_band_generator_forms_its_dense_matrix(self, dense_reads):
        liouv, space = cubic_generator()
        rho = steady_state(liouv)
        assert dense_reads == [liouv]
        assert identical(rho.matrix, _density(_kernel_state(liouv.real)))

    def test_out_of_band_generator_falls_back(self):
        liouv, space = cubic_generator()
        assert block_spread(liouv.real, space.fock_dim) == 2
        x, vouched = _blocked_kernel(dense_levels([liouv.real], space.fock_dim),
                                     _excitation_blocks(space.fock_dim))
        assert not (vouched[0] and np.abs(liouv.real @ x[0]).max() <= 1e-10)
        rho = steady_state(liouv)
        assert identical(rho.matrix, _density(_kernel_state(liouv.real)))

    def test_layout_without_slots_takes_the_dense_residual(self, dense_reads):
        """A pattern with an entry outside the level rows, or an odd d, gives
        its layout no slots; such a point has zero level rows and a false
        mask in a chunk, and its residual comes from the dense L."""
        liouv, space = cubic_generator()
        regular = build_liouvillian(build_h_eff(fig2a_params()), collapse_channels(fig2a_params()))
        assert liouv.layout.slots is None and regular.layout.slots is not None
        rows, slotted = stack_rows([liouv, regular], space.fock_dim)
        assert slotted.tolist() == [False, True]
        assert not rows[0].any()
        assert identical(rows[1], regular._rows[0][0])
        rho = steady_state(regular).matrix
        assert liouv.residual(rho) == np.abs(liouv.real @ _coords(rho)).max()
        assert dense_reads == [liouv]
        m = fock_annihilation(HilbertSpace(3))
        odd = build_liouvillian(0.3 * (m + dagger(m)), [(1.0, m)])
        assert odd.layout.slots is None
        vacuum = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert odd.residual(vacuum) == np.abs(odd.real @ _coords(vacuum)).max() > 0.0

    def test_stacked_solve_flags_only_the_out_of_band_generator(self):
        liouv, space = cubic_generator()
        regular = build_liouvillian(build_h_eff(fig2a_params()), collapse_channels(fig2a_params()))
        (cubic, cubic_residual), (rho, residual) = stack_solve([liouv, regular], space.fock_dim)
        assert identical(cubic.matrix, _density(_kernel_state(liouv.real)))
        assert cubic_residual == liouv.residual(cubic.matrix) <= 1e-10
        assert identical(rho.matrix, steady_state(regular).matrix)
        assert residual == regular.residual(rho.matrix) <= 1e-10

    def test_stacked_solve_equals_the_solve_of_each_generator(self):
        """The value bits of one stacked elimination equal those of each
        generator's own, so a chunk's states do not depend on its other
        points."""
        liouvs = [build_liouvillian(build_h_eff(p), collapse_channels(p))
                  for p in (fig2a_params(), fig2a_params(m_th=0.05), fig2a_params(kappa_q=0.3 * MHZ),
                            fig2a_params(Omega_q=0.0))]
        gens = [liouv.real for liouv in liouvs]
        x, vouched = _blocked_kernel(dense_levels(gens, 6), _excitation_blocks(6))
        assert vouched.all()
        for gen, row in zip(gens, x):
            alone, _ = _blocked_kernel(dense_levels([gen], 6), _excitation_blocks(6))
            assert identical(row, alone[0])
        for (rho, _), row in zip(stack_solve(liouvs, 6), x):
            assert identical(rho.matrix, _density(row))

    def test_singular_block_leaves_the_rest_of_the_stack(self):
        """kappa = 0 makes a block singular, which fails the stacked solve;
        the stack then goes point by point and keeps its regular points."""
        ps = [fig2a_params(), fig2a_params(kappa_m=0.0, kappa_q=0.0), fig2a_params(m_th=0.05)]
        liouvs = [build_liouvillian(build_h_eff(p), collapse_channels(p)) for p in ps]
        gens = [liouv.real for liouv in liouvs]
        with pytest.raises(np.linalg.LinAlgError):
            _blocked_kernel(dense_levels(gens, 6), _excitation_blocks(6))
        solved = stack_solve(liouvs, 6)
        assert isinstance(solved[1], DegenerateKernelError)
        for i in (0, 2):
            assert identical(solved[i][0].matrix,
                             steady_state(Liouvillian(gens[i])).matrix)

    def test_steady_states_match_steady_state(self):
        ps = [fig2a_params(), fig2a_params(kappa_m=0.0, kappa_q=0.0), fig2a_params(Omega_m=0.0),
              fig2a_params(m_th=0.05)]
        solved = steady_states(ps)
        assert isinstance(solved[1], DegenerateKernelError)
        for i in (0, 2, 3):
            rho, residual = solved[i]
            liouv = build_liouvillian(build_h_eff(ps[i]), collapse_channels(ps[i]))
            alone = steady_state(liouv)
            assert identical(rho.matrix, alone.matrix)
            assert rho.space == alone.space
            assert residual == liouv.residual(alone.matrix) <= 1e-10
        assert steady_states([]) == []
        with pytest.raises(ValueError, match="one truncation"):
            steady_states([fig2a_params(), fig7b_params(4)])

    def test_failed_density_check_decides_only_its_point(self, monkeypatch):
        # the middle state of a chunk is made to fail the density check: that
        # point alone gets the check's ValueError, its neighbours their own bits
        ps = [fig2a_params(), fig2a_params(m_th=0.05), fig2a_params(m_th=0.1)]
        alone = [steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p))) for p in ps]
        density = dynamics_mod._density
        bad = []

        def break_middle(x):
            rhos = density(x)
            if len(rhos) == 3:
                shift = rhos[1, 0, 0].real + 1e-3  # trace kept, one eigenvalue negative
                rhos[1, 0, 0] -= shift
                rhos[1, 1, 1] += shift
                bad.append(rhos[1].copy())
            return rhos

        monkeypatch.setattr(dynamics_mod, "_density", break_middle)
        solved = steady_states(ps)
        assert [isinstance(s, ValueError) for s in solved] == [False, True, False]
        with pytest.raises(ValueError) as err:
            DensityMatrix(bad[0], ps[1].space).validate()
        assert "negative eigenvalue" in str(err.value)
        assert str(solved[1]) == str(err.value)
        for i in (0, 2):
            assert identical(solved[i][0].matrix, alone[i].matrix)

    def test_non_finite_state_decides_only_its_point(self, monkeypatch):
        # an all-NaN state in a chunk gets its own ValueError; the density
        # check does not end the chunk, and the neighbours keep their bits
        ps = [fig2a_params(), fig2a_params(m_th=0.05), fig2a_params(m_th=0.1)]
        alone = [steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p))) for p in ps]
        density = dynamics_mod._density

        def nan_middle(x):
            rhos = density(x)
            if len(rhos) == 3:
                rhos[1] = np.nan
            return rhos

        monkeypatch.setattr(dynamics_mod, "_density", nan_middle)
        solved = steady_states(ps)
        assert isinstance(solved[1], ValueError)
        assert str(solved[1]) == "density matrix has non-finite entries"
        for i in (0, 2):
            assert identical(solved[i][0].matrix, alone[i].matrix)

    def test_mislabelled_bare_magnon_generator_gives_the_dense_state(self):
        # six magnon levels read as qubit(x)3 levels: m moves the label's
        # excitation number by +-1, so the generator stays in the band and
        # the blocked solve returns the dense solve's (equally mislabelled) state
        m = fock_annihilation(HilbertSpace(6))
        kappa = 1.0 * MHZ
        liouv = build_liouvillian(0.3 * kappa * (m + dagger(m)), [(kappa, m)])
        assert block_spread(liouv.real, 3) == 1
        assert blocked_against_dense(liouv.real, 3) <= 1e-12

    def test_large_truncation_allocates_no_dense_temporary(self):
        """The peak traced allocation of one N = 12 Liouvillian build and
        steady state stays below one D x D float64 array (2.65 MB), which a
        dense generator, a copy, a gather or an elementwise pass over it
        would take."""
        p = fig7b_params(12)
        h, channels = build_h_eff(p), collapse_channels(p)
        steady_state(build_liouvillian(h, channels))  # the plan and block tables are cached
        tracemalloc.start()
        try:
            steady_state(build_liouvillian(h, channels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (4 * 12 ** 2) ** 2 * 8


class TestEvolve:
    def test_free_evolution_is_constant(self):
        p = SystemParams.from_detunings(J=0.0, Delta_plus=0.0, omega_drive=0.0)
        rng = np.random.default_rng(2)
        rho0 = DensityMatrix(random_density(rng, p.space.total_dim), p.space)
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
        p = fig2a_params(fock_dim=3)
        lmat = build_liouvillian(build_h_eff(p), collapse_channels(p)).matrix
        v0 = vec(vacuum(p).matrix)
        states = list(_rk4_steps(lambda t: lmat, v0, 0.0, 0.05, 5))
        assert len(states) == 5
        for prop in _rk4_steps(lambda t: lmat, np.eye(lmat.shape[0]), 0.0, 0.05, 5):
            pass
        assert np.abs(prop @ v0 - states[-1]).max() <= 1e-13

    def test_rejects_bad_grid(self):
        p = fig2a_params()
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, np.array([0.0, 0.1, 0.3]))
        # a grid that is not finite is rejected, not propagated or overflowed
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, [0.0, math.nan, 2.0])
        with pytest.raises(ValueError, match="t_grid"):
            evolve(vacuum(p), p, [0.0, 1.0, math.inf])

    def test_rejects_initial_state_on_another_space(self):
        # numpy failed to broadcast the 64 coordinates of N = 4 into 144
        with pytest.raises(ValueError, match="initial state has N = 4 Fock states, the parameters N = 6"):
            evolve(vacuum(fig2a_params(fock_dim=4)), fig2a_params(), np.linspace(0.0, 0.1, 3))

    def test_rejects_longitudinal_coupling(self):
        # g_rp > 0 makes the generator time-dependent; evolve steps a static one
        p = SystemParams.from_detunings(**OPT, fock_dim=3, g_rp=3.5 * MHZ)
        with pytest.raises(ValueError, match="g_rp"):
            evolve(vacuum(p), p, np.linspace(0.0, 1.0 / p.kappa_m, 3))

    def test_powered_map_matches_stepwise_rk4(self):
        # the static trajectory is the per-step RK4 loop, taken as matrix powers
        p = fig2a_params(fock_dim=4)
        lmat = build_liouvillian(build_h_eff(p), collapse_channels(p)).matrix
        t_grid = np.linspace(0.0, 3.0 / p.kappa_m, 7)
        traj = evolve(vacuum(p), p, t_grid)
        dt = t_grid[1]
        n = math.ceil(dt / traj.step)
        assert n > 1
        v = vec(vacuum(p).matrix)
        for state in traj.states[1:]:
            for v in _rk4_steps(lambda t: lmat, v, 0.0, dt, n):
                pass
            assert np.abs(state.matrix - unvec(v)).max() <= 1e-12

    # a drift just above the 1e-9 trace tolerance is reported too, by the
    # density check of the first sample that drifts
    @pytest.mark.parametrize("leak", [1e-3, 1e-9])
    def test_trace_drift_is_reported(self, monkeypatch, leak):
        import magnonblockade.dynamics as dynamics_mod

        def leaky(h, channels):
            liouv = build_liouvillian(h, channels)
            return Liouvillian(real=liouv.real - leak * np.eye(liouv.dim))

        monkeypatch.setattr(dynamics_mod, "build_liouvillian", leaky)
        p = fig2a_params(fock_dim=3)
        with pytest.raises(ValueError, match="density matrix trace") as err:
            evolve(vacuum(p), p, np.linspace(0.0, 9.0 / p.kappa_m, 3))
        drift = float(re.search(r"deviates from 1 by (\S+)$", str(err.value)).group(1))
        assert drift > 1e-9


class TestRk4Stepper:
    """The stepper against the allocating loop of ``textbook_rk4``, bit for
    bit, and its calls of the generator."""

    @staticmethod
    def periodic_generator(p):
        """The full-matrix L(t) of the periodic pass and the drive period."""
        liouv, lc, ls, omega = _periodic_parts(p)

        def gen(t):
            return liouv.real + math.cos(omega * t) * lc.real + math.sin(omega * t) * ls.real

        return gen, 2.0 * math.pi / omega

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_period_maps_match_textbook_loop(self, n):
        p = SystemParams.from_detunings(**OPT, fock_dim=n, g_rp=0.2 * 35.0 * MHZ)
        prop, avg, period = _one_period_maps(p)
        gen, ref_period = self.periodic_generator(p)
        assert period == ref_period
        n_sub = one_period_steps(p)
        states = textbook_rk4(gen, np.eye(prop.shape[0]), 0.0, period, n_sub)
        total = np.zeros_like(prop)
        for state in states:
            total += state
        assert identical(prop, states[-1])
        assert identical(avg, total / n_sub)

    def test_static_one_step_map_matches_textbook_loop(self):
        # samples one RK4 step apart: each is the one-step map times the last
        p = fig2a_params(fock_dim=4)
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        dt = 0.75 * _max_step(p, build_h_eff(p))
        traj = evolve(vacuum(p), p, dt * np.arange(4))
        prop = textbook_rk4(lambda t: liouv.real, np.eye(liouv.dim), 0.0, dt, 1)[-1]
        x = _coords(vacuum(p).matrix)
        for state in traj.states[1:]:
            x = prop @ x
            assert identical(state.matrix, _density(x))

    @pytest.mark.parametrize("shape", ["vector", "columns", "identity", "complex"])
    def test_states_match_textbook_loop_and_input_is_kept(self, shape):
        p = SystemParams.from_detunings(**OPT, fock_dim=3, g_rp=0.3 * 35.0 * MHZ)
        gen, period = self.periodic_generator(p)
        dim = p.space.total_dim ** 2
        rng = np.random.default_rng(5)
        v0 = {"vector": lambda: rng.normal(size=dim),
              "columns": lambda: rng.normal(size=(dim, 3)),
              "identity": lambda: np.eye(dim),
              "complex": lambda: np.eye(dim, dtype=complex)}[shape]()
        if shape == "complex":
            liouv, l1, l2, omega = split_periodic_liouvillian(p)

            def gen(t):
                return liouv.matrix + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2

        kept = v0.copy()
        v0.setflags(write=False)
        states = list(_rk4_steps(gen, v0, 0.0, period / 8.0, 7))
        for got, ref in zip(states, textbook_rk4(gen, kept, 0.0, period / 8.0, 7), strict=True):
            assert identical(got, ref)
        assert identical(v0, kept)
        # every state a caller keeps is its own array
        for i, state in enumerate(states):
            assert not np.shares_memory(state, v0)
            assert not any(np.shares_memory(state, other) for other in states[i + 1:])

    def test_generator_called_once_per_distinct_stage_time(self):
        p = fig2a_params(fock_dim=3)
        lmat = build_liouvillian(build_h_eff(p), collapse_channels(p)).real
        calls = []

        def gen(t):
            calls.append(t)
            return lmat

        list(_rk4_steps(gen, np.eye(lmat.shape[0]), 0.0, 0.3, 4))
        h, t = 0.3 / 4, 0.0
        expected = [t]
        for _ in range(4):
            expected += [t + h / 2.0, t + h]
            t += h
        assert calls == expected


class TestEvolveProperties:
    @settings(max_examples=20, deadline=None)
    @given(random_params(), st.integers(4, 6), st.integers(0, 2**32 - 1))
    def test_long_time_state_is_the_steady_state(self, p, n, seed):
        p = replace(p, fock_dim=n)
        d = p.space.total_dim
        rho0 = DensityMatrix(random_density(np.random.default_rng(seed), d), p.space)
        t_end = 40.0 / min(p.kappa_m, p.kappa_q)
        traj = evolve(rho0, p, np.array([0.0, t_end]))
        rho_ss = steady_state(build_liouvillian(build_h_eff(p), collapse_channels(p)))
        assert np.abs(traj.states[-1].matrix - rho_ss.matrix).max() <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(random_params(), st.integers(4, 5),
           st.sampled_from(["vacuum", "g1", "random"]), st.integers(0, 2**32 - 1))
    def test_propagated_states_stay_positive(self, p, n, start, seed):
        p = replace(p, fock_dim=n)
        d = p.space.total_dim
        if start == "random":
            rho0 = random_density(np.random.default_rng(seed), d)
        else:
            rho0 = np.zeros((d, d), dtype=complex)
            i = ("vacuum", "g1").index(start)  # |g,0> and |g,1>
            rho0[i, i] = 1.0
        t_end = 5.0 / min(p.kappa_m, p.kappa_q)
        traj = evolve(DensityMatrix(rho0, p.space), p, np.linspace(0.0, t_end, 6))
        for state in traj.states:
            assert np.linalg.eigvalsh(state.matrix).min() >= -1e-9


class TestEvolveAgainstAdaptiveIntegrator:
    """Independent oracle: scipy's DOP853 on the same master equation."""

    def scipy_states(self, p, t_eval, rho0):
        """Vectorized states at ``t_eval``, one column each."""
        from scipy.integrate import solve_ivp

        liouv, l1, l2, omega = split_periodic_liouvillian(p)
        l0 = liouv.matrix

        def rhs(t, v):
            out = l0 @ v
            if p.g_rp > 0.0:
                out = out + np.exp(-1j * omega * t) * (l1 @ v)
                out = out + np.exp(1j * omega * t) * (l2 @ v)
            return out

        sol = solve_ivp(rhs, (0.0, t_eval[-1]), vec(rho0), method="DOP853",
                        t_eval=t_eval, rtol=1e-11, atol=1e-13)
        return sol.y

    def test_static_evolution_matches(self):
        # fixed-step RK4 transient accuracy against a tight adaptive reference
        p = fig2a_params()
        t_end = 1.0 / p.kappa_m
        traj = evolve(vacuum(p), p, np.array([0.0, t_end]))
        ref = unvec(self.scipy_states(p, [t_end], vacuum(p).matrix)[:, -1])
        assert np.abs(traj.states[-1].matrix - ref).max() <= 1e-7

    def test_time_dependent_evolution_matches(self):
        # the one-period propagator P against the state at t = T, and the
        # period-average map A against the mean over the RK4 right-endpoint
        # samples h, 2h, ..., T, both from vacuum at drive phase 0
        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=0.099 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
            omega_drive=1500.0 * MHZ, g_rp=3.5 * MHZ, fock_dim=4)
        prop, avg, period = _one_period_maps(p)
        n_sub = one_period_steps(p)
        ys = self.scipy_states(p, period * np.arange(1, n_sub + 1) / n_sub, vacuum(p).matrix)
        x0 = _coords(vacuum(p).matrix)
        assert np.abs(_density(prop @ x0) - unvec(ys[:, -1])).max() <= 1e-9
        assert np.abs(_density(avg @ x0) - unvec(ys.mean(axis=1))).max() <= 1e-9

    def test_split_generator_matches_longitudinal_hamiltonian(self):
        # the harmonic-split generator equals the Liouvillian rebuilt from the
        # instantaneous longitudinal Hamiltonian at every sampled phase
        from magnonblockade.model import build_h_longitudinal

        p = SystemParams.from_detunings(
            J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
            Omega_q=0.099 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
            omega_drive=1500.0 * MHZ, g_rp=7.0 * MHZ)
        liouv, l1, l2, omega = split_periodic_liouvillian(p)
        l0 = liouv.matrix
        for t in (0.0, 1.7e-4, 5.3e-4):
            split = l0 + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2
            direct = build_liouvillian(build_h_longitudinal(p, t),
                                       collapse_channels(p)).matrix
            assert np.abs(split - direct).max() <= 1e-11 * np.abs(direct).max()


OPT = dict(J=35.0 * MHZ, Delta_plus=35.0 * MHZ, Omega_m=0.033 * MHZ,
           Omega_q=3 * 0.033 * MHZ, kappa_m=0.5 * MHZ, kappa_q=0.5 * MHZ,
           omega_drive=1500.0 * MHZ)


def fig9a_params(g_over_j, ratio, fock_dim=6, drive_mhz=1500.0):
    """A fig9a point, g_rp/J and Omega_q/Omega_m, at drive frequency w/2pi = drive_mhz."""
    return SystemParams.from_detunings(
        **{**OPT, "Omega_q": ratio * 0.033 * MHZ, "omega_drive": drive_mhz * MHZ},
        g_rp=g_over_j * 35.0 * MHZ, fock_dim=fock_dim)


class TestSteadyStatePeriodic:
    def test_continuity_to_static_problem(self):
        p = SystemParams.from_detunings(**OPT, g_rp=1e-8 * 35.0 * MHZ)
        rho_per = steady_state_periodic(p)
        rho_stat = steady_state(build_liouvillian(build_h_eff(replace(p, g_rp=0.0)),
                                                  collapse_channels(p)))
        assert np.abs(rho_per.matrix - rho_stat.matrix).max() <= 1e-6

    def test_rejects_zero_coupling(self):
        p = SystemParams.from_detunings(**OPT)
        with pytest.raises(ValueError, match="g_rp"):
            steady_state_periodic(p)

    @pytest.mark.parametrize("steps", [0, -3, 64.5, True])
    def test_rejects_step_count_below_one(self, steps):
        p = SystemParams.from_detunings(**OPT, fock_dim=3, g_rp=0.1 * 35.0 * MHZ)
        message = f"steps_per_period must be an integer of at least 1, got {steps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            steady_state_periodic(p, steps_per_period=steps)

    def test_state_is_valid_density_matrix(self):
        p = SystemParams.from_detunings(**OPT, g_rp=0.1 * 35.0 * MHZ)
        rho = steady_state_periodic(p)
        rho.validate()
        # paper-value regressions for this solver live in test_acceptance
        assert g2_zero(rho) < 1e-5

    def test_matches_matrix_continued_fraction(self):
        """FIG9A point (g_rp/J = 0.3, Omega_q/Omega_m = 3, N = 4) at 512 RK4
        steps against the harmonic expansion rho(t) = sum_k rho_k e^{ik w t}.

        With L(t) = L0 + e^{-iwt} L1 + e^{iwt} L2 the harmonics obey
        (L0 - ikw) rho_k + L1 rho_{k+1} + L2 rho_{k-1} = 0. Truncated at |k| <= 8,
        rho_k = S_k rho_{k-1} for k > 0 and rho_k = T_k rho_{k+1} for k < 0 with
        S_k = -(L0 - ikw + L1 S_{k+1})^-1 L2 and T_k = -(L0 - ikw + L2 T_{k-1})^-1 L1,
        so the period average rho_0 spans the kernel of L0 + L1 S_1 + L2 T_-1.
        rho_0 comes from that matrix with row 0 replaced by the trace row, by
        one LU solve plus one refinement step: the SVD null vector carried
        about 1e-6 of rounding error in log10 g2, the size of the tolerance.
        """
        p = SystemParams.from_detunings(**{**OPT, "fock_dim": 4}, g_rp=0.3 * 35.0 * MHZ)
        liouv, l1, l2, omega = split_periodic_liouvillian(p)
        l0 = liouv.matrix
        eye = np.eye(l0.shape[0])
        s_next = t_prev = np.zeros_like(l0)
        for k in range(8, 0, -1):
            s_next = -np.linalg.solve(l0 - 1j * k * omega * eye + l1 @ s_next, l2)
            t_prev = -np.linalg.solve(l0 + 1j * k * omega * eye + l2 @ t_prev, l1)
        bordered = l0 + l1 @ s_next + l2 @ t_prev
        bordered[0] = vec(np.eye(p.space.total_dim))
        e0 = eye[0]
        x = np.linalg.solve(bordered, e0)
        rho = unvec(x + np.linalg.solve(bordered, e0 - bordered @ x))
        rho = (rho + rho.conj().T) / 2.0
        ref = DensityMatrix(rho / np.trace(rho).real, p.space)

        got = steady_state_periodic(p, steps_per_period=512)
        assert populations(got)[1] == pytest.approx(populations(ref)[1], rel=1e-9)
        assert math.log10(g2_zero(got)) == pytest.approx(math.log10(g2_zero(ref)), abs=1e-6)


    def test_matches_sambe_space_lu(self):
        p = fig9a_params(0.3, 3.0, fock_dim=4)
        got, ref = steady_state_periodic(p), sambe_period_average(p, 8)
        assert log10_g2(got) == pytest.approx(log10_g2(ref), abs=1e-10)
        assert populations(got)[1] == pytest.approx(populations(ref)[1], rel=1e-9)

    def test_matches_sambe_space_lu_over_fig9a_points(self):
        # at N = 6, corners and optimum of fig9a's range against the Sambe LU at
        # 8 harmonics; largest deviations measured over a 3 x 3 grid: log10 g2
        # 1.3e-12 and relative P1 1.6e-14, P2 2.9e-12 and P3 6.8e-12
        for g_over_j in (0.1, 0.5):
            for ratio in (2.5, 3.0, 4.0):
                p = fig9a_params(g_over_j, ratio)
                got, ref = steady_state_periodic(p), sambe_period_average(p, 8)
                assert log10_g2(got) == pytest.approx(log10_g2(ref), abs=1e-11)
                for level, rel in ((1, 1e-13), (2, 2e-11), (3, 5e-11)):
                    assert populations(got)[level] == pytest.approx(populations(ref)[level], rel=rel)

    @pytest.mark.parametrize("steps_per_period", [None, 64], ids=["harmonic", "rk4"])
    def test_regular_generator_kernel_takes_one_solve(self, monkeypatch, steps_per_period):
        """The kernel of a regular G, the harmonic one or the RK4 reference's
        (P - I)/T, comes from one LU solve: nothing factorizes it again."""
        solve, kernel_state = np.linalg.solve, dynamics_mod._kernel_state
        solves = []  # per kernel solve, its np.linalg.solve calls

        def counted(*args, **kwargs):
            solves[-1] += 1
            return solve(*args, **kwargs)

        def spy(*args):
            solves.append(0)
            monkeypatch.setattr(np.linalg, "solve", counted)
            try:
                return kernel_state(*args)
            finally:
                monkeypatch.setattr(np.linalg, "solve", solve)

        monkeypatch.setattr(dynamics_mod, "_kernel_state", spy)
        steady_state_periodic(fig9a_params(0.3, 3.0, fock_dim=4), steps_per_period)
        assert solves and all(count == 1 for count in solves)

    @pytest.mark.parametrize("fock_dim", [3, 6])
    def test_harmonic_system_scales_cached_coupling_bit_for_bit(self, monkeypatch, fock_dim):
        # the cached L+ at g_rp = 1 times g_rp is the L+ of the parts built at g_rp,
        # and the recursion is handed the L0 of those parts
        handed = []
        truncated = dynamics_mod._truncated_harmonics

        def spy(p, l0, harmonics):
            handed.append(l0)
            return truncated(p, l0, harmonics)

        monkeypatch.setattr(dynamics_mod, "_truncated_harmonics", spy)
        for g_over_j in (0.118713, 0.167559, 0.263448, 1.0 / 3.0, 0.7):
            p = fig9a_params(g_over_j, 3.0, fock_dim=fock_dim)
            liouv, lc, ls, _ = _periodic_parts(p)
            s, _, unit = _unit_coupling(p.space)
            nonzero = (lc.real != 0.0) | (ls.real != 0.0)
            assert np.array_equal(np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1)), s)
            handed.clear()
            steady_state_periodic(p)
            assert handed and all(np.array_equal(l0, liouv.real) for l0 in handed)
            ss = np.ix_(s, s)
            assert np.array_equal(p.g_rp * unit, (lc.real[ss] - 1j * ls.real[ss]) / 2.0)

    @pytest.mark.parametrize("g_over_j", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("ratio", [2.5, 3.0, 4.0])
    def test_chosen_truncation_agrees_with_one_more_harmonic(self, monkeypatch, g_over_j, ratio):
        p = fig9a_params(g_over_j, ratio)
        calls = spy_truncations(monkeypatch)
        got = steady_state_periodic(p)
        l0 = build_liouvillian(build_h_eff(p), collapse_channels(p)).real
        x, _ = _truncated_harmonics(p, l0, calls[-1] + 1)
        assert log10_g2(got) == pytest.approx(
            log10_g2(DensityMatrix(_density(x), p.space)), abs=1e-12)

    def test_slow_drive_takes_more_harmonics_and_matches_sambe(self, monkeypatch):
        # at w/2pi = 20 MHz the drive is slower than the Hamiltonian's own
        # frequencies, and N - 1 harmonics leave a residual of about 7e-9
        p = fig9a_params(0.3, 3.0, fock_dim=4, drive_mhz=20.0)
        calls = spy_truncations(monkeypatch)
        got = steady_state_periodic(p)
        assert calls[0] == p.fock_dim - 1 < calls[-1]
        assert log10_g2(got) == pytest.approx(log10_g2(sambe_period_average(p, 24)), abs=1e-10)

    def test_no_passing_truncation_up_to_the_cap_is_an_error(self, monkeypatch):
        monkeypatch.setattr(dynamics_mod, "_MAX_HARMONICS", 3)
        p = fig9a_params(0.3, 3.0, fock_dim=4, drive_mhz=20.0)
        with pytest.raises(SteadyStateError, match="harmonic truncation residual .* at 3 harmonics"):
            steady_state_periodic(p)

    def test_default_matches_fine_rk4_reference(self):
        p = fig9a_params(0.3, 3.0, fock_dim=4)
        fine = steady_state_periodic(p, steps_per_period=512)
        assert log10_g2(steady_state_periodic(p)) == pytest.approx(log10_g2(fine), abs=2e-7)

    @pytest.mark.parametrize("ratio", [2.75, 3.0])
    def test_third_fock_population_is_positive(self, ratio):
        # the 64-step RK4 fixed point gives -2.1e-15 and -9.4e-16 here
        assert populations(steady_state_periodic(fig9a_params(0.3, ratio)))[3] > 0.0


class TestPeriodicGeneratorProperties:
    """What the fixed-point solve relies on: every part of L(t) annihilates the
    trace, L(t) preserves Hermiticity, and so the RK4 one-period map P keeps
    the trace, which lets the kernel elimination drop row 0 of (P - I)/T."""

    @settings(max_examples=10, deadline=None)
    @given(random_params(), st.floats(0.5, 15.0), st.integers(3, 4),
           st.floats(0.0, 2.0 * math.pi), st.integers(0, 2**32 - 1))
    def test_trace_and_hermiticity_preserved(self, p, g_rp_mhz, n, phase, seed):
        p = replace(p, g_rp=g_rp_mhz * MHZ, fock_dim=n)
        liouv, l1, l2, omega = split_periodic_liouvillian(p)
        l0 = liouv.matrix
        d = p.space.total_dim
        trace_row = vec(np.eye(d))
        for part in (l0, l1, l2):
            assert np.abs(trace_row @ part).max() <= 1e-12 * np.linalg.norm(part)

        lmat = l0 + np.exp(-1j * phase) * l1 + np.exp(1j * phase) * l2
        a = random_density(np.random.default_rng(seed), d)
        image = unvec(lmat @ vec(a))
        assert np.abs(image - image.conj().T).max() <= 1e-12 * np.linalg.norm(lmat)

        def gen(t):
            return l0 + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2

        period = 2.0 * math.pi / omega
        for prop in _rk4_steps(gen, np.eye(d * d, dtype=complex), 0.0, period, 64):
            pass
        gen = (prop - np.eye(d * d)) / period
        assert np.abs(trace_row @ gen).max() <= 1e-12 * np.linalg.norm(gen)
