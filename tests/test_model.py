import math

import numpy as np
import pytest

from magnonblockade.hilbert import (
    HilbertSpace,
    dagger,
    embed_magnon,
    embed_qubit,
    fock_annihilation,
    qubit_lowering,
)
from magnonblockade.model import (
    MHZ,
    SystemParams,
    _hamiltonian_terms,
    _mode_operators,
    build_h_eff,
    build_h_longitudinal,
    build_h_nonhermitian,
    collapse_channels,
    power_from_rabi,
    rabi_from_power,
    thermal_occupation,
)


def params(**kwargs):
    defaults = dict(J=20.0 * MHZ, Delta_plus=20.0 * MHZ, Delta_minus=0.0,
                    Omega_m=0.1 * MHZ, Omega_q=0.1 * MHZ,
                    kappa_m=1.0 * MHZ, kappa_q=1.0 * MHZ)
    defaults.update(kwargs)
    return SystemParams.from_detunings(**defaults)


class TestSystemParams:
    def test_detuning_identities(self):
        p = SystemParams.from_detunings(J=1.0, Delta_plus=3.7 * MHZ, Delta_minus=1.3 * MHZ)
        assert p.Delta_plus + p.Delta_minus == pytest.approx(p.Delta_m, rel=1e-14)
        assert p.Delta_plus - p.Delta_minus == pytest.approx(p.Delta_q, rel=1e-14)

    @pytest.mark.parametrize("bad", [
        dict(Omega_m=-1.0), dict(Omega_q=-0.1), dict(kappa_m=-1.0),
        dict(kappa_q=-1.0), dict(m_th=-1e-9),
    ])
    def test_rejects_negative_rates(self, bad):
        with pytest.raises(ValueError):
            params(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega_q", "omega_m", "omega_drive", "J", "Omega_m",
                                      "Omega_q", "kappa_m", "kappa_q", "g_rp", "m_th"])
    def test_rejects_non_finite_field_by_name(self, name, value):
        # nan < 0 is false, so a nan rate would pass the sign check
        fields = dict(omega_q=1.0, omega_m=1.0, omega_drive=1.0, J=1.0, Omega_m=0.1,
                      Omega_q=0.1, kappa_m=0.1, kappa_q=0.1, g_rp=0.1, m_th=0.1)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SystemParams(**{**fields, name: value})

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            params(fock_dim=2)

    @pytest.mark.parametrize("fock_dim", [4.0, 4.5, True])
    def test_rejects_a_truncation_that_is_not_an_integer(self, fock_dim):
        # a float truncation used to pass here and fail later, untyped, in build_h_eff
        with pytest.raises(ValueError, match="^fock_dim must be an integer >= 3"):
            params(fock_dim=fock_dim)


class TestBuildHEff:
    def test_all_zero_gives_zero_matrix(self):
        p = SystemParams.from_detunings(J=0.0, Delta_plus=0.0, omega_drive=0.0)
        assert np.all(build_h_eff(p) == 0)

    def test_vacuum_rabi_splitting(self):
        # single-excitation eigenvalues Delta_plus +- J at Delta_minus = 0
        p = params(Omega_m=0.0, Omega_q=0.0, Delta_plus=7.0 * MHZ)
        h = build_h_eff(p)
        n = p.fock_dim
        idx = [n, 1]  # |e,0>, |g,1>
        block = h[np.ix_(idx, idx)]
        evals = np.sort(np.linalg.eigvalsh(block))
        assert evals == pytest.approx([7.0 * MHZ - p.J, 7.0 * MHZ + p.J], rel=1e-12)

    def test_excited_zero_magnon_diagonal_entry(self):
        # Delta_plus/J = 1 at J/2pi = 20 MHz puts |e,0> at 2pi*20 rad/us
        p = params()
        h = build_h_eff(p)
        assert h[p.fock_dim, p.fock_dim].real == pytest.approx(2 * math.pi * 20.0, rel=1e-14)

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = params(J=rng.uniform(1, 40) * MHZ,
                       Delta_plus=rng.uniform(-40, 40) * MHZ,
                       Delta_minus=rng.uniform(-10, 10) * MHZ,
                       Omega_m=rng.uniform(0, 1) * MHZ,
                       Omega_q=rng.uniform(0, 1) * MHZ)
            h = build_h_eff(p)
            assert np.abs(h - h.conj().T).max() <= 1e-14 * max(1.0, np.abs(h).max())

    def test_commutes_with_excitation_number_below_truncation_edge(self):
        p = params(Omega_m=0.0, Omega_q=0.0)
        n = p.fock_dim
        h = build_h_eff(p)
        space = p.space
        m = embed_magnon(fock_annihilation(space), space)
        sm = embed_qubit(qubit_lowering(), space)
        n_exc = dagger(sm) @ sm + dagger(m) @ m
        comm = h @ n_exc - n_exc @ h
        # projector onto the sectors untouched by truncation (q + n <= N - 2)
        keep = [q * n + k for q in (0, 1) for k in range(n) if q + k <= n - 2]
        proj = np.zeros((2 * n, 2 * n))
        proj[keep, keep] = 1.0
        assert np.abs(proj @ comm @ proj).max() <= 1e-12 * np.abs(h).max()


class TestBuildHLongitudinal:
    def test_reduces_to_static_for_zero_coupling(self):
        p = params(g_rp=0.0)
        for t in (0.0, 0.123, 3.21):
            assert np.array_equal(build_h_longitudinal(p, t), build_h_eff(p))

    def test_time_zero_phases(self):
        p = params(g_rp=2.0 * MHZ)
        space = p.space
        m = embed_magnon(fock_annihilation(space), space)
        proj_e = embed_qubit(np.diag([0.0, 1.0]).astype(complex), space)
        expected = build_h_eff(p) + p.g_rp * proj_e @ (m + dagger(m))
        assert np.allclose(build_h_longitudinal(p, 0.0), expected, atol=1e-14)

    def test_periodic_in_drive_period(self):
        p = params(g_rp=2.0 * MHZ, omega_drive=1500.0 * MHZ)
        period = 2 * math.pi / p.omega_drive
        t = 0.37
        h1 = build_h_longitudinal(p, t)
        h2 = build_h_longitudinal(p, t + period)
        assert np.abs(h1 - h2).max() <= 1e-12 * np.abs(h1).max()

    def test_hermitian_at_random_times(self):
        p = params(g_rp=3.5 * MHZ)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0, 1, size=4):
            h = build_h_longitudinal(p, t)
            assert np.abs(h - h.conj().T).max() <= 1e-13 * np.abs(h).max()

    def test_rejects_nonzero_delta_minus(self):
        p = params(Delta_minus=1.0 * MHZ, g_rp=1.0 * MHZ)
        with pytest.raises(ValueError, match="Delta_minus"):
            build_h_longitudinal(p, 0.0)

    def test_longitudinal_operator_is_excited_projector_times_m(self):
        # sigma+ sigma- is exactly the embedded |e><e| projector
        from magnonblockade.model import _longitudinal_operator

        space = params().space
        proj_e = embed_qubit(np.diag([0.0, 1.0]).astype(complex), space)
        m = embed_magnon(fock_annihilation(space), space)
        assert np.array_equal(_longitudinal_operator(space), proj_e @ m)


class TestBuildHNonHermitian:
    def test_zero_kappa_equals_static(self):
        p = params(kappa_m=0.0, kappa_q=0.0)
        assert np.array_equal(build_h_nonhermitian(p), build_h_eff(p))

    def test_two_excitation_linewidth(self):
        p = params()
        h = build_h_nonhermitian(p)
        idx = p.fock_dim + 1  # |e,1>
        assert h[idx, idx].imag == pytest.approx(-p.kappa_m, rel=1e-12)

    def test_eigenvalues_decay(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            p = params(J=rng.uniform(5, 40) * MHZ, Delta_plus=rng.uniform(-20, 20) * MHZ,
                       Omega_m=rng.uniform(0, 0.5) * MHZ, Omega_q=rng.uniform(0, 0.5) * MHZ)
            evals = np.linalg.eigvals(build_h_nonhermitian(p))
            assert np.all(evals.imag <= 1e-10)

    def test_anti_hermitian_part_is_half_the_decay(self):
        # unequal rates and a heating channel: -(1/2) sum gamma C'C with
        # C = m at kappa_m (m_th + 1), m' at kappa_m m_th and sigma- at kappa_q
        p = params(kappa_q=0.4 * MHZ, m_th=0.3)
        space = p.space
        m = embed_magnon(fock_annihilation(space), space)
        sm = embed_qubit(qubit_lowering(), space)
        decay = (p.kappa_m * (p.m_th + 1.0) * dagger(m) @ m
                 + p.kappa_m * p.m_th * m @ dagger(m) + p.kappa_q * dagger(sm) @ sm)
        h = build_h_nonhermitian(p)
        assert np.abs((h - dagger(h)) / 2j + decay / 2.0).max() <= 1e-12 * p.kappa_m
        assert np.abs((h + dagger(h)) / 2.0 - build_h_eff(p)).max() <= 1e-12 * p.J


class TestCollapseChannels:
    def test_zero_temperature_channel_count(self):
        chans = collapse_channels(params())
        assert len(chans) == 2

    def test_thermal_heating_rate(self):
        p = params(m_th=1e-7)
        chans = collapse_channels(p)
        assert len(chans) == 3
        heating = chans[1]
        assert heating[0] == pytest.approx(p.kappa_m * 1e-7, rel=1e-12)
        # heating channel acts with the creation operator
        space = p.space
        md = dagger(embed_magnon(fock_annihilation(space), space))
        assert np.array_equal(heating[1], md)

    def test_rates_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = params(kappa_m=rng.uniform(0, 2) * MHZ, kappa_q=rng.uniform(0, 2) * MHZ,
                       m_th=rng.uniform(0, 0.2))
            assert all(rate >= 0 for rate, _ in collapse_channels(p))

    def test_reproduces_handcoded_dissipator(self):
        # channel convention against a directly coded Lindblad right-hand side
        p = params()
        rng = np.random.default_rng(25)
        d = p.space.total_dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho)

        space = p.space
        m = embed_magnon(fock_annihilation(space), space)
        sm = embed_qubit(qubit_lowering(), space)
        expected = np.zeros_like(rho)
        for kappa, op in ((p.kappa_m, m), (p.kappa_q, sm)):
            od = dagger(op)
            expected += (kappa / 2) * (2 * op @ rho @ od - od @ op @ rho - rho @ od @ op)

        actual = np.zeros_like(rho)
        for rate, op in collapse_channels(p):
            od = dagger(op)
            actual += (rate / 2) * (2 * op @ rho @ od - od @ op @ rho - rho @ od @ op)
        assert np.abs(actual - expected).max() <= 1e-12


class TestCachedOperators:
    """The operators built once per space are shared by every call, so they
    are read-only, and a warm cache gives the bits of a cold one."""

    def test_cached_operators_are_read_only(self):
        space = HilbertSpace(4)
        m, sm = _mode_operators(space)
        assert _mode_operators(HilbertSpace(4))[0] is m
        for op in (m, sm, collapse_channels(params(fock_dim=4))[0][1], *_hamiltonian_terms(space)):
            with pytest.raises(ValueError, match="read-only"):
                op[0, 1] = 5.0
        assert np.array_equal(m, embed_magnon(fock_annihilation(space), space))
        assert np.array_equal(sm, embed_qubit(qubit_lowering(), space))

    def test_warm_matches_cleared(self):
        p = params(m_th=0.1)
        build_h_eff(params())
        warm = build_h_eff(p), collapse_channels(p)
        _mode_operators.cache_clear()
        _hamiltonian_terms.cache_clear()
        cold = build_h_eff(p), collapse_channels(p)
        assert warm[0].tobytes() == cold[0].tobytes()
        assert [(rate, op.tobytes()) for rate, op in warm[1]] == \
            [(rate, op.tobytes()) for rate, op in cold[1]]


class TestThermalOccupation:
    # magnon at 1.5 GHz
    OMEGA = 1500.0 * MHZ

    def test_cryogenic_values(self):
        assert thermal_occupation(self.OMEGA, 3.9e-3) == pytest.approx(9.6276450e-09, rel=1e-6)
        assert thermal_occupation(self.OMEGA, 5.3e-3) == pytest.approx(1.2620639e-06, rel=1e-6)

    def test_orders_of_magnitude(self):
        assert 5e-9 < thermal_occupation(self.OMEGA, 3.9e-3) < 5e-8
        assert 5e-7 < thermal_occupation(self.OMEGA, 5.3e-3) < 5e-6

    def test_classical_limit(self):
        # approach to kB T / hbar w; the leading correction is hbar w / 2 kB T
        hbar, kb = 1.054571817e-34, 1.380649e-23
        for temp, tol in ((1.0, 0.04), (10.0, 0.004)):
            classical = kb * temp / (hbar * self.OMEGA * 1e6)
            assert thermal_occupation(self.OMEGA, temp) == pytest.approx(classical, rel=tol)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            thermal_occupation(self.OMEGA, 0.0)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_rejects_nonfinite_temperature(self, temperature):
        # inf divided by zero and nan gave a nan occupation
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            thermal_occupation(self.OMEGA, temperature)

    @pytest.mark.parametrize("omega", [0.0, -30.0 * MHZ, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_frequency(self, omega):
        # 0 divided by zero and -30 MHz gave a negative occupation
        with pytest.raises(ValueError, match="magnon frequency omega_m must be positive and finite"):
            thermal_occupation(omega, 5.3e-3)


class TestRabiFromPower:
    def test_zero_power(self):
        assert rabi_from_power(0.0) == 0.0

    def test_calibration_point(self):
        # Omega/2pi = 0.1 MHz corresponds to 0.037 uW
        omega = 0.1 * MHZ
        power_uw = power_from_rabi(omega) * 1e3
        assert power_uw == pytest.approx(0.037, abs=5e-4)
        assert rabi_from_power(0.037e-3) == pytest.approx(omega, rel=3e-3)

    def test_monotone(self):
        powers = np.linspace(0.0, 350.0, 30)
        omegas = [rabi_from_power(pw) for pw in powers]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            rabi_from_power(-1.0)
