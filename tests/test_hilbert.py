import math

import numpy as np
import pytest

from magnonblockade.hilbert import (
    DensityMatrix,
    HilbertSpace,
    _check_densities,
    _density_errors,
    dagger,
    embed_qubit,
    fock_annihilation,
    qubit_lowering,
)


def random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_density(rng, dim):
    a = random_operator(rng, dim)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestHilbertSpace:
    def test_total_dim(self):
        assert HilbertSpace(6).total_dim == 12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_too_small_truncation(self, n):
        with pytest.raises(ValueError):
            HilbertSpace(n)

    @pytest.mark.parametrize("n", [4.5, 4.0, "4", True, np.float64(6.0)])
    def test_rejects_a_truncation_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="fock_dim must be an integer >= 3"):
            HilbertSpace(n)

    def test_accepts_a_numpy_integer(self):
        assert HilbertSpace(np.int64(4)).total_dim == 8


class TestFockOperators:
    def test_lowering_of_first_fock_state(self):
        m = fock_annihilation(HilbertSpace(3))
        one = np.zeros(3)
        one[1] = 1.0
        out = m @ one
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_number_operator_diagonal(self):
        m = fock_annihilation(HilbertSpace(3))
        assert np.allclose(dagger(m) @ m, np.diag([0.0, 1.0, 2.0]))

    def test_matrix_element_sqrt4(self):
        m = fock_annihilation(HilbertSpace(5))
        assert m[3, 4] == pytest.approx(2.0)

    def test_truncated_commutator(self):
        # [m, m'] is the identity except for the truncation artifact 1 - N
        # in the last diagonal entry
        n = 7
        m = fock_annihilation(HilbertSpace(n))
        comm = m @ dagger(m) - dagger(m) @ m
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = 1 - n
        assert np.abs(comm - expected).max() <= 1e-12
        assert comm[n - 1, n - 1].real == pytest.approx(1 - n, rel=1e-14)

    def test_fock_state_occupation(self):
        n = 5
        m = fock_annihilation(HilbertSpace(n))
        rho = np.zeros((n, n), dtype=complex)
        rho[2, 2] = 1.0
        assert np.trace(rho @ dagger(m) @ m) == pytest.approx(2.0)

    def test_vacuum_normally_ordered(self):
        n = 4
        m = fock_annihilation(HilbertSpace(n))
        rho = np.zeros((n, n), dtype=complex)
        rho[0, 0] = 1.0
        assert np.trace(rho @ dagger(m) @ dagger(m) @ m @ m) == pytest.approx(0.0)

    def test_coherent_state_occupation(self):
        # oracle: explicit Fock expansion of |alpha>
        n, alpha = 20, 0.3
        amps = np.array([
            math.exp(-abs(alpha) ** 2 / 2) * alpha**k / math.sqrt(math.factorial(k))
            for k in range(n)
        ])
        rho = np.outer(amps, amps.conj()).astype(complex)
        m = fock_annihilation(HilbertSpace(n))
        value = np.trace(rho @ dagger(m) @ m)
        assert value.real == pytest.approx(abs(alpha) ** 2, abs=1e-6)
        assert abs(value.imag) < 1e-10


class TestQubitOperators:
    def test_lowers_excited_state(self):
        sm = qubit_lowering()
        excited = np.array([0.0, 1.0])
        assert np.allclose(sm @ excited, [1.0, 0.0])

    def test_nilpotent(self):
        sm = qubit_lowering()
        assert np.all(sm @ sm == 0)

    def test_anticommutator_is_identity(self):
        sm = qubit_lowering()
        sp = dagger(sm)
        assert np.allclose(sp @ sm + sm @ sp, np.eye(2))

    def test_number_ordering(self):
        sm = qubit_lowering()
        assert np.allclose(dagger(sm) @ sm, np.diag([0.0, 1.0]))

    def test_qubit_projector_block_layout(self):
        # qubit (x) magnon with (g, e) ordering: N zeros then N ones on the diagonal
        sm = qubit_lowering()
        out = embed_qubit(dagger(sm) @ sm, HilbertSpace(4))
        assert np.allclose(np.diag(out), [0, 0, 0, 0, 1, 1, 1, 1])


class TestDagger:
    def test_involution(self):
        rng = np.random.default_rng(11)
        a = random_operator(rng, 6)
        assert np.array_equal(dagger(dagger(a)), a)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(13)
        a, b = random_operator(rng, 5), random_operator(rng, 5)
        assert np.allclose(dagger(a @ b), dagger(b) @ dagger(a), atol=1e-12)


class TestDensityMatrix:
    def test_validate_passes_for_valid_state(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 12)
        DensityMatrix(rho, HilbertSpace(6)).validate()

    def test_validate_rejects_nonhermitian(self):
        rho = np.eye(12, dtype=complex) / 12
        rho[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(rho, HilbertSpace(6)).validate()

    def test_validate_rejects_wrong_trace(self):
        rho = np.eye(12, dtype=complex) / 6
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(rho, HilbertSpace(6)).validate()

    def test_validate_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2] + [0.0] * 10).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(rho, HilbertSpace(6)).validate()

    def test_stacked_check_raises_what_validate_raises(self):
        # a trajectory is checked in one call; it reports its first bad state
        rng = np.random.default_rng(5)
        stack = np.array([random_density(rng, 12) for _ in range(5)])
        stack[2] = np.diag([1.2, -0.2] + [0.0] * 10)
        stack[3, 0, 1] = 1e-3
        with pytest.raises(ValueError) as per_state:
            DensityMatrix(stack[2], HilbertSpace(6)).validate()
        with pytest.raises(ValueError) as stacked:
            _check_densities(stack)
        assert "negative eigenvalue" in str(per_state.value)
        assert str(stacked.value) == str(per_state.value)
        _check_densities(stack[:2])

    def test_stacked_verdicts_are_the_per_state_checks(self):
        # one pass gives every state of a stack its own verdict
        rng = np.random.default_rng(8)
        stack = np.array([random_density(rng, 12) for _ in range(6)])
        stack[1] = np.diag([1.2, -0.2] + [0.0] * 10)
        stack[4] *= 1.0 + 3e-9
        errors = _density_errors(stack)
        assert [e is None for e in errors] == [True, False, True, True, False, True]
        for i in (1, 4):
            with pytest.raises(ValueError) as alone:
                DensityMatrix(stack[i], HilbertSpace(6)).validate()
            assert isinstance(errors[i], ValueError)
            assert str(errors[i]) == str(alone.value)
        assert "negative eigenvalue" in str(errors[1])
        assert "trace" in str(errors[4])
        assert _density_errors(stack[[0, 2]]) == [None, None]

    def test_validate_rejects_a_nan_entry(self):
        # every comparison with NaN is false, so the NaN needs its own check
        rho = np.eye(6, dtype=complex) / 6
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix(rho, HilbertSpace(3)).validate()

    def test_non_finite_state_gets_its_own_verdict(self):
        # an all-NaN or infinite state is a ValueError of its own; eigvalsh,
        # which does not converge on it, runs on the finite states alone
        rng = np.random.default_rng(11)
        stack = np.array([random_density(rng, 6) for _ in range(4)])
        stack[1] = np.nan
        stack[2, 3, 4] = np.inf
        stack[3] = np.diag([1.2, -0.2] + [0.0] * 4)
        errors = _density_errors(stack)
        assert errors[0] is None
        assert [str(e) for e in errors[1:3]] == ["density matrix has non-finite entries"] * 2
        assert "negative eigenvalue" in str(errors[3])
        with pytest.raises(ValueError, match="non-finite entries"):
            _check_densities(stack[1:])


def rotated_state(rng, eigenvalues):
    """A dense state with the given eigenvalues: their diagonal matrix turned by
    a random unitary."""
    q, _ = np.linalg.qr(random_operator(rng, len(eigenvalues)))
    return (q * np.asarray(eigenvalues)) @ q.conj().T


class TestPositivityVerdicts:
    """One stacked Cholesky decides positivity; the eigenvalues name the failures."""

    @pytest.mark.parametrize("lowest, passes", [(-0.99e-9, True), (-1.01e-9, False)])
    def test_states_either_side_of_the_floor(self, lowest, passes):
        rng = np.random.default_rng(21)
        rho = rotated_state(rng, [0.6 - lowest, 0.4, lowest, 0.0, 0.0, 0.0])
        (error,) = _density_errors(rho[None])
        assert (error is None) == passes
        if not passes:
            assert str(error) == f"density matrix has negative eigenvalue {lowest:.3e}"

    def test_nan_failing_and_good_states_keep_their_verdicts(self):
        rng = np.random.default_rng(22)
        stack = np.array([random_density(rng, 6),
                          rotated_state(rng, [0.7, 0.3 + 2e-9, -2e-9, 0.0, 0.0, 0.0]),
                          random_density(rng, 6)])
        stack[0, 2, 2] = np.nan
        errors = _density_errors(stack)
        assert str(errors[0]) == "density matrix has non-finite entries"
        assert str(errors[1]) == "density matrix has negative eigenvalue -2.000e-09"
        assert errors[2] is None
        assert _density_errors(stack[[2, 1]])[0] is None
