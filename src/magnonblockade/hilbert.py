"""Dense operator algebra on the qubit (x) truncated-magnon Hilbert space.

Conventions fixed repo-wide:
  * tensor ordering is qubit (x) magnon, basis index i = q*N + n with
    q in {0 (g), 1 (e)} and n in {0 .. N-1},
  * qubit basis ordering is (g, e),
  * all operators are dense complex numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "DensityMatrix",
    "fock_annihilation",
    "qubit_lowering",
    "dagger",
    "embed_qubit",
    "embed_magnon",
]

_HERM_TOL = 1e-10  # largest accepted max|rho - rho'| of a density matrix
_TRACE_TOL = 1e-9  # largest accepted |tr(rho) - 1|
_EIG_FLOOR = -1e-9  # lowest accepted eigenvalue


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space of one qubit and a magnon mode truncated to N Fock states."""

    fock_dim: int

    def __post_init__(self):
        if self.fock_dim < 3:
            raise ValueError(
                f"fock_dim must be >= 3 to resolve the two-excitation sector, got {self.fock_dim}"
            )

    @property
    def total_dim(self) -> int:
        return 2 * self.fock_dim


def fock_annihilation(space: HilbertSpace) -> np.ndarray:
    """Magnon annihilation operator m on the truncated Fock space, <n-1|m|n> = sqrt(n)."""
    n = space.fock_dim
    return np.diag(np.sqrt(np.arange(1, n)), k=1).astype(complex)


def qubit_lowering() -> np.ndarray:
    """Qubit lowering operator sigma_- with <g|sigma_-|e> = 1 in the (g, e) ordering."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def embed_qubit(op: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Lift a 2x2 qubit operator to the composite space."""
    return np.kron(op, np.eye(space.fock_dim, dtype=complex))


def embed_magnon(op: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Lift an NxN magnon operator to the composite space."""
    return np.kron(np.eye(2, dtype=complex), op)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: for those a cache hands to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _density_errors(m: np.ndarray) -> list:
    """Per matrix of a (k, d, d) stack, the ValueError of the first check it
    fails, of finite entries, hermiticity, unit trace and numerical positive
    semidefiniteness against ``_HERM_TOL``, ``_TRACE_TOL`` and
    ``_EIG_FLOOR``, or None. The eigenvalues are taken of the finite
    matrices only."""
    mh = m.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        herm = np.abs(m - mh).max(axis=(-2, -1))
    # m[i, j] - conj(m[j, i]) is not finite where either entry is not, so
    # neither is the largest deviation
    finite = np.isfinite(herm)
    tr = np.trace(m, axis1=-2, axis2=-1)
    if finite.all():
        lowest = np.linalg.eigvalsh((m + mh) / 2).min(axis=-1)
    else:
        lowest = np.zeros(len(m))
        lowest[finite] = np.linalg.eigvalsh((m[finite] + mh[finite]) / 2).min(axis=-1)
    errors = [None] * len(m)
    for i in np.flatnonzero(~finite | (herm > _HERM_TOL) | (abs(tr - 1.0) > _TRACE_TOL)
                            | (lowest < _EIG_FLOOR)):
        if not finite[i]:
            errors[i] = ValueError("density matrix has non-finite entries")
        elif herm[i] > _HERM_TOL:
            errors[i] = ValueError(f"density matrix not Hermitian: max deviation {herm[i]:.3e}")
        elif abs(tr[i] - 1.0) > _TRACE_TOL:
            errors[i] = ValueError(
                f"density matrix trace {tr[i]} deviates from 1 by {abs(tr[i] - 1.0):.3e}")
        else:
            errors[i] = ValueError(f"density matrix has negative eigenvalue {lowest[i]:.3e}")
    return errors


def _check_densities(m: np.ndarray) -> None:
    """Raise the ValueError of the first matrix of a (k, d, d) stack that
    fails a check of ``_density_errors``."""
    for error in _density_errors(m):
        if error is not None:
            raise error


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix of the composite qubit(x)magnon space it lives on."""

    matrix: np.ndarray
    space: HilbertSpace

    def validate(self) -> "DensityMatrix":
        """Check finite entries, hermiticity, unit trace and numerical positive
        semidefiniteness against ``_HERM_TOL``, ``_TRACE_TOL`` and ``_EIG_FLOOR``."""
        m = self.matrix
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {d}")
        _check_densities(m[None])
        return self
