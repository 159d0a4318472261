"""Magnon-mode reductions and blockade diagnostics (populations, g2)."""

from __future__ import annotations

import functools

import numpy as np

from .hilbert import DensityMatrix, _read_only

__all__ = [
    "UndefinedCorrelationError",
    "populations",
    "g2_zero",
    "g2_time_series",
    "g2_from_populations",
    "OCCUPATION_FLOOR",
]

# <m'm> below this is treated as "undriven" rather than a correlation value
OCCUPATION_FLOOR = 1e-12


class UndefinedCorrelationError(ValueError):
    """g2(0) is undefined because the magnon occupation is at the noise floor."""


def populations(rho: DensityMatrix) -> np.ndarray:
    """Fock populations P[n] = <n|rho_m|n> of the magnon mode: the diagonal of
    rho, summed over the qubit."""
    return np.diag(rho.matrix).real.reshape(2, rho.space.fock_dim).sum(axis=0)


@functools.cache
def _moment_weights(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """n and n(n-1) for the Fock levels n = 0 .. levels-1, read-only."""
    n = np.arange(levels, dtype=float)
    return _read_only(n, n * (n - 1.0))


def _g2(pops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<m'm>, g2) of a (..., N) stack of Fock populations, with
    <m'm> = sum n P_n, <m'm'mm> = sum n(n-1) P_n (both operators are diagonal
    in the Fock basis) and g2 = <m'm'mm> / <m'm>^2, NaN where <m'm> is below
    the occupation floor.

    Each moment is one dot product per state (``np.vecdot``, numpy >= 2.0, the
    BLAS dot of ``n @ P``) and the square is ``np.float_power``, the C library's pow as in
    Python's ``x ** 2``, so a value has the same bits in a stack of any shape.
    """
    n, pairs = _moment_weights(pops.shape[-1])
    n1 = np.vecdot(pops, n)
    g2 = np.divide(np.vecdot(pops, pairs), np.float_power(n1, 2),
                   out=np.full(n1.shape, np.nan), where=n1 >= OCCUPATION_FLOOR)
    return n1, g2


def g2_zero(rho: DensityMatrix) -> float:
    """Equal-time second-order correlation <m'm'mm> / <m'm>^2 of a state.
    Raises UndefinedCorrelationError when <m'm> is below the occupation floor
    (no drive).
    """
    n1, g2 = _g2(populations(rho))
    if n1 < OCCUPATION_FLOOR:
        raise UndefinedCorrelationError(
            f"<m'm> = {n1:.3e} below floor {OCCUPATION_FLOOR:.0e}; g2(0) undefined"
        )
    return float(g2)


def g2_time_series(traj) -> np.ndarray:
    """g2(t,t) at each sample of a trajectory, from its stacked populations
    ``traj.populations`` (gathered from ``traj.states`` where a trajectory was
    built without them) in one call: NaN where ``g2_zero`` would raise."""
    pops = traj.populations
    if pops is None:
        pops = np.array([populations(state) for state in traj.states])
    return _g2(pops)[1]


def g2_from_populations(p: np.ndarray) -> float:
    """Population approximation 2 P2 / P1^2 of the blockade correlation."""
    p = np.asarray(p, dtype=float)
    if p.size < 3:
        raise ValueError("need populations up to n = 2")
    if p[1] <= OCCUPATION_FLOOR:
        raise UndefinedCorrelationError(
            f"P1 = {p[1]:.3e} below floor {OCCUPATION_FLOOR:.0e}"
        )
    return 2.0 * p[2] / p[1] ** 2
