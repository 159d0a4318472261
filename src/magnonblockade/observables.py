"""Magnon-mode reductions and blockade diagnostics (populations, g2)."""

from __future__ import annotations

import math

import numpy as np

from .hilbert import DensityMatrix

__all__ = [
    "UndefinedCorrelationError",
    "partial_trace_qubit",
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


def partial_trace_qubit(rho: DensityMatrix) -> DensityMatrix:
    """Reduce a composite state to the magnon mode, rho_m = Tr_q[rho]."""
    if not rho.composite:
        raise ValueError("state is already magnon-reduced")
    n = rho.space.fock_dim
    if rho.matrix.shape[0] != 2 * n:
        raise ValueError(f"dimension {rho.matrix.shape[0]} is not 2 x fock_dim")
    blocks = rho.matrix.reshape(2, n, 2, n)
    reduced = np.einsum("anam->nm", blocks)
    return DensityMatrix(reduced, rho.space, composite=False)


def populations(rho: DensityMatrix) -> np.ndarray:
    """Fock populations P[n] = <n|rho_m|n> of the magnon mode: the diagonal of
    rho, summed over the qubit for a composite state."""
    diag = np.diag(rho.matrix).real
    if rho.composite:
        return diag.reshape(2, rho.space.fock_dim).sum(axis=0)
    return diag.copy()


def _magnon_moments(rho: DensityMatrix) -> tuple[float, float]:
    """(<m'm>, <m'm'mm>) = (sum n P_n, sum n(n-1) P_n): both operators are
    diagonal in the Fock basis."""
    pops = populations(rho)
    n = np.arange(pops.size)
    return float(n @ pops), float((n * (n - 1)) @ pops)


def g2_zero(rho: DensityMatrix) -> float:
    """Equal-time second-order correlation <m'm'mm> / <m'm>^2 of a composite or
    magnon-reduced state. Raises UndefinedCorrelationError when <m'm> is below
    the occupation floor (no drive).
    """
    n1, n2 = _magnon_moments(rho)
    if n1 < OCCUPATION_FLOOR:
        raise UndefinedCorrelationError(
            f"<m'm> = {n1:.3e} below floor {OCCUPATION_FLOOR:.0e}; g2(0) undefined"
        )
    return n2 / n1**2


def g2_time_series(traj) -> list[tuple[float, float]]:
    """Pointwise g2(t,t) along a trajectory.

    Points where the occupation is below the floor become NaN gaps instead of
    raising.
    """
    out = []
    for t, state in zip(traj.times, traj.states):
        try:
            out.append((float(t), g2_zero(state)))
        except UndefinedCorrelationError:
            out.append((float(t), math.nan))
    return out


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
