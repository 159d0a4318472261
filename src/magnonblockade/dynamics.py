"""Lindblad master-equation solvers: vectorized Liouvillian, direct steady
state, fixed-step time evolution, and the period-averaged steady state of the
periodically driven (longitudinal-coupling) problem.

Vectorization is column-stacking: vec(rho) = rho.flatten(order='F'), so
A rho B <-> (B^T kron A) vec(rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import DensityMatrix, dagger
from .model import (SystemParams, _longitudinal_operator, build_h_eff, build_h_longitudinal,
                    collapse_channels)

__all__ = [
    "Liouvillian",
    "Trajectory",
    "build_liouvillian",
    "steady_state",
    "liouvillian_spectrum",
    "evolve",
    "steady_state_periodic",
    "vec",
    "unvec",
    "SteadyStateError",
    "DegenerateKernelError",
    "TraceDriftError",
    "PeriodicConvergenceError",
]


class SteadyStateError(RuntimeError):
    """No acceptable steady state could be extracted from the Liouvillian."""


class DegenerateKernelError(SteadyStateError):
    """The Liouvillian kernel is not one-dimensional."""

    def __init__(self, multiplicity: int):
        super().__init__(f"Liouvillian kernel has dimension {multiplicity}, expected 1")
        self.multiplicity = multiplicity


class TraceDriftError(RuntimeError):
    """Trace conservation failed during time evolution."""

    def __init__(self, drift: float, tol: float):
        super().__init__(f"trace drift {drift:.3e} exceeds tolerance {tol:.3e}")
        self.drift = drift


class PeriodicConvergenceError(RuntimeError):
    """Period-averaged state failed to converge between consecutive periods."""

    def __init__(self, change: float, tol: float):
        super().__init__(
            f"period-to-period averaged-state change {change:.3e} exceeds {tol:.3e}"
        )
        self.change = change


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = round(math.isqrt(v.size))
    return v.reshape(d, d, order="F")


@dataclass(frozen=True)
class Liouvillian:
    """Master-equation generator as a D^2 x D^2 matrix on vectorized states."""

    matrix: np.ndarray
    hamiltonian: np.ndarray = field(repr=False)
    channels: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def hilbert_dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass
class Trajectory:
    """Time-ordered density matrices on a user grid plus solver metadata."""

    times: np.ndarray
    states: list
    params: SystemParams | None
    step: float
    trace_drift: float


def _commutator_super(a: np.ndarray) -> np.ndarray:
    """Superoperator of -i[a, .] in column-stacking convention."""
    d = a.shape[0]
    eye = np.eye(d, dtype=complex)
    return -1j * (np.kron(eye, a) - np.kron(a.T, eye))


def build_liouvillian(h: np.ndarray, channels) -> Liouvillian:
    """Assemble L with L vec(rho) = vec(-i[H,rho] + sum (g/2)(2 C rho C' - {C'C, rho}))."""
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    herm = np.abs(h - h.conj().T).max()
    if herm > 1e-9 * max(1.0, np.abs(h).max()):
        raise ValueError(f"Hamiltonian not Hermitian: max deviation {herm:.3e}")
    eye = np.eye(d, dtype=complex)
    lmat = _commutator_super(h)
    for rate, c in channels:
        if c.shape != (d, d):
            raise ValueError(f"channel operator shape {c.shape} does not match H {h.shape}")
        cd = dagger(c)
        cdc = cd @ c
        lmat = lmat + (rate / 2.0) * (
            2.0 * np.kron(c.conj(), c) - np.kron(eye, cdc) - np.kron(cdc.T, eye)
        )
    return Liouvillian(matrix=lmat, hamiltonian=h, channels=tuple(channels))


@functools.lru_cache(maxsize=None)
def _condition_probe(n: int) -> np.ndarray:
    """Fixed right-hand side for the condition estimate. Its magnitudes and
    phases follow Weyl sequences of irrational steps, so it has no structure
    in common with the Liouvillian and overlaps every near-null direction of
    the bordered matrix. (numpy.random would add several MB to the process.)"""
    k = np.arange(n)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    probe = (1.5 + np.cos(k * math.sqrt(2.0))) * np.exp(2j * math.pi * golden * k)
    probe.setflags(write=False)
    return probe


def _bordered_solve(lmat: np.ndarray, trace_row: np.ndarray,
                    kernel_rtol: float) -> np.ndarray | None:
    """Solve L v = 0, tr(v) = 1 with row 0 of L replaced by the trace row.

    Returns None when the bordered matrix B is singular or its condition
    number, estimated from below as ||B||_1 ||B^-1 p||_1 / ||p||_1 with the
    probe p solved alongside, exceeds 1/kernel_rtol.
    """
    bordered = lmat.copy()
    bordered[0] = trace_row
    n = bordered.shape[0]
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = 1.0
    rhs[:, 1] = _condition_probe(n)
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        return None
    cond = (np.abs(bordered).sum(axis=0).max() * np.abs(sol[:, 1]).sum()
            / np.abs(rhs[:, 1]).sum())
    if not cond <= 1.0 / kernel_rtol:
        return None
    v = sol[:, 0]
    correction = -(bordered @ v)
    correction[0] += 1.0
    return v + np.linalg.solve(bordered, correction)


def _svd_kernel(lmat: np.ndarray, trace_row: np.ndarray,
                kernel_rtol: float) -> np.ndarray:
    """Kernel vector with unit trace from a full SVD, after checking that the
    kernel is one-dimensional (singular values at or below ``kernel_rtol``
    relative to the largest)."""
    _, sv, vh = np.linalg.svd(lmat)
    multiplicity = int(np.sum(sv <= kernel_rtol * sv[0]))
    if multiplicity == 0:
        raise SteadyStateError(
            f"no Liouvillian kernel within tolerance (smallest singular value "
            f"{sv[-1]:.3e} vs threshold {kernel_rtol * sv[0]:.3e})"
        )
    if multiplicity > 1:
        raise DegenerateKernelError(multiplicity)
    v = vh[-1].conj()
    return v / (trace_row @ v)


def _density_from_vec(v: np.ndarray) -> np.ndarray:
    rho = unvec(v)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def steady_state(liouv: Liouvillian, kernel_rtol: float = 1e-10,
                 residual_tol: float = 1e-10, space=None,
                 composite: bool = True) -> DensityMatrix:
    """Unique steady state from the Liouvillian kernel.

    Trace preservation makes the rows of L dependent, so row 0 is replaced by
    the trace row and the bordered system B vec(rho) = e_0 is solved by one
    LU solve plus one step of iterative refinement. B is nonsingular exactly
    when the kernel is one-dimensional. A fixed probe vector is solved in the
    same call to bound cond(B) from below; on this path ``kernel_rtol`` is the
    reciprocal of the largest accepted estimate. The state is Hermitized and
    normalized, and the residual max|L vec(rho)| must not exceed
    ``residual_tol``.

    Only if the solve fails, the estimate exceeds 1/kernel_rtol or the
    residual check fails does a full SVD count the singular values at or
    below ``kernel_rtol`` relative to the largest: none raises SteadyStateError,
    more than one raises DegenerateKernelError, and exactly one gives the
    state from the SVD null vector, under the same residual check.

    By default the state is labelled as living on a composite qubit(x)magnon
    space of dimension 2N; pass ``space``/``composite`` for bare-mode
    Liouvillians.
    """
    lmat = liouv.matrix
    d = liouv.hilbert_dim
    trace_row = vec(np.eye(d, dtype=complex))
    v = _bordered_solve(lmat, trace_row, kernel_rtol)
    rho = None if v is None else _density_from_vec(v)
    if rho is None or not np.abs(lmat @ vec(rho)).max() <= residual_tol:
        rho = _density_from_vec(_svd_kernel(lmat, trace_row, kernel_rtol))
        residual = np.abs(lmat @ vec(rho)).max()
        if not residual <= residual_tol:
            raise SteadyStateError(
                f"steady-state residual {residual:.3e} exceeds {residual_tol:.3e}"
            )
    if space is None:
        from .hilbert import HilbertSpace

        if composite and d % 2:
            raise ValueError(f"odd dimension {d} cannot be a composite space")
        space = HilbertSpace(d // 2) if composite else HilbertSpace(d)
    expected = space.total_dim if composite else space.fock_dim
    if expected != d:
        raise ValueError(f"space dimension {expected} does not match Liouvillian {d}")
    return DensityMatrix(rho, space, composite)


def liouvillian_spectrum(liouv: Liouvillian) -> np.ndarray:
    """Full eigenvalue spectrum sorted by |real part| (debug path: the kernel
    eigenvalue comes first, the spectral gap second)."""
    evals = np.linalg.eigvals(liouv.matrix)
    return evals[np.argsort(np.abs(evals.real))]


def _split_periodic_liouvillian(p: SystemParams):
    """Static Liouvillian plus the e^{-iwt}/e^{+iwt} commutator parts of the
    longitudinal coupling."""
    l0 = build_liouvillian(build_h_eff(p), collapse_channels(p))
    a = p.g_rp * _longitudinal_operator(p.space)
    return l0.matrix, _commutator_super(a), _commutator_super(dagger(a)), p.omega_drive


def _max_step(p: SystemParams, h0: np.ndarray, time_dependent: bool) -> float:
    """Fixed RK4 step bound: resolves the decay scale, the Hamiltonian
    spectral span (for transient accuracy), and the drive period."""
    bounds = []
    kappa_ref = max(p.kappa_m * (2.0 * p.m_th + 1.0), p.kappa_q)
    if kappa_ref > 0.0:
        bounds.append(0.01 / kappa_ref)
    ev = np.linalg.eigvalsh((h0 + h0.conj().T) / 2.0)
    span = float(ev.max() - ev.min())
    if span > 0.0:
        bounds.append(0.2 / span)
    if time_dependent and p.omega_drive > 0.0:
        bounds.append(0.02 * 2.0 * math.pi / p.omega_drive)
    return min(bounds) if bounds else math.inf


def _rk4_steps(rhs, v: np.ndarray, t0: float, t1: float, n: int):
    """Yield the state after each of ``n`` equal RK4 steps of v' = rhs(t, v)
    from t0 to t1; ``v`` may be a state vector or a matrix of them."""
    h = (t1 - t0) / n
    t = t0
    for _ in range(n):
        k1 = rhs(t, v)
        k2 = rhs(t + h / 2.0, v + (h / 2.0) * k1)
        k3 = rhs(t + h / 2.0, v + (h / 2.0) * k2)
        k4 = rhs(t + h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        yield v


def evolve(rho0: DensityMatrix, p: SystemParams, t_grid, time_dependent: bool = False,
           drift_tol: float = 1e-8) -> Trajectory:
    """Integrate the master equation with fixed-step RK4, recording grid states.

    ``t_grid`` must start at 0 and increase strictly. With ``time_dependent``
    the Hamiltonian is the longitudinal one evaluated along the drive phase;
    otherwise the static rotating-frame Hamiltonian is used.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must start at 0 and be strictly increasing")
    rho0.validate()

    if time_dependent:
        l0, l1, l2, omega = _split_periodic_liouvillian(p)
        h_probe = build_h_longitudinal(p, 0.0)

        def rhs(t, v):
            return l0 @ v + np.exp(-1j * omega * t) * (l1 @ v) + np.exp(1j * omega * t) * (l2 @ v)
    else:
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        lmat = liouv.matrix
        h_probe = liouv.hamiltonian

        def rhs(t, v):
            return lmat @ v

    h_max = _max_step(p, h_probe, time_dependent)
    space = p.space
    v = vec(rho0.matrix).astype(complex)
    states = [DensityMatrix(rho0.matrix.copy(), space, True)]
    drift = abs(np.trace(rho0.matrix) - 1.0)
    for k in range(len(t_grid) - 1):
        t0, t1 = t_grid[k], t_grid[k + 1]
        n = max(1, math.ceil((t1 - t0) / h_max)) if math.isfinite(h_max) else 1
        for v in _rk4_steps(rhs, v, t0, t1, n):
            pass
        rho = unvec(v)
        rho = (rho + rho.conj().T) / 2.0
        drift = max(drift, abs(np.trace(rho).real - 1.0))
        if drift > drift_tol:
            raise TraceDriftError(drift, drift_tol)
        states.append(DensityMatrix(rho, space, True).validate())
    return Trajectory(times=t_grid, states=states, params=p,
                      step=h_max, trace_drift=drift)


def steady_state_periodic(p: SystemParams, steps_per_period: int = 64,
                          kappa_t: float = 30.0, tol: float = 1e-8) -> DensityMatrix:
    """Period-averaged steady state under the time-dependent longitudinal coupling.

    Evolves |g,0><g,0| with fixed-step RK4 (via the one-period propagator)
    until kappa*t >= ``kappa_t``, then averages the state over one full drive
    period sampled at ``steps_per_period`` points. Raises
    PeriodicConvergenceError if consecutive period averages still differ by
    more than ``tol``.
    """
    if p.g_rp <= 0.0:
        raise ValueError(f"periodic steady state requires g_rp > 0, got {p.g_rp}")
    kappa_ref = min(p.kappa_m, p.kappa_q)
    if kappa_ref <= 0.0:
        raise ValueError("periodic steady state requires dissipation")

    l0, l1, l2, omega = _split_periodic_liouvillian(p)
    period = 2.0 * math.pi / omega
    # step <= 0.02 * period and <= 0.01 / kappa
    n_sub = max(steps_per_period, 50, math.ceil(period / (0.01 / kappa_ref)))

    def rhs(t, v):
        return (l0 + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2) @ v

    # one-period propagator by RK4 on the matrix equation V' = L(t) V
    for prop in _rk4_steps(rhs, np.eye(l0.shape[0], dtype=complex), 0.0, period, n_sub):
        pass

    space = p.space
    d = space.total_dim
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0
    v = vec(rho0)

    # propagate vacuum through ceil(kappa_t / (kappa * period)) periods
    n_periods = math.ceil(kappa_t / (kappa_ref * period))
    n_left, power = n_periods, prop
    while n_left > 0:
        if n_left & 1:
            v = power @ v
        n_left >>= 1
        if n_left:
            power = power @ power

    def period_average(v_start):
        acc = np.zeros_like(v_start)
        for vv in _rk4_steps(rhs, v_start, 0.0, period, n_sub):
            acc += vv
        return acc / n_sub, vv

    avg_prev, v = period_average(v)
    avg, _ = period_average(v)
    change = np.abs(avg - avg_prev).max()
    if change > tol:
        raise PeriodicConvergenceError(change, tol)

    rho = unvec(avg)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, space, True).validate()
