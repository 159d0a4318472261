"""Lindblad master-equation solvers: vectorized Liouvillian, direct steady
state, fixed-step time evolution, and the period-averaged steady state of the
periodically driven (longitudinal-coupling) problem. Both steady states are
the unit-trace kernel vector of one generator, found by the same solve. Every
trajectory is a power of one RK4 map: one step of the static generator, or
the one-period propagator of the driven one.

Vectorization is column-stacking: vec(rho) = rho.flatten(order='F'), so
A rho B <-> (B^T kron A) vec(rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import _TRACE_TOL, DensityMatrix, dagger
from .model import SystemParams, _longitudinal_operator, _nonhermitian, build_h_eff, collapse_channels

__all__ = [
    "Liouvillian",
    "Trajectory",
    "build_liouvillian",
    "steady_state",
    "evolve",
    "steady_state_periodic",
    "vec",
    "unvec",
    "SteadyStateError",
    "DegenerateKernelError",
    "TraceDriftError",
]


_KERNEL_RTOL = 1e-10  # 1 / largest accepted cond(B); SVD kernel cutoff relative to sigma_max
_RESIDUAL_TOL = 1e-10  # largest accepted max|gen vec(rho)| of a steady state


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
    """Time-ordered density matrices plus solver metadata: each interval of
    ``times`` stands for ceil(interval / ``step``) RK4 steps."""

    times: np.ndarray
    states: list
    params: SystemParams | None
    step: float
    trace_drift: float


def _two_sided_super(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> left rho + rho right in column-stacking convention."""
    eye = np.eye(left.shape[0], dtype=complex)
    return np.kron(eye, left) + np.kron(right.T, eye)


def build_liouvillian(h: np.ndarray, channels) -> Liouvillian:
    """Assemble L with L vec(rho) = vec(K rho + rho K' + sum g C rho C') = vec(-i[H,rho]
    + sum (g/2)(2 C rho C' - {C'C, rho})), where K = -i ``model._nonhermitian``."""
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    herm = np.abs(h - h.conj().T).max()
    if herm > 1e-9 * max(1.0, np.abs(h).max()):
        raise ValueError(f"Hamiltonian not Hermitian: max deviation {herm:.3e}")
    for _, c in channels:
        if c.shape != (d, d):
            raise ValueError(f"channel operator shape {c.shape} does not match H {h.shape}")
    k = -1j * _nonhermitian(h, channels)
    lmat = _two_sided_super(k, dagger(k))
    for rate, c in channels:
        lmat += rate * np.kron(c.conj(), c)
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


def _bordered_solve(lmat: np.ndarray, trace_row: np.ndarray) -> np.ndarray | None:
    """Solve L v = 0, tr(v) = 1 with row 0 of L replaced by the trace row.

    Returns None when the bordered matrix B is singular or its condition
    number, estimated from below as ||B||_1 ||B^-1 p||_1 / ||p||_1 with the
    probe p solved alongside, exceeds 1/_KERNEL_RTOL.
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
    if not cond <= 1.0 / _KERNEL_RTOL:
        return None
    v = sol[:, 0]
    correction = -(bordered @ v)
    correction[0] += 1.0
    return v + np.linalg.solve(bordered, correction)


def _svd_kernel(lmat: np.ndarray, trace_row: np.ndarray) -> np.ndarray:
    """Kernel vector with unit trace from a full SVD, after checking that the
    kernel is one-dimensional (singular values at or below ``_KERNEL_RTOL``
    relative to the largest)."""
    _, sv, vh = np.linalg.svd(lmat)
    multiplicity = int(np.sum(sv <= _KERNEL_RTOL * sv[0]))
    if multiplicity == 0:
        raise SteadyStateError(
            f"no Liouvillian kernel within tolerance (smallest singular value "
            f"{sv[-1]:.3e} vs threshold {_KERNEL_RTOL * sv[0]:.3e})"
        )
    if multiplicity > 1:
        raise DegenerateKernelError(multiplicity)
    v = vh[-1].conj()
    return v / (trace_row @ v)


def _density_from_vec(v: np.ndarray) -> np.ndarray:
    rho = unvec(v)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _kernel_state(gen: np.ndarray, d: int) -> np.ndarray:
    """Hermitized unit-trace d x d density matrix spanning the kernel of the
    trace-annihilating generator ``gen`` (trace row zero).

    Row 0 of ``gen`` is replaced by the trace row and the bordered system
    B vec(rho) = e_0 is solved by one LU solve plus one step of iterative
    refinement. B is nonsingular exactly when the kernel is one-dimensional. A
    fixed probe vector is solved in the same call to bound cond(B) from below;
    the largest accepted estimate is 1/_KERNEL_RTOL. The residual
    max|gen vec(rho)| must not exceed ``_RESIDUAL_TOL``.

    Only if the solve fails, the estimate exceeds 1/_KERNEL_RTOL or the
    residual check fails does a full SVD count the singular values at or
    below ``_KERNEL_RTOL`` relative to the largest: none raises SteadyStateError,
    more than one raises DegenerateKernelError, and exactly one gives the
    state from the SVD null vector, under the same residual check.
    """
    trace_row = vec(np.eye(d, dtype=complex))
    v = _bordered_solve(gen, trace_row)
    rho = None if v is None else _density_from_vec(v)
    if rho is None or not np.abs(gen @ vec(rho)).max() <= _RESIDUAL_TOL:
        rho = _density_from_vec(_svd_kernel(gen, trace_row))
        residual = np.abs(gen @ vec(rho)).max()
        if not residual <= _RESIDUAL_TOL:
            raise SteadyStateError(
                f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e}"
            )
    return rho


def steady_state(liouv: Liouvillian, *, space=None, composite: bool = True) -> DensityMatrix:
    """Unique steady state from the Liouvillian kernel, by ``_kernel_state``.

    By default the state is labelled as living on a composite qubit(x)magnon
    space of dimension 2N; pass ``space``/``composite`` for bare-mode
    Liouvillians.
    """
    d = liouv.hilbert_dim
    rho = _kernel_state(liouv.matrix, d)
    if space is None:
        from .hilbert import HilbertSpace

        if composite and d % 2:
            raise ValueError(f"odd dimension {d} cannot be a composite space")
        space = HilbertSpace(d // 2) if composite else HilbertSpace(d)
    expected = space.total_dim if composite else space.fock_dim
    if expected != d:
        raise ValueError(f"space dimension {expected} does not match Liouvillian {d}")
    return DensityMatrix(rho, space, composite).validate()


def _split_periodic_liouvillian(p: SystemParams):
    """Static Liouvillian plus the e^{-iwt}/e^{+iwt} commutator parts of the
    longitudinal coupling, where -i[a, rho] = (-i a) rho + rho (i a)."""
    liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
    a = p.g_rp * _longitudinal_operator(p.space)
    l1, l2 = (_two_sided_super(-1j * x, 1j * x) for x in (a, dagger(a)))
    return liouv, l1, l2, p.omega_drive


def _max_step(p: SystemParams, h0: np.ndarray) -> float:
    """Fixed RK4 step bound: resolves the decay scale and the Hamiltonian
    spectral span (for transient accuracy)."""
    bounds = []
    kappa_ref = max(p.kappa_m * (2.0 * p.m_th + 1.0), p.kappa_q)
    if kappa_ref > 0.0:
        bounds.append(0.01 / kappa_ref)
    ev = np.linalg.eigvalsh((h0 + h0.conj().T) / 2.0)
    span = float(ev.max() - ev.min())
    if span > 0.0:
        bounds.append(0.2 / span)
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


def _one_period_maps(p: SystemParams, steps_per_period: int = 64):
    """One-period propagator P, period-average map A, drive period T and RK4
    step h of the longitudinally driven generator, from one RK4 pass on the
    matrix equation V' = L(t) V with V(0) = I.

    A is the mean of the propagators at the RK4 samples t = h, 2h, ..., T, so
    A v is the period average of the trajectory that starts from v at drive
    phase 0. A period takes ``steps_per_period`` steps, or more where a step
    would exceed ``_max_step``.
    """
    liouv, l1, l2, omega = _split_periodic_liouvillian(p)
    period = 2.0 * math.pi / omega
    n_sub = max(steps_per_period, math.ceil(period / _max_step(p, liouv.hamiltonian)))

    def rhs(t, v):
        return (liouv.matrix + np.exp(-1j * omega * t) * l1 + np.exp(1j * omega * t) * l2) @ v

    avg = np.zeros_like(liouv.matrix)
    for prop in _rk4_steps(rhs, np.eye(liouv.dim, dtype=complex), 0.0, period, n_sub):
        avg += prop
    return prop, avg / n_sub, period, period / n_sub


def evolve(rho0: DensityMatrix, p: SystemParams, t_grid) -> Trajectory:
    """States of the master equation on a uniform ``t_grid`` starting at 0,
    each a power of one fixed RK4 map applied to ``rho0``.

    Without longitudinal coupling the map is one RK4 step of the static
    Liouvillian; each grid interval takes ceil(spacing / ``Trajectory.step``)
    equal steps, with ``step`` the ``_max_step`` bound. With g_rp > 0 the
    samples are snapped to the nearest whole number k of drive periods
    (``Trajectory.times`` holds k T) and each reports the period average
    A P^k rho0 of ``_one_period_maps``, so the first sample is the average over
    the first period. Trace drift beyond ``hilbert._TRACE_TOL`` raises
    TraceDriftError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    gaps = np.diff(t_grid)
    # the relative 1e-9 admits the rounding of np.linspace grids
    if (t_grid[0] != 0.0 or gaps.size == 0 or gaps.min() <= 0.0
            or gaps.max() - gaps.min() > 1e-9 * gaps.max()):
        raise ValueError("t_grid must start at 0 and increase in equal steps")
    rho0.validate()
    dt = t_grid[-1] / gaps.size

    if p.g_rp > 0.0:
        prop, report, period, step = _one_period_maps(p)
        counts = np.floor(t_grid / period + 0.5).astype(int)
        if np.diff(counts).min() < 1:
            raise ValueError(f"t_grid spacing {dt:.3e} is below the drive period {period:.3e}")
        times = counts * period
    else:
        liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
        step = _max_step(p, liouv.hamiltonian)
        n = max(1, math.ceil(dt / step))
        eye = np.eye(liouv.dim, dtype=complex)
        prop = next(_rk4_steps(lambda t, v: liouv.matrix @ v, eye, 0.0, dt / n, 1))
        report, counts, times = None, n * np.arange(t_grid.size), t_grid
    powers = {m: np.linalg.matrix_power(prop, m) for m in set(np.diff(counts).tolist())}

    space = p.space
    v = vec(rho0.matrix).astype(complex)
    states = []
    drift = 0.0
    for k in range(t_grid.size):
        if k:
            v = powers[counts[k] - counts[k - 1]] @ v
        rho = unvec(v if report is None else report @ v)
        rho = (rho + rho.conj().T) / 2.0
        drift = max(drift, abs(np.trace(rho).real - 1.0))
        if drift > _TRACE_TOL:
            raise TraceDriftError(drift, _TRACE_TOL)
        states.append(DensityMatrix(rho, space, True).validate())
    return Trajectory(times=times, states=states, params=p, step=step, trace_drift=drift)


def steady_state_periodic(p: SystemParams, steps_per_period: int = 64) -> DensityMatrix:
    """Period-averaged steady state under the time-dependent longitudinal coupling.

    With the maps of ``_one_period_maps``, the state at drive phase 0 is the
    fixed point P v = v, found by ``_kernel_state`` as the kernel of
    G = (P - I)/T; dividing by the period T makes G approximate the
    period-averaged Liouvillian, so the kernel and residual tolerances mean
    what they mean for the static problem. The result is its period average
    A v.
    """
    if p.g_rp <= 0.0:
        raise ValueError(f"periodic steady state requires g_rp > 0, got {p.g_rp}")
    if min(p.kappa_m, p.kappa_q) <= 0.0:
        raise ValueError("periodic steady state requires dissipation")

    prop, avg, period, _ = _one_period_maps(p, steps_per_period)
    space = p.space
    rho0 = _kernel_state((prop - np.eye(prop.shape[0])) / period, space.total_dim)
    return DensityMatrix(_density_from_vec(avg @ vec(rho0)), space, True).validate()
