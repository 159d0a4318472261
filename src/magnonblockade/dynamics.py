"""Lindblad master-equation solvers: the Liouvillian as a real matrix in a
Hermitian basis, direct steady state, fixed-step time evolution,
and the period-averaged steady state of the periodically driven
(longitudinal-coupling) problem. Both steady states are the unit-trace kernel
vector of a generator. A Liouvillian is held as its entries, (index, value)
pairs from a cached plan, and forms its dense matrix only when that is read;
one stacked core forms the entries of a stack of generators, and a chunk of
static sweep points is built as arrays, with the bits of a point built alone.
The static generator is block tridiagonal when the coordinates are grouped
by excitation number, and its kernel is found by block elimination in that
ordering, with one stacked solve per level for a whole stack of generators:
``_steady_stack`` solves one point or a chunk of sweep points from their
level rows and row 0, one ``np.bincount`` of the entries per nonzero
pattern, and takes each residual from them; no D x D generator is formed
on that path.
The periodic state's generator is the period-averaged one,
G = L0 + 2 Re(L- S_1), reduced from the Fourier harmonics of the state by a
matrix continued fraction; G is dense, and its kernel comes from a bordered
LU solve of the whole matrix, which is also the static fallback. Every trajectory is a power of one RK4 step of the static
generator; the same textbook RK4 loop over a drive period gives the periodic
state's reference. Every solver works in float64, apart from the complex
harmonic recursion.

Coordinates: a d x d Hermitian rho is the real vector x = (diagonal of rho,
Re rho[i, j], Im rho[i, j]) with i < j in ``np.triu_indices`` order, its
components in the orthogonal Hermitian basis E_ii, E_ij + E_ji,
i(E_ij - E_ji). The first d coordinates are the populations and sum to the
trace. A generator that maps Hermitian matrices to Hermitian matrices is a
real matrix in this basis (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286; Kimura, Phys. Lett. A 314, 339 (2003)). The
off-diagonal basis elements have norm sqrt(2), so singular values and
max-norms differ from those of an orthonormal basis by at most that factor.
The basis is not normalized because then every coefficient is 1, +-1j or
1/2: the column-stacked entries of the model's generators pass to the real
matrix and back without rounding. (Normalizing by 1/sqrt(2) rounds them;
turning the pair by 45 degrees keeps dyadic coefficients but mixes Re and Im,
and costs up to 1e-8 in log10 g2 at deep-blockade points.)

The complex form is column-stacking: vec(rho) = rho.flatten(order='F') = U x
for the U of ``_basis``, and A rho B <-> (B^T kron A) vec(rho).
``Liouvillian.matrix`` gives L in that form.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import DensityMatrix, HilbertSpace, _check_densities, _density_errors, _read_only, dagger
from .model import (_SPACE_CACHE_SIZE, SystemParams, _channel_stack, _h_eff_stack, _longitudinal_operator,
                    _nonhermitian, build_h_eff, collapse_channels)

__all__ = [
    "Liouvillian",
    "Trajectory",
    "build_liouvillian",
    "steady_state",
    "steady_states",
    "evolve",
    "steady_state_periodic",
    "SteadyStateError",
    "DegenerateKernelError",
]


_KERNEL_RTOL = 1e-10  # 1 / largest accepted cond(B); SVD kernel cutoff relative to sigma_max
_RESIDUAL_TOL = 1e-10  # largest accepted max|gen x| of a steady state in Hermitian coordinates
_MAX_HARMONICS = 64  # highest harmonic at which the periodic recursion may be truncated


class SteadyStateError(RuntimeError):
    """No acceptable steady state could be extracted from the Liouvillian."""


class DegenerateKernelError(SteadyStateError):
    """The Liouvillian kernel is not one-dimensional."""

    def __init__(self, multiplicity: int):
        super().__init__(f"Liouvillian kernel has dimension {multiplicity}, expected 1")
        self.multiplicity = multiplicity


class _Basis(NamedTuple):
    upper: tuple  # np.triu_indices(d, 1): the (i, j) of each off-diagonal coordinate pair
    coords: np.ndarray  # (d^2, 2): the coordinates column-stacked entry v depends on
    coefs: np.ndarray  # (d^2, 2): vec(rho)[v] = sum_s coefs[v, s] x[coords[v, s]], row v of U
    norms: np.ndarray  # (d^2,): squared norm of each basis element, so x = U' vec(rho) / norms


@functools.lru_cache(maxsize=None)
def _basis(d: int) -> _Basis:
    """Coordinate table of the Hermitian basis of d x d matrices: the nonzeros
    of each row of U, at most two (a diagonal entry has one; its second slot
    repeats the coordinate with coefficient 0)."""
    rows, cols = np.triu_indices(d, 1)
    n_pairs = rows.size
    pair = np.zeros((d, d), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(n_pairs)
    b, a = np.divmod(np.arange(d * d), d)  # vec index v = a + d b holds rho[a, b]
    diag = a == b
    coords = np.stack([np.where(diag, a, d + pair[a, b]),
                       np.where(diag, a, d + n_pairs + pair[a, b])], axis=1)
    # rho[a, b] = x_re + 1j x_im for a < b, x_re - 1j x_im for a > b
    coefs = np.stack([np.ones(d * d, dtype=complex),
                      np.where(diag, 0.0, np.where(a < b, 1j, -1j))], axis=1)
    norms = np.where(np.arange(d * d) < d, 1.0, 2.0)
    rows, cols, coords, coefs, norms = _read_only(rows, cols, coords, coefs, norms)
    return _Basis((rows, cols), coords, coefs, norms)


def _coords(rho: np.ndarray) -> np.ndarray:
    """Hermitian coordinates of a (..., d, d) stack of Hermitian matrices,
    read from the diagonal and the upper triangle."""
    rows, cols = _basis(rho.shape[-1]).upper
    upper = rho[..., rows, cols]
    return np.concatenate([np.diagonal(rho, axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def _density(x: np.ndarray) -> np.ndarray:
    """The (..., d, d) Hermitian matrices with Hermitian coordinates x."""
    d = math.isqrt(x.shape[-1])
    rows, cols = _basis(d).upper
    n_pairs = rows.size
    rho = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    rho[..., diag, diag] = x[..., :d]
    upper = x[..., d:d + n_pairs] + 1j * x[..., d + n_pairs:]
    rho[..., rows, cols] = upper
    rho[..., cols, rows] = upper.conj()
    return rho


class Liouvillian:
    """Master-equation generator L in Hermitian coordinates (D = d^2), held as
    entries: ``weight[i]`` adds to the entry ``layout.target[i]`` of the
    float64 D x D matrix ``real``, the entries of one target in order.
    ``real``, the form of the dense solvers, is formed on first read; the
    static steady solve reads the entries straight into level rows (see
    ``_group_rows``). ``Liouvillian(real)`` holds the dense matrix it is given,
    with its nonzeros as the entries."""

    def __init__(self, real: np.ndarray | None = None, *, layout: _Layout | None = None,
                 weight: np.ndarray | None = None):
        if real is not None:
            target = np.flatnonzero(real)
            layout, weight = _Layout(math.isqrt(real.shape[0]), target), real.ravel()[target]
            self.real = real
        self.layout = layout
        self.weight = weight
        self._solved = None  # the bytes of the state steady_state returned, and its residual

    @functools.cached_property
    def real(self) -> np.ndarray:
        """The float64 D x D matrix of L, from one ``np.bincount`` of the entries."""
        dim = self.dim
        return np.bincount(self.layout.target, self.weight, minlength=dim * dim).reshape(dim, dim)

    @property
    def dim(self) -> int:
        return self.layout.d ** 2

    @property
    def hilbert_dim(self) -> int:
        return self.layout.d

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """L on column-stacked complex vectors, U ``real`` U^-1, derived on first access."""
        basis = _basis(self.hilbert_dim)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for s in (0, 1):
            for t in (0, 1):
                cols = basis.coords[:, t]
                block = self.real[np.ix_(basis.coords[:, s], cols)] / basis.norms[cols]
                out += basis.coefs[:, s, None] * block * basis.coefs[None, :, t].conj()
        return out

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        """The (1, S) level rows, row 0 and out-of-band sums of ``_group_rows``,
        kept for the residual of the state ``steady_state`` returns."""
        return _group_rows(self.layout, self.weight[None])

    def residual(self, rho: np.ndarray) -> float:
        """max|L x| of the Hermitian d x d matrix ``rho`` in Hermitian coordinates x,
        the quantity the steady-state solve checks (that solve's own for the
        state ``steady_state`` returned): from the level rows and row 0 by
        ``_residuals``, or from the dense L where L has a nonzero outside them
        (or d is odd)."""
        if self._solved is not None and self._solved[0] == rho.tobytes():
            return self._solved[1]
        x = _coords(rho)
        d = self.hilbert_dim
        if d % 2 == 0 and _in_band(self._rows, d // 2)[0]:
            return float(_residuals(self._rows, x[None], d // 2)[0])
        return float(np.abs(self.real @ x).max())


@dataclass
class Trajectory:
    """Time-ordered density matrices plus solver metadata: each interval of
    ``times`` stands for ceil(interval / ``step``) RK4 steps, and
    ``trace_drift`` is the largest |tr(rho) - 1| of the states, each of which
    passed the density check. ``populations`` holds the magnon Fock
    populations of every state as one (samples, N) array, as ``evolve``
    fills it."""

    times: np.ndarray
    states: list
    params: SystemParams | None
    step: float
    trace_drift: float
    populations: np.ndarray | None = field(default=None, repr=False)


_PLAN_CACHE_SIZE = 8  # nonzero patterns whose plans are kept; a sweep uses one to three


class _Layout:
    """Where the entries of a Liouvillian go: ``target``, the flat index of
    each entry in the D x D real matrix, and, on first read, ``slots``."""

    def __init__(self, d: int, target: np.ndarray):
        self.d = d
        self.target = target

    @functools.cached_property
    def slots(self) -> tuple[np.ndarray, int]:
        """Each entry's slot in a point's level-row vector of
        ``_excitation_blocks(d // 2)`` and the vector's length (d even)."""
        return _band_slots(self.d // 2, self.target)


class _Plan(NamedTuple):
    pick: np.ndarray  # (4 n,): index into the (re, im) pairs of the values of ``_stacked_weights``
    sign: np.ndarray  # (4 n,): the factor, 1, -1 or 0, of the picked part
    layout: _Layout  # target (4 n,): flat index of the real matrix each (entry, s, t) adds to


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _liouvillian_plan(d: int, pattern: bytes, channel_patterns: tuple) -> _Plan:
    """Index plan of ``build_liouvillian`` for one nonzero pattern of K (d * d
    booleans, row-major) and of each channel operator, in channel order: every
    index computation of the build, which depends on the pattern alone.

    The column-stacked nonzeros of I kron K, conj(K) kron I and each conj(C)
    kron C come in that order; of them, those in a row for rho[a, b] with
    a <= b are kept, and each goes through the coordinate table of ``_basis``
    to four (row, column) entries of the real matrix, whose weight is the
    real part of the value times conj(U[row, s]) U[col, t], a factor of 0,
    +-1 or +-1j: exactly +-Re v, +-Im v or 0, the part and sign the plan
    picks. The layout maps each entry to its level-row slot on first ask.
    """
    span = d * np.arange(d)
    a, c = np.nonzero(np.frombuffer(pattern, dtype=bool).reshape(d, d))
    n_k = a.size
    # (K rho)[a, j] gets K[a, c] rho[c, j]; (rho K')[j, a] gets rho[j, c] conj(K[a, c])
    rows = [(a[:, None] + span).ravel(), (a[:, None] * d + np.arange(d)).ravel()]
    cols = [(c[:, None] + span).ravel(), (c[:, None] * d + np.arange(d)).ravel()]
    source = [np.repeat(np.arange(n_k), d), np.repeat(np.arange(n_k, 2 * n_k), d)]
    offset = 2 * n_k
    for channel in channel_patterns:
        # (C rho C')[a, b] gets C[a, c] rho[c, e] conj(C[b, e])
        a, c = np.nonzero(np.frombuffer(channel, dtype=bool).reshape(d, d))
        rows.append((a[:, None] + d * a).ravel())
        cols.append((c[:, None] + d * c).ravel())
        source.append(np.arange(offset, offset + a.size ** 2))
        offset += a.size ** 2
    rows, cols, source = (np.concatenate(x) for x in (rows, cols, source))
    b, a = np.divmod(rows, d)
    upper = a <= b
    rows, cols, source = rows[upper], cols[upper], source[upper]
    basis = _basis(d)
    # U^-1[k, row] = conj(U[row, k]) / norms[k]. For an off-diagonal coordinate the
    # rows (a, b) and (b, a) add equal real parts at weight 1/2 each, so the upper
    # row alone, at weight 1, gives both.
    target = basis.coords[rows][:, :, None] * (d * d) + basis.coords[cols][:, None, :]
    coef = (basis.coefs[rows].conj()[:, :, None] * basis.coefs[cols][:, None, :]).ravel()
    # Re(coef v) = coef.re Re v - coef.im Im v, one term of which is zero
    imaginary = coef.real == 0.0
    pick = 2 * np.repeat(source, 4) + imaginary
    sign = np.where(imaginary, -coef.imag, coef.real)
    pick, sign, target = _read_only(pick, sign, target.ravel())
    return _Plan(pick, sign, _Layout(d, target))


def _stacked_weights(k: np.ndarray, channels) -> list:
    """The entries of the Liouvillians of a (m, d, d) stack of K = -i
    ``model._nonhermitian`` with channels [(rates, C), ...], rates (m,): per
    nonzero pattern of K, (members, layout, (len(members), entries) weights).
    A plan reads the nonzeros of K, their conjugates and, per channel,
    g conj(C[b, e]) C[a, c] over pairs of nonzeros."""
    nonzeros = [c != 0 for _, c in channels]
    products = [(c[x][:, None] * c[x].conj()).ravel() for (_, c), x in zip(channels, nonzeros)]
    k_nonzero = k != 0
    groups: dict[bytes, list] = {}
    for i, pattern in enumerate(k_nonzero):
        groups.setdefault(pattern.tobytes(), []).append(i)
    out = []
    for pattern, members in groups.items():
        plan = _liouvillian_plan(k.shape[-1], pattern, tuple(x.tobytes() for x in nonzeros))
        kv = k[members][:, k_nonzero[members[0]]]
        # complex rates: each product is the complex one of a scalar times the pairs
        values = np.concatenate([kv, kv.conj(), *(np.asarray(rate, complex)[members, None] * pairs
                                                  for (rate, _), pairs in zip(channels, products))],
                                axis=1)
        weights = np.take(values.view(float), plan.pick, axis=1)
        weights *= plan.sign
        out.append((members, plan.layout, weights))
    return out


def build_liouvillian(h: np.ndarray, channels) -> Liouvillian:
    """Assemble L rho = K rho + rho K' + sum g C rho C' = -i[H, rho]
    + sum (g/2)(2 C rho C' - {C'C, rho}), where K = -i ``model._nonhermitian``,
    as the real matrix U^-1 L U in Hermitian coordinates (``_stacked_weights``
    of a stack of one).

    Each nonzero of the column-stacked I kron K, conj(K) kron I and g conj(C)
    kron C in a row for rho[a, b] with a <= b goes to at most four entries of
    the real matrix, where the contributions are summed; no Kronecker product
    is formed. L preserves Hermiticity, so the row for rho[b, a] is the
    conjugate of the row for rho[a, b] and adds the same real parts. Where
    each nonzero goes depends only on the nonzero patterns, so it comes from
    the cached ``_liouvillian_plan``; a call forms the values and from them
    the Liouvillian's entries. The dense matrix is their ``np.bincount``,
    formed only where it is read.
    """
    d = h.shape[0]
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian must be square, got {h.shape}")
    # a nan passes the comparisons below, since nan > tol is false
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian has a non-finite entry")
    herm = np.abs(h - h.conj().T).max()
    if herm > 1e-9 * max(1.0, np.abs(h).max()):
        raise ValueError(f"Hamiltonian not Hermitian: max deviation {herm:.3e}")
    for rate, c in channels:
        if c.shape != (d, d):
            raise ValueError(f"channel operator shape {c.shape} does not match H {h.shape}")
        if not (np.isfinite(rate) and np.isfinite(c).all()):
            raise ValueError(f"channel of rate {rate} has a non-finite rate or operator entry")
    channels = [(np.array([rate]), c) for rate, c in channels]
    ((_, layout, weight),) = _stacked_weights(-1j * _nonhermitian(h[None], channels), channels)
    return Liouvillian(layout=layout, weight=weight[0])


@functools.lru_cache(maxsize=None)
def _condition_probe(n: int) -> np.ndarray:
    """Fixed right-hand side for the condition estimate. Its magnitudes and
    signs follow Weyl sequences of irrational steps, so it has no structure
    in common with the Liouvillian and overlaps every near-null direction of
    the bordered matrix. (numpy.random would add several MB to the process.)"""
    k = np.arange(n)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    probe = (1.5 + np.cos(k * math.sqrt(2.0))) * np.cos(2.0 * math.pi * golden * k)
    probe.setflags(write=False)
    return probe


def _bordered_solve(gen: np.ndarray, trace_row: np.ndarray) -> np.ndarray | None:
    """Solve gen x = 0, tr(x) = 1 with row 0 of gen replaced by the trace row.

    Returns None when the bordered matrix B is singular or its condition
    number, estimated from below as ||B||_1 ||B^-1 p||_1 / ||p||_1 with the
    probe p solved alongside, exceeds 1/_KERNEL_RTOL.
    """
    bordered = gen.copy()
    bordered[0] = trace_row
    n = bordered.shape[0]
    rhs = np.zeros((n, 2))
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
    x = sol[:, 0]
    correction = -(bordered @ x)
    correction[0] += 1.0
    # This factorizes B a second time: numpy exposes no reuse of an LU
    # factorization, and importing scipy.linalg for lu_factor would cost
    # about 300 ms and 29 MB per process.
    return x + np.linalg.solve(bordered, correction)


def _svd_kernel(gen: np.ndarray, trace_row: np.ndarray) -> np.ndarray:
    """Kernel vector with unit trace from a full SVD, after checking that the
    kernel is one-dimensional (singular values at or below ``_KERNEL_RTOL``
    relative to the largest)."""
    _, sv, vh = np.linalg.svd(gen)
    multiplicity = int(np.sum(sv <= _KERNEL_RTOL * sv[0]))
    if multiplicity == 0:
        raise SteadyStateError(
            f"no Liouvillian kernel within tolerance (smallest singular value "
            f"{sv[-1]:.3e} vs threshold {_KERNEL_RTOL * sv[0]:.3e})"
        )
    if multiplicity > 1:
        raise DegenerateKernelError(multiplicity)
    return vh[-1] / (trace_row @ vh[-1])


def _kernel_state(gen: np.ndarray, d: int) -> np.ndarray:
    """Unit-trace Hermitian coordinates x of the d x d density matrix spanning
    the kernel of the real trace-annihilating generator ``gen`` (trace row
    zero), for any generator: the solve of the periodic G = (P - I)/T, and of
    a static L where ``_blocked_kernel`` gives up.

    Row 0 of ``gen`` is replaced by the trace row and the bordered system
    B x = e_0 is solved by one LU solve plus one step of iterative
    refinement. B is nonsingular exactly when the kernel is one-dimensional. A
    fixed probe vector is solved in the same call to bound cond(B) from below;
    the largest accepted estimate is 1/_KERNEL_RTOL. The residual max|gen x|
    must not exceed ``_RESIDUAL_TOL``.

    Only if the solve fails, the estimate exceeds 1/_KERNEL_RTOL or the
    residual check fails does a full SVD count the singular values at or
    below ``_KERNEL_RTOL`` relative to the largest: none raises SteadyStateError,
    more than one raises DegenerateKernelError, and exactly one gives the
    state from the SVD null vector, under the same residual check.
    """
    trace_row = np.zeros(gen.shape[0])
    trace_row[:d] = 1.0
    x = _bordered_solve(gen, trace_row)
    if x is not None:
        x = x / x[:d].sum()
    if x is None or not np.abs(gen @ x).max() <= _RESIDUAL_TOL:
        x = _svd_kernel(gen, trace_row)
        residual = np.abs(gen @ x).max()
        if not residual <= _RESIDUAL_TOL:
            raise SteadyStateError(
                f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e}"
            )
    return x


class _Blocks(NamedTuple):
    index: tuple  # per block, its coordinates; coordinate 0 is left out of block 0
    columns: tuple  # per block b, the coordinates of blocks b-1, b, b+1, then 0
    widths: tuple  # per block, (size of block b-1, size of block b)
    probe: tuple  # per block, its rows of _condition_probe(D - 1) as one column
    probe_norm: float  # ||_condition_probe(D - 1)||_1
    offsets: np.ndarray  # (N + 2,): per block, the first slot of its rows; then row 0's
    level: np.ndarray  # (D,): the block of each coordinate
    position: np.ndarray  # (D,): the place of each coordinate in its block's ``index``


@functools.lru_cache(maxsize=None)
def _excitation_blocks(n: int) -> _Blocks:
    """Ordering of the Hermitian coordinates of the qubit(x)magnon space with N
    = ``n`` Fock states in which every built-in static generator is block
    tridiagonal. State i = q N + n' carries e_i = q + n' excitations; the
    coordinate (i, j) goes to block floor((e_i + e_j)/2), which gives N + 1
    blocks. A Hamiltonian term changes e_i + e_j by at most 1 and a C rho C'
    term of m, m' or sigma- by 2, so no entry couples blocks further apart.

    A point's level rows are one vector: block b's rows at its ``columns``,
    row-major from ``offsets[b]``, then row 0 of L from ``offsets[-1]``."""
    d = 2 * n
    e = np.add.outer(np.arange(2), np.arange(n)).ravel()
    rows, cols = _basis(d).upper
    pair = (e[rows] + e[cols]) // 2
    level = np.concatenate([e, pair, pair])
    index = [np.flatnonzero(level == b) for b in range(n + 1)]
    index[0] = index[0][1:]
    position = np.zeros(d * d, dtype=np.intp)
    probe = _condition_probe(d * d - 1)
    empty = np.zeros(0, dtype=np.intp)
    columns, widths = [], []
    for b, idx in enumerate(index):
        position[idx] = np.arange(idx.size)
        lower = index[b - 1] if b else empty
        upper = index[b + 1] if b < n else empty
        columns.append(np.concatenate([lower, idx, upper, [0]]))
        widths.append((lower.size, idx.size))
    offsets = np.cumsum([0] + [idx.size * c.size for idx, c in zip(index, columns)])
    return _Blocks(_read_only(*index), _read_only(*columns), tuple(widths),
                   _read_only(*(probe[idx - 1][:, None] for idx in index)),
                   float(np.abs(probe).sum()), *_read_only(offsets, level, position))


def _band_slots(n: int, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Slot of each flat D x D index of ``target`` in a level-row vector of
    ``_excitation_blocks(n)``, and the vector's length. An entry of row 0
    goes to row 0's slots; one outside every block's columns goes to one of
    the slots after those, one per distinct target, whose sums a point in
    the band leaves at zero. Only tables of D positions are indexed."""
    blocks = _excitation_blocks(n)
    dim = 4 * n * n
    row, col = np.divmod(target, dim)
    b = blocks.level[row]
    shift = blocks.level[col] - b
    lower, size = (np.array(w)[b] for w in zip(*blocks.widths))
    width = np.array([c.size for c in blocks.columns])[b]
    place = blocks.position[col] + np.where(shift < 0, 0, lower) + np.where(shift > 0, size, 0)
    place[col == 0] = width[col == 0] - 1
    slot = blocks.offsets[b] + blocks.position[row] * width + place
    top = row == 0
    slot[top] = blocks.offsets[-1] + col[top]
    band = blocks.offsets[-1] + dim
    outside = ~top & (col != 0) & (np.abs(shift) > 1)
    distinct, slot[outside] = np.unique(target[outside], return_inverse=True)
    slot[outside] += band
    return _read_only(slot)[0], band + distinct.size


_CHUNK_POINTS = 16  # most static points that share one stacked elimination
_CHUNK_BYTES = 1 << 20  # most bytes of level rows that one chunk's elimination reads


def _chunk_size(n: int) -> int:
    """Points of truncation ``n`` that ``steady_states`` should be given at
    once: 10 at N = 6, and 1 from N = 11 up, where the level rows of two
    points pass the byte budget. A chunk holds its level rows, one
    (k, slots) array, and its (k, entries) weights, about a quarter of those
    bytes at N = 6; no D x D generator and no per-point Liouvillian."""
    rows = int(_excitation_blocks(n).offsets[-1])
    return max(1, min(_CHUNK_POINTS, _CHUNK_BYTES // (8 * rows)))


def _group_rows(layout: _Layout, weights: np.ndarray) -> np.ndarray:
    """The (k, S) level-row vectors of k Liouvillians of one layout with the
    (k, entries) ``weights``, from one ``np.bincount``. Each slot sums the
    same entries in the same order as the dense matrix's entry, so the level
    rows are the dense matrix's, bit for bit."""
    slot, size = layout.slots
    k = len(weights)
    flat = (np.arange(k)[:, None] * size + slot).ravel() if k > 1 else slot
    return np.bincount(flat, weights.ravel(), minlength=k * size).reshape(k, size)


def _in_band(rows: np.ndarray, n: int) -> np.ndarray:
    """Which level-row vectors have no nonzero outside the rows and row 0."""
    return ~rows[:, int(_excitation_blocks(n).offsets[-1]) + 4 * n * n:].any(axis=1)


def _chunk_rows(groups: list, k: int, n: int) -> np.ndarray:
    """The (k, S') level-row vectors of k points with N = ``n`` in groups
    (members, layout, weights), one ``_group_rows`` per group; of several
    groups, only the out-of-band flag of ``_in_band`` follows row 0."""
    if len(groups) == 1:
        return _group_rows(*groups[0][1:])
    band = int(_excitation_blocks(n).offsets[-1]) + 4 * n * n
    rows = np.zeros((k, band + 1))
    for members, layout, weights in groups:
        group = _group_rows(layout, weights)
        rows[members, :band] = group[:, :band]
        rows[members, band] = ~_in_band(group, n)
    return rows


def _levels(rows: np.ndarray, n: int) -> list:
    """Per block, the (k, s_b, c_b) view of its rows in a stack of level-row
    vectors, the input of ``_blocked_kernel``."""
    blocks = _excitation_blocks(n)
    return [rows[:, start:start + idx.size * columns.size].reshape(-1, idx.size, columns.size)
            for start, idx, columns in zip(blocks.offsets, blocks.index, blocks.columns)]


def _residuals(rows: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """max|L x| of each point of a stack of level-row vectors, at its
    coordinates x, from its level rows and row 0: the residual of the steady
    solve, for one point or a chunk, and of ``Liouvillian.residual``, with
    the same bits for a point whatever the stack."""
    blocks = _excitation_blocks(n)
    top = rows[:, blocks.offsets[-1]:blocks.offsets[-1] + 4 * n * n]
    image = np.empty(x.shape)  # L x, row 0 and then each block's rows
    image[:, :1] = (top[:, None, :] @ x[:, :, None])[:, 0]
    for level, idx, columns in zip(_levels(rows, n), blocks.index, blocks.columns):
        image[:, idx] = (level @ x[:, columns, None])[:, :, 0]
    return np.abs(image).max(axis=1)


def _blocked_kernel(levels, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-trace kernel vectors of a stack of generators by block
    elimination in the ordering of ``_excitation_blocks`` (Golub & Van Loan,
    Matrix Computations, 4th ed., sec. 4.5.1), with one stacked solve per
    level for the whole stack.

    ``levels`` gives, per block b, the (..., s_b, c_b) rows [A_b | B_b | C_b
    | gen[:, 0]] of the generators at ``_Blocks.columns[b]``, the leading
    axes being the stack's, from ``_levels``.
    With x_0 = 1 and row 0 dropped (the trace row of gen is zero, so row 0
    depends on the others), the reduced matrix M, gen without row and
    column 0, solves M y = -gen[1:, 0]. M is nonsingular exactly when the
    kernel is one-dimensional and the |g,0> population x_0 is not zero.
    S_b = B_b - A_b G_{b-1}, and one solve of S_b gives G_b = S_b^-1 C_b
    together with the right-hand side and the condition probe;
    y_b = g_b - G_b y_{b+1} on the way back.

    Returns x, (..., D), and the mask of the states the elimination vouches
    for: those with ||M||_1 ||M^-1 p||_1 / ||p||_1 at most 1/_KERNEL_RTOL. A
    singular block raises LinAlgError for the whole stack. The residual
    max|gen x| of ``_residuals`` is the check of ``_steady_stack``, which
    also sends a point with an entry outside the band to the dense solve.
    No D x D array is formed.
    """
    blocks = _excitation_blocks(n)
    solved = []
    norm = upper = partial = None  # ||M||_1 so far, and column sums of |M| not yet complete
    for rows, (n_lo, n_b), probe in zip(levels, blocks.widths, blocks.probe):
        stack = rows.shape[:-2]
        # a column of block b sums |M| over levels b - 1, b and b + 1, in that order
        sums = np.abs(rows).sum(axis=-2)
        if n_lo:
            done = (partial + sums[..., :n_lo]).max(axis=-1)
            norm = done if norm is None else np.maximum(norm, done)
        partial = sums[..., n_lo:n_lo + n_b] if upper is None else upper + sums[..., n_lo:n_lo + n_b]
        upper = sums[..., n_lo + n_b:-1]
        work = np.empty(stack + (n_b, rows.shape[-1] - n_lo + 1))  # [S_b | C_b | rhs | probe]
        work[..., -1:] = probe
        if n_lo:
            update = rows[..., :n_lo] @ solved[-1]
            np.subtract(rows[..., n_lo:n_lo + n_b], update[..., :n_b], out=work[..., :n_b])
            work[..., n_b:-2] = rows[..., n_lo + n_b:-1]
            np.subtract(rows[..., -1:], update[..., n_b:-1], out=work[..., -2:-1])
            work[..., -1:] -= update[..., -1:]
        else:
            work[..., :-1] = rows
        solved.append(np.linalg.solve(work[..., :n_b], work[..., n_b:]))  # [G_b | g_b | probe]
    norm = np.maximum(norm, partial.max(axis=-1))
    x = np.empty(stack + (4 * n * n,))
    x[..., 0] = 1.0
    y = np.zeros(stack + (0, 2))
    probe_norm = np.zeros(stack)
    for idx, level in zip(reversed(blocks.index), reversed(solved)):
        y = level[..., -2:] - level[..., :-2] @ y
        x[..., idx] = -y[..., 0]
        probe_norm += np.abs(y[..., 1]).sum(axis=-1)
    vouched = norm * probe_norm / blocks.probe_norm <= 1.0 / _KERNEL_RTOL
    x /= x[..., :2 * n].sum(axis=-1, keepdims=True)
    return x, vouched


def _steady_stack(rows: np.ndarray, liouvillian, n: int) -> list:
    """Per level-row vector of a stack of static generators with N = ``n``
    (``_chunk_rows``), its steady state and residual max|L x|, as
    (DensityMatrix, float), or the exception that decides it.

    One stacked ``_blocked_kernel`` serves the stack, or each point alone
    where a block is singular. Each residual comes from ``_residuals``, as
    ``Liouvillian.residual`` takes it. A point with a nonzero outside the
    level rows, or one the elimination does not vouch for or whose residual
    fails, is solved by ``_kernel_state`` from the dense L of its
    Liouvillian ``liouvillian(i)``, the one place a D x D generator is
    formed; whatever that raises is the point's result. One stacked
    ``_density_errors`` pass gives each state its verdict."""
    k = len(rows)
    try:
        x, vouched = _blocked_kernel(_levels(rows, n), n)
    except np.linalg.LinAlgError:
        x, vouched = np.zeros((k, 4 * n * n)), np.zeros(k, dtype=bool)
        for i in range(k):
            try:
                x[i:i + 1], vouched[i:i + 1] = _blocked_kernel(_levels(rows[i:i + 1], n), n)
            except np.linalg.LinAlgError:
                pass
    ok = vouched & _in_band(rows, n)
    residual = np.full(k, np.inf)
    residual[ok] = _residuals(rows, x, n) if ok.all() else _residuals(rows[ok], x[ok], n)
    results = [None] * k
    for i in np.flatnonzero(~(residual <= _RESIDUAL_TOL)):
        try:
            liouv = liouvillian(i)
            x[i] = _kernel_state(liouv.real, 2 * n)
            residual[i] = liouv.residual(_density(x[i]))
        except Exception as exc:  # the point's result; the rest of the stack goes on
            results[i] = exc
    solved = [i for i, result in enumerate(results) if result is None]
    rhos = _density(x[solved])
    space = HilbertSpace(n)
    for i, rho, error in zip(solved, rhos, _density_errors(rhos)):
        results[i] = error or (DensityMatrix(rho, space), float(residual[i]))
    return results


def steady_state(liouv: Liouvillian) -> DensityMatrix:
    """Unique steady state from the Liouvillian kernel on the composite
    qubit(x)magnon space of dimension 2N: ``_steady_stack`` on a stack of
    this one generator, whose exception, if it has one, is raised here."""
    d = liouv.hilbert_dim
    if d % 2:
        raise ValueError(f"odd dimension {d} cannot be a composite space")
    (result,) = _steady_stack(liouv._rows, lambda i: liouv, d // 2)
    if isinstance(result, Exception):
        raise result
    rho, residual = result
    liouv._solved = rho.matrix.tobytes(), residual
    return rho


def _chunk_entries(params: list) -> list:
    """``_stacked_weights`` of the static Liouvillians of points of one space,
    from one ``model._h_eff_stack`` and one K stack per channel set, with
    the bits of each ``build_liouvillian(build_h_eff(p), collapse_channels(p))``."""
    h = _h_eff_stack(params)
    groups = []
    for heated in dict.fromkeys(p.m_th > 0.0 for p in params):
        members = [i for i, p in enumerate(params) if (p.m_th > 0.0) == heated]
        channels = _channel_stack([params[i] for i in members])
        groups += [([members[i] for i in sub], layout, weights) for sub, layout, weights
                   in _stacked_weights(-1j * _nonhermitian(h[members], channels), channels)]
    return groups


def steady_states(params) -> list:
    """Steady states of a chunk of static problems of one truncation N: per
    point of ``params``, its (DensityMatrix, residual max|L x|) or the
    exception ``steady_state`` would raise for it, with the same bits: one
    ``_steady_stack`` of the ``_chunk_rows`` of the ``_chunk_entries``. A
    point forms its Liouvillian only where it needs the dense fallback."""
    params = list(params)
    if not params:
        return []
    n = params[0].space.fock_dim
    if any(p.space.fock_dim != n for p in params):
        raise ValueError("steady_states needs one truncation for the whole chunk")
    groups = _chunk_entries(params)

    def liouvillian(i: int) -> Liouvillian:
        for members, layout, weights in groups:
            if i in members:
                return Liouvillian(layout=layout, weight=weights[members.index(i)])

    return _steady_stack(_chunk_rows(groups, len(params), n), liouvillian, n)


def _coupling_parts(a: np.ndarray) -> tuple[Liouvillian, Liouvillian]:
    """The Liouvillians L_c, L_s of the longitudinal term
    A e^{-iwt} + A' e^{iwt} = (A + A') cos(wt) + i(A' - A) sin(wt)."""
    return tuple(build_liouvillian(x, []) for x in (a + dagger(a), 1j * (dagger(a) - a)))


def _periodic_parts(p: SystemParams):
    """Static Liouvillian L0 and the parts L_c, L_s of the longitudinal coupling,
    L(t) = L0 + cos(wt) L_c + sin(wt) L_s, with A = g_rp sigma+ sigma- m."""
    liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
    return (liouv, *_coupling_parts(p.g_rp * _longitudinal_operator(p.space)), p.omega_drive)


@functools.lru_cache(maxsize=_SPACE_CACHE_SIZE)
def _unit_coupling(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinates S that L+ = (L_c - i L_s)/2 touches (its row or column
    support), the rest T, and L+ on S x S at g_rp = 1, read-only, once per
    space. L+ at g_rp is g_rp times it, bit for bit: each entry of L_c and L_s
    is one weight or the sum of two of equal magnitude, which scale exactly."""
    lc, ls = (x.real for x in _coupling_parts(_longitudinal_operator(space)))
    nonzero = (lc != 0.0) | (ls != 0.0)
    on = nonzero.any(axis=0) | nonzero.any(axis=1)
    s = np.flatnonzero(on)
    ss = np.ix_(s, s)
    return _read_only(s, np.flatnonzero(~on), (lc[ss] - 1j * ls[ss]) / 2.0)


class _Harmonics(NamedTuple):
    """The harmonic system of L(t) = L0 + e^{iwt} L+ + e^{-iwt} L-, with
    L+ = (L_c - i L_s)/2 and L- = conj(L+), split into the coordinates that L+
    touches (S: its row or column support) and the rest (T)."""

    l0: np.ndarray  # (D, D) real
    omega: float
    touched: np.ndarray  # the coordinates S
    l0_ss: np.ndarray
    l0_st: np.ndarray
    l0_ts: np.ndarray
    l0_tt: np.ndarray
    l_plus: np.ndarray  # L+ on S x S, complex; L+ is zero outside it


def _harmonic_system(p: SystemParams) -> _Harmonics:
    l0 = build_liouvillian(build_h_eff(p), collapse_channels(p)).real
    s, t, unit = _unit_coupling(p.space)
    return _Harmonics(l0, p.omega_drive, s, l0[np.ix_(s, s)], l0[np.ix_(s, t)], l0[np.ix_(t, s)],
                      l0[np.ix_(t, t)], p.g_rp * unit)


def _truncated_harmonics(system: _Harmonics, harmonics: int):
    """Period average x0 of the periodic steady state with the harmonics above
    K = ``harmonics`` set to zero, and the residual that truncation leaves.

    The harmonics x_k of x(t) = sum x_k e^{ikwt} obey
    (L0 - ikw) x_k + L+ x_{k-1} + L- x_{k+1} = 0, and x_{-k} = conj(x_k). With
    S_{K+1} = 0 and S_k = -(L0 - ikw + L- S_{k+1})^-1 L+ for k = K, ..., 1
    (Risken, The Fokker-Planck Equation, ch. 9), x_k = S_k x_{k-1}, and x0
    spans the kernel of the real G = L0 + 2 Re(L- S_1), solved by
    ``_kernel_state``. L+ and L- act on S alone, so only the S x S block of
    each S_k is needed: with M_k = L0 - ikw + L- S_{k+1}, whose T rows and
    columns are those of L0 - ikw, it is -C_k^-1 L+ for the Schur complement
    C_k = M_SS - M_ST M_TT^-1 M_TS.

    The truncated harmonics satisfy every equation of the untruncated system
    but the one of harmonic K + 1, where the residual is L+ x_K; its max-norm
    is returned.
    """
    s = system.touched
    l_plus = system.l_plus
    l_minus = l_plus.conj()
    shifts = 1j * system.omega * np.arange(harmonics, 0, -1)
    # C_k without L- S_{k+1}, for every level in one stacked solve
    schur = system.l0_ss - system.l0_st @ np.linalg.solve(
        system.l0_tt - shifts[:, None, None] * np.eye(system.l0_tt.shape[0]), system.l0_ts)
    diag = np.arange(s.size)
    schur[:, diag, diag] -= shifts[:, None]
    coupling = np.zeros(l_plus.shape)  # L- S_{k+1} on S x S
    levels = []
    for level_schur in schur:
        level_schur += coupling
        levels.append(-np.linalg.solve(level_schur, l_plus))
        coupling = l_minus @ levels[-1]
    gen = system.l0.copy()
    gen[np.ix_(s, s)] += 2.0 * coupling.real
    x = _kernel_state(gen, math.isqrt(gen.shape[0]))
    top = x[s]
    for level in reversed(levels):
        top = level @ top
    return x, float(np.abs(l_plus @ top).max())


def _harmonic_state(p: SystemParams) -> np.ndarray:
    """Period-averaged state of the longitudinally driven generator, from the
    harmonic recursion truncated at the first K of N - 1, 2(N - 1), ...
    (doubling, capped at ``_MAX_HARMONICS``) whose truncation residual is at
    most ``_RESIDUAL_TOL``, the bar every steady state meets. The coupling
    sigma+ sigma- m moves the state one rung of the N-level magnon ladder per
    harmonic; at the paper's drive frequency the residual falls below the bar
    once K = N - 1 harmonics reach the top rung, and a slower drive needs
    more. SteadyStateError when no K up to the cap passes or a level is
    singular."""
    system = _harmonic_system(p)
    harmonics = p.space.fock_dim - 1
    while True:
        try:
            x, residual = _truncated_harmonics(system, harmonics)
        except np.linalg.LinAlgError as exc:
            raise SteadyStateError(f"singular harmonic level at truncation {harmonics}") from exc
        if residual <= _RESIDUAL_TOL:
            return x
        if harmonics >= _MAX_HARMONICS:
            raise SteadyStateError(
                f"harmonic truncation residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e} "
                f"at {harmonics} harmonics")
        harmonics = min(2 * harmonics, _MAX_HARMONICS)


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


def _rk4_steps(gen, v: np.ndarray, t0: float, t1: float, n: int):
    """Yield the state after each of ``n`` equal RK4 steps of the linear
    equation v' = gen(t) v from t0 to t1; ``v`` may be a state vector or a
    matrix of them, and is left unchanged.

    ``gen`` is called once per distinct stage time: t0, then t + h/2 and t + h
    per step, the last being the next step's t.
    """
    h = (t1 - t0) / n
    t = t0
    g_start = gen(t)
    for _ in range(n):
        g_mid, g_end = gen(t + h / 2.0), gen(t + h)
        k1 = g_start @ v
        k2 = g_mid @ (v + (h / 2.0) * k1)
        k3 = g_mid @ (v + (h / 2.0) * k2)
        k4 = g_end @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g_start = g_end
        t += h
        yield v


def _one_period_maps(p: SystemParams, steps_per_period: int = 64):
    """One-period propagator P, period-average map A and drive period T of the
    longitudinally driven generator in Hermitian coordinates, from one RK4
    pass of step h on the matrix equation V' = L(t) V with V(0) = I.

    A is the mean of the propagators at the RK4 samples t = h, 2h, ..., T, so
    A x is the period average of the trajectory that starts from x at drive
    phase 0. A period takes ``steps_per_period`` steps (an integer of at least
    1, not a bool, else ValueError), or more where a step would exceed
    ``_max_step``.
    """
    if (isinstance(steps_per_period, bool) or not isinstance(steps_per_period, numbers.Integral)
            or steps_per_period < 1):
        raise ValueError(
            f"steps_per_period must be an integer of at least 1, got {steps_per_period!r}")
    liouv, lc, ls, omega = _periodic_parts(p)
    period = 2.0 * math.pi / omega
    n_sub = max(steps_per_period, math.ceil(period / _max_step(p, build_h_eff(p))))
    l0, lc, ls = liouv.real, lc.real, ls.real

    def gen(t):
        return l0 + math.cos(omega * t) * lc + math.sin(omega * t) * ls

    avg = np.zeros_like(l0)
    for prop in _rk4_steps(gen, np.eye(liouv.dim), 0.0, period, n_sub):
        avg += prop
    return prop, avg / n_sub, period


def evolve(rho0: DensityMatrix, p: SystemParams, t_grid) -> Trajectory:
    """States of the master equation on a uniform, finite ``t_grid`` starting
    at 0, each a power of one RK4 step of the static Liouvillian applied to
    ``rho0``: each grid interval takes ceil(spacing / ``Trajectory.step``)
    equal steps, with ``step`` the ``_max_step`` bound. The longitudinal
    coupling makes the generator time-dependent, so g_rp > 0 is a ValueError.
    The samples are checked as density matrices in one stacked call, which
    raises the ValueError of the first one that fails, a trace drift beyond
    ``hilbert._TRACE_TOL`` included.
    """
    if p.g_rp > 0.0:
        raise ValueError(f"evolve requires g_rp = 0 (a static generator), got {p.g_rp}")
    t_grid = np.asarray(t_grid, dtype=float)
    gaps = np.diff(t_grid)
    # the relative 1e-9 admits the rounding of np.linspace grids
    if (not np.isfinite(t_grid).all() or t_grid[0] != 0.0 or gaps.size == 0
            or gaps.min() <= 0.0 or gaps.max() - gaps.min() > 1e-9 * gaps.max()):
        raise ValueError("t_grid must start at 0 and increase in equal steps")
    rho0.validate()
    dt = t_grid[-1] / gaps.size
    h = build_h_eff(p)
    liouv = build_liouvillian(h, collapse_channels(p))
    step = _max_step(p, h)
    n = max(1, math.ceil(dt / step))
    one_step = next(_rk4_steps(lambda t: liouv.real, np.eye(liouv.dim), 0.0, dt / n, 1))
    interval = np.linalg.matrix_power(one_step, n)

    xs = np.empty((t_grid.size, liouv.dim))
    xs[0] = _coords(rho0.matrix)
    for k in range(1, t_grid.size):
        np.matmul(interval, xs[k - 1], out=xs[k])
    space = p.space
    n, d = space.fock_dim, space.total_dim
    rhos = _density(xs)
    _check_densities(rhos)
    states = [DensityMatrix(rho, space) for rho in rhos]
    # the diagonal of rho is the first d coordinates, qubit g then e
    return Trajectory(times=t_grid, states=states, params=p, step=step,
                      trace_drift=float(np.abs(xs[:, :d].sum(axis=1) - 1.0).max()),
                      populations=xs[:, :n] + xs[:, n:d])


def steady_state_periodic(p: SystemParams, steps_per_period: int | None = None) -> DensityMatrix:
    """Period-averaged steady state under the time-dependent longitudinal coupling.

    By default the period average is the zeroth Fourier harmonic of the
    periodic steady state, from the matrix continued fraction of
    ``_harmonic_state`` with its harmonic count chosen by the truncation
    residual; no transient and no time step enter.

    An integer ``steps_per_period`` instead runs the RK4 fixed point, kept as
    an independent reference: with the maps of ``_one_period_maps``, the state
    at drive phase 0 is the fixed point P x = x, found by ``_kernel_state`` as
    the kernel of G = (P - I)/T; dividing by the period T makes G approximate
    the period-averaged Liouvillian, so the kernel and residual tolerances
    mean what they mean for the static problem. The result is its period
    average A x.
    """
    if p.g_rp <= 0.0:
        raise ValueError(f"periodic steady state requires g_rp > 0, got {p.g_rp}")
    if min(p.kappa_m, p.kappa_q) <= 0.0:
        raise ValueError("periodic steady state requires dissipation")

    d = p.space.total_dim
    if steps_per_period is None:
        x = _harmonic_state(p)
    else:
        prop, avg, period = _one_period_maps(p, steps_per_period)
        x = avg @ _kernel_state((prop - np.eye(prop.shape[0])) / period, d)
    return DensityMatrix(_density(x / x[:d].sum()), p.space).validate()
