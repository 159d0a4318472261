"""Closed-form weak-driving steady-state model and the optimal-ratio analysis.

The truncated pure-state ansatz |psi> = C_g0|g0> + C_e0|e0> + C_g1|g1>
+ C_e1|e1> + C_g2|g2> evolved by the non-Hermitian Hamiltonian gives linear
steady-state equations for the amplitudes. At Delta_plus = J they admit the
closed forms implemented here, and the resulting correlation reduces to a
rational function of l = Omega_q/Omega_m - 1 and r = kappa/J whose minima are
roots of a quartic solved both in radicals (Ferrari, via the resolvent cubic)
and numerically (companion matrix).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, build_h_nonhermitian

__all__ = [
    "AmplitudeSet",
    "RootPair",
    "steady_amplitudes_closed",
    "steady_amplitudes_general",
    "g2_analytic",
    "g2_dimensionless",
    "quartic_coefficients",
    "derivative_roots",
    "derivative_roots_numeric",
    "second_derivative",
    "optimal_drive_ratios",
    "RadicalRootWarning",
]


class RadicalRootWarning(UserWarning):
    """Radical quartic roots failed verification; numeric roots were used."""


@dataclass(frozen=True)
class AmplitudeSet:
    """Steady-state amplitudes of the five-state ansatz (C_g0 fixed to 1)."""

    c_g0: complex
    c_e0: complex
    c_g1: complex
    c_e1: complex
    c_g2: complex


@dataclass(frozen=True)
class RootPair:
    """The two drive-ratio extrema l1 (global minimum, near 2) and l2 (local
    minimum, near 0) of the dimensionless correlation at fixed r = kappa/J."""

    l1: float
    l2: float
    r: float


def steady_amplitudes_closed(J: float, kappa: float, Omega_m: float,
                             Omega_q: float) -> AmplitudeSet:
    """Closed-form steady amplitudes at Delta_plus = J.

    Division by kappa makes kappa = 0 invalid.
    """
    if kappa <= 0.0:
        raise ValueError(f"closed-form amplitudes require kappa > 0, got {kappa}")
    den1 = kappa**2 + 4j * J * kappa
    den2 = (kappa**2 - 2.0 * J**2 + 4j * J * kappa) * den1
    a = 2.0 * J**2 * (3.0 * Omega_m**2 + Omega_q**2 - 4.0 * Omega_m * Omega_q) \
        - Omega_m**2 * kappa**2
    b = 4.0 * J * kappa * (Omega_m * Omega_q - Omega_m**2)
    c = 2.0 * J**2 * (2.0 * Omega_m**2 + Omega_q**2 - 3.0 * Omega_m * Omega_q) \
        + Omega_m * Omega_q * kappa**2
    d = J * kappa * (4.0 * Omega_m * Omega_q - 2.0 * Omega_m**2 - Omega_q**2)
    return AmplitudeSet(
        c_g0=1.0 + 0.0j,
        c_e0=-(4.0 * J * (Omega_m - Omega_q) + 2j * Omega_q * kappa) / den1,
        c_g1=-(4.0 * J * (Omega_q - Omega_m) + 2j * Omega_m * kappa) / den1,
        c_g2=2.0 * math.sqrt(2.0) * (a + 1j * b) / den2,
        c_e1=-4.0 * (c + 1j * d) / den2,
    )


def steady_amplitudes_general(p: SystemParams) -> AmplitudeSet:
    """Steady amplitudes for arbitrary Delta_plus from H_nh psi = 0 with C_g0 = 1, the
    4x4 system of ``build_h_nonhermitian`` on the ansatz states.

    The ansatz assumes resonance (Delta_minus = 0) and a single decay rate
    kappa_m = kappa_q > 0.
    """
    if not math.isclose(p.kappa_m, p.kappa_q, rel_tol=1e-12, abs_tol=0.0) or p.kappa_m <= 0.0:
        raise ValueError("amplitude model requires kappa_m = kappa_q > 0")
    if abs(p.Delta_minus) > 1e-9 * max(1.0, abs(p.Delta_plus)):
        raise ValueError(f"amplitude model requires Delta_minus = 0, got {p.Delta_minus}")
    n = p.fock_dim
    ansatz = [0, n, 1, n + 1, 2]  # |g0>, |e0>, |g1>, |e1>, |g2> at index q*N + n
    excitations = np.array([0, 1, 1, 2, 2])
    h = build_h_nonhermitian(p)[np.ix_(ansatz, ansatz)]
    # weak drive: a state is fed only by states with no more excitations
    h = np.where(excitations <= excitations[:, None], h, 0.0)
    try:
        sol = np.linalg.solve(h[1:, 1:], -h[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"amplitude system is singular: {exc}") from exc
    return AmplitudeSet(c_g0=1.0 + 0.0j, c_e0=sol[0], c_g1=sol[1],
                        c_e1=sol[2], c_g2=sol[3])


def g2_analytic(J: float, kappa: float, Omega_m: float,
                Omega_q: float) -> tuple[float, float]:
    """Analytic correlation from the closed-form amplitudes.

    Returns (full, approx) with
      full   = 2|C_g2|^2 / (|C_g1|^2 + |C_e1|^2 + 2|C_g2|^2)^2,
      approx = 2|C_g2|^2 / |C_g1|^4,
    the approximation being valid when |C_g1| dominates. The approx value is
    cross-checked against its explicit rational form.
    """
    amps = steady_amplitudes_closed(J, kappa, Omega_m, Omega_q)
    g1_sq = abs(amps.c_g1) ** 2
    e1_sq = abs(amps.c_e1) ** 2
    g2_sq = abs(amps.c_g2) ** 2
    full = 2.0 * g2_sq / (g1_sq + e1_sq + 2.0 * g2_sq) ** 2
    approx = 2.0 * g2_sq / g1_sq**2

    a = 2.0 * J**2 * (3.0 * Omega_m**2 + Omega_q**2 - 4.0 * Omega_m * Omega_q) \
        - Omega_m**2 * kappa**2
    b = 4.0 * J * kappa * (Omega_m * Omega_q - Omega_m**2)
    explicit = (a**2 + b**2) * (kappa**4 + 16.0 * J**2 * kappa**2) / (
        ((2.0 * J**2 - kappa**2) ** 2 + 16.0 * J**2 * kappa**2)
        * (4.0 * J**2 * (Omega_q - Omega_m) ** 2 + Omega_m**2 * kappa**2) ** 2
    )
    if not math.isclose(explicit, approx, rel_tol=1e-10):
        raise ArithmeticError(f"explicit form {explicit} deviates from amplitude form {approx}")
    return full, approx


def g2_dimensionless(l: float | np.ndarray, r: float | np.ndarray) -> float | np.ndarray:
    """Correlation at Delta_plus = J as a function of l = Omega_q/Omega_m - 1
    and r = kappa/J, elementwise over scalars or broadcastable arrays."""
    if np.any(np.asarray(r) <= 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if np.any(np.asarray(l) <= -1.0):
        raise ValueError(f"l must exceed -1, got {l}")
    num = 4.0 * (l - 2.0) ** 2 * l**2 + 4.0 * r**2 * (3.0 * l + 2.0) * l + r**4
    den = (1.0 + 4.0 * (1.0 - r**2) / (r**4 + 16.0 * r**2)) * (4.0 * l**2 + r**2) ** 2
    return num / den


def quartic_coefficients(r: float) -> tuple[float, float, float, float]:
    """Coefficients (b, c, d, f) of the stationarity quartic
    l^4 + b l^3 + c l^2 + d l + f = 0 for d g2/dl = 0."""
    return (
        -5.0 * r**2 / 4.0 - 2.0,
        -9.0 * r**2 / 4.0,
        r**4 / 8.0 + r**2 / 2.0,
        r**4 / 8.0,
    )


def second_derivative(l: float, r: float) -> float:
    """Closed-form d^2 g2 / dl^2 at fixed r.

    Numerator coefficients follow from differentiating the stationarity
    quartic: b' = -3b, c' = -4c + r^2, d' = 3 b r^2/4 - 5d, f' = c r^2/2 - 6f,
    g' = d r^2/4.
    """
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    b, c, d, f = quartic_coefficients(r)
    bp = -3.0 * b
    cp = -4.0 * c + r**2
    dp = 3.0 * b * r**2 / 4.0 - 5.0 * d
    fp = c * r**2 / 2.0 - 6.0 * f
    gp = d * r**2 / 4.0
    num = -2.0 * l**5 + bp * l**4 + cp * l**3 + dp * l**2 + fp * l + gp
    den = (1.0 + 4.0 * (1.0 - r**2) / (r**4 + 16.0 * r**2)) * (l**2 + r**2 / 4.0) ** 4
    return num / den


def _quartic_value(l: float, r: float) -> float:
    b, c, d, f = quartic_coefficients(r)
    return ((l + b) * l + c) * l**2 + d * l + f


def _select_root_pair(roots, r: float) -> tuple[float, float]:
    """l1 = largest real root (global minimum); l2 = the other root with
    positive curvature (the local minimum near l = 0)."""
    real = sorted(x.real for x in roots if abs(x.imag) < 1e-9)
    if len(real) < 2:
        raise ValueError(f"expected at least two real quartic roots at r={r}, got {real}")
    l1 = real[-1]
    minima = [x for x in real[:-1] if second_derivative(x, r) > 0.0]
    if not minima:
        raise ValueError(f"no local-minimum root found near l=0 at r={r}")
    l2 = min(minima, key=abs)
    return l1, l2


def derivative_roots_numeric(r: float) -> RootPair:
    """Companion-matrix roots of the stationarity quartic (numeric oracle)."""
    _check_r(r)
    b, c, d, f = quartic_coefficients(r)
    l1, l2 = _select_root_pair(np.roots([1.0, b, c, d, f]), r)
    return RootPair(l1=l1, l2=l2, r=r)


def _check_r(r: float):
    if not 0.0 < r <= 0.25:
        raise ValueError(f"r must lie in (0, 0.25], got {r}")


def _radical_root_candidates(r: float):
    """Candidate (l1, l2, residual) triples from the Ferrari factorization.

    The resolvent-cubic root y is assembled from the printed radical
    combination; every square-root sign and cube-root branch is scanned
    because the expression squares a signed quantity before taking roots.
    """
    b, c, d, f = quartic_coefficients(r)
    c1 = -(4.0 * f - b * d)
    d1 = -(b * b - 4.0 * c) * f - d * d
    h1 = (-36.0 * c * c1 + 8.0 * c**3 - 108.0 * d1) ** 2
    h2 = (12.0 * c1 - 4.0 * c * c) ** 3
    w_minus = (-1.0 - math.sqrt(3.0) * 1j) / 12.0
    w_plus = (-1.0 + math.sqrt(3.0) * 1j) / 12.0
    phase = cmath.exp(2j * math.pi / 3.0)

    candidates = []
    seen_y = []
    for s1 in (1.0, -1.0):
        sq1 = s1 * cmath.sqrt(h1)
        for s2 in (1.0, -1.0):
            sq2 = s2 * cmath.sqrt(h1 + h2)
            u3, v3 = sq1 + sq2, sq1 - sq2
            for k1 in range(3):
                u = u3 ** (1.0 / 3.0) * phase**k1
                for k2 in range(3):
                    v = v3 ** (1.0 / 3.0) * phase**k2
                    y = c / 3.0 + w_minus * u + w_plus * v
                    if abs(y.imag) > 1e-9 * max(1.0, abs(y.real)):
                        continue
                    y = y.real
                    if any(abs(y - prev) < 1e-12 for prev in seen_y):
                        continue
                    seen_y.append(y)
                    pair = _ferrari_pair(y, b, c, d, f)
                    if pair is None:
                        continue
                    l1, l2 = pair
                    if second_derivative(l2, r) <= 0.0:
                        continue
                    res = max(abs(_quartic_value(l1, r)), abs(_quartic_value(l2, r)))
                    candidates.append((l1, l2, res))
    return candidates


def _ferrari_pair(y: float, b: float, c: float, d: float, f: float):
    """Roots of the quadratic factor containing l1 for resolvent root y.

    The quartic splits as (l^2 + b l/2 + y/2)^2 - alpha^2 (l - l')^2 with
    alpha^2 = b^2/4 + y - c; keeping alpha (instead of the printed alpha = 1
    shorthand, exact only as r -> 0) makes the factorization exact.
    """
    alpha_sq = b * b / 4.0 + y - c
    if alpha_sq < 0.0:
        return None
    alpha = math.sqrt(alpha_sq)
    denom = b * b - 4.0 * c + 4.0 * y
    if denom == 0.0:
        return None
    l_prime = (2.0 * d - b * y) / denom
    disc = (b / 2.0 - alpha) ** 2 - 4.0 * (y / 2.0 + alpha * l_prime)
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    l1 = ((alpha - b / 2.0) + root) / 2.0
    l2 = ((alpha - b / 2.0) - root) / 2.0
    return l1, l2


# the largest accepted |quartic(l)| of a radical root
_ROOT_RESIDUAL_TOL = 1e-8


def derivative_roots(r: float) -> RootPair:
    """Stationary points l1, l2 of the dimensionless correlation in radicals.

    Both roots are verified by back-substitution into the quartic; on failure
    the companion-matrix roots are returned instead and a RadicalRootWarning
    reports the divergence between the two methods.
    """
    _check_r(r)
    candidates = _radical_root_candidates(r)
    if candidates:
        l1, l2, res = min(candidates, key=lambda cand: cand[2])
        if res <= _ROOT_RESIDUAL_TOL:
            return RootPair(l1=l1, l2=l2, r=r)
        numeric = derivative_roots_numeric(r)
        warnings.warn(
            f"radical roots at r={r} have residual {res:.3e} > {_ROOT_RESIDUAL_TOL:.0e}; "
            f"radical ({l1:.12g}, {l2:.12g}) vs companion "
            f"({numeric.l1:.12g}, {numeric.l2:.12g}); using companion roots",
            RadicalRootWarning,
        )
        return numeric
    warnings.warn(
        f"no valid radical root candidate at r={r}; using companion roots",
        RadicalRootWarning,
    )
    return derivative_roots_numeric(r)


def optimal_drive_ratios(J: float, kappa: float) -> tuple[float, float]:
    """Probe-to-drive ratios Omega_q/Omega_m = l + 1 at the two correlation
    minima, from physical couplings."""
    if J <= 0.0:
        raise ValueError(f"J must be positive, got {J}")
    pair = derivative_roots(kappa / J)
    return pair.l1 + 1.0, pair.l2 + 1.0
