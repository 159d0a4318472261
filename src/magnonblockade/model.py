"""Hamiltonians and dissipation channels of the driven magnon-transmon system.

Unit convention: every frequency-like quantity is an angular frequency in
rad/us (so nu = omega/2pi is in MHz and times are in us). User-facing MHz
values convert via ``2*pi``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HilbertSpace,
    _read_only,
    dagger,
    embed_magnon,
    embed_qubit,
    fock_annihilation,
    qubit_lowering,
)

__all__ = [
    "SystemParams",
    "build_h_eff",
    "build_h_longitudinal",
    "build_h_nonhermitian",
    "collapse_channels",
    "thermal_occupation",
    "rabi_from_power",
    "power_from_rabi",
    "MHZ",
]

# 1 MHz of ordinary frequency as angular frequency in rad/us
MHZ = 2.0 * math.pi

# CODATA 2018
_HBAR = 1.054571817e-34   # J s
_KB = 1.380649e-23        # J / K

# probe-power conversion constant: Omega = k sqrt(P) with Omega in rad/us
# (equivalently Mrad/s) and P in mW; calibrated so Omega/2pi = 0.1 MHz
# corresponds to 0.037 uW.
_POWER_K = 103.0


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the coupled magnon-qubit system, all in rad/us.

    ``omega_drive`` is the shared frequency of the magnon drive and the qubit
    probe; detunings derive from it.
    """

    omega_q: float
    omega_m: float
    omega_drive: float
    J: float
    Omega_m: float
    Omega_q: float
    kappa_m: float
    kappa_q: float
    g_rp: float = 0.0
    m_th: float = 0.0
    fock_dim: int = 6

    def __post_init__(self):
        for name in ("omega_q", "omega_m", "omega_drive", "J", "Omega_m", "Omega_q",
                     "kappa_m", "kappa_q", "g_rp", "m_th"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("Omega_m", "Omega_q", "kappa_m", "kappa_q", "g_rp", "m_th"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fock_dim < 3:
            raise ValueError(f"fock_dim must be >= 3, got {self.fock_dim}")

    @property
    def Delta_q(self) -> float:
        return self.omega_q - self.omega_drive

    @property
    def Delta_m(self) -> float:
        return self.omega_m - self.omega_drive

    @property
    def Delta_plus(self) -> float:
        return (self.Delta_m + self.Delta_q) / 2.0

    @property
    def Delta_minus(self) -> float:
        return (self.Delta_m - self.Delta_q) / 2.0

    @property
    def space(self) -> HilbertSpace:
        return HilbertSpace(self.fock_dim)

    @classmethod
    def from_detunings(cls, J: float, Delta_plus: float, Delta_minus: float = 0.0,
                       Omega_m: float = 0.0, Omega_q: float = 0.0,
                       kappa_m: float = 0.0, kappa_q: float = 0.0,
                       omega_drive: float = 1500.0 * MHZ, g_rp: float = 0.0,
                       m_th: float = 0.0, fock_dim: int = 6) -> "SystemParams":
        """Construct from detunings instead of absolute frequencies (all rad/us)."""
        return cls(
            omega_q=omega_drive + (Delta_plus - Delta_minus),
            omega_m=omega_drive + (Delta_plus + Delta_minus),
            omega_drive=omega_drive,
            J=J, Omega_m=Omega_m, Omega_q=Omega_q,
            kappa_m=kappa_m, kappa_q=kappa_q,
            g_rp=g_rp, m_th=m_th, fock_dim=fock_dim,
        )


_SPACE_CACHE_SIZE = 8  # truncations whose operators are kept; a sweep uses one or two


@functools.lru_cache(maxsize=_SPACE_CACHE_SIZE)
def _mode_operators(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Magnon annihilation m and qubit lowering sigma- on the composite space,
    built once per space and read-only, since every call shares them."""
    return _read_only(embed_magnon(fock_annihilation(space), space),
                      embed_qubit(qubit_lowering(), space))


@functools.lru_cache(maxsize=_SPACE_CACHE_SIZE)
def _hamiltonian_terms(space: HilbertSpace) -> tuple[np.ndarray, ...]:
    """The read-only operators ``build_h_eff`` weighs: sigma+sigma-, m'm,
    m sigma+ + m' sigma-, m' + m and sigma+ + sigma-."""
    m, sm = _mode_operators(space)
    sp = dagger(sm)
    md = dagger(m)
    return _read_only(sp @ sm, md @ m, sp @ m + md @ sm, md + m, sp + sm)


def _longitudinal_operator(space: HilbertSpace) -> np.ndarray:
    """sigma+ sigma- m, the operator the longitudinal coupling multiplies by g_rp e^{-iwt}."""
    m, sm = _mode_operators(space)
    return (dagger(sm) @ sm) @ m


def _h_eff_stack(params: list) -> np.ndarray:
    """The (k, d, d) ``build_h_eff`` of points of one space, term by term in the
    order of the sum (each weight a complex scalar), so each matrix has the
    bits of its point's own."""
    weights = np.array([(p.Delta_plus - p.Delta_minus, p.Delta_plus + p.Delta_minus, p.J,
                         p.Omega_m, p.Omega_q) for p in params], dtype=complex).T[..., None, None]
    terms = _hamiltonian_terms(params[0].space)
    h = weights[0] * terms[0]
    for weight, term in zip(weights[1:], terms[1:]):
        h = h + weight * term
    return h


def build_h_eff(p: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven/probed system.

    H = Delta_q sigma+sigma- + Delta_m m'm + J(m sigma+ + m' sigma-)
        + Omega_m (m' + m) + Omega_q (sigma+ + sigma-),
    embedded on the composite space: ``_h_eff_stack`` of one point. The
    longitudinal coupling is ignored here.
    """
    return _h_eff_stack([p])[0]


def build_h_longitudinal(p: SystemParams, t: float) -> np.ndarray:
    """Rotating-frame Hamiltonian including the longitudinal coupling at time t [us].

    Adds g_rp sigma+sigma- (m e^{-i w t} + m' e^{i w t}) on top of the
    resonant (Delta_minus = 0) Hamiltonian; w is the shared drive frequency.
    """
    if abs(p.Delta_minus) > 1e-9 * max(1.0, abs(p.Delta_plus)):
        raise ValueError(
            f"longitudinal Hamiltonian requires Delta_minus = 0, got {p.Delta_minus}"
        )
    h = build_h_eff(p)
    if p.g_rp == 0.0:
        return h
    a = _longitudinal_operator(p.space)
    phase = np.exp(-1j * p.omega_drive * t)
    return h + p.g_rp * (phase * a + np.conj(phase) * dagger(a))


def _nonhermitian(h: np.ndarray, channels) -> np.ndarray:
    """H - (i/2) sum gamma C'C for channels [(gamma, C), ...], the no-jump part of the
    master equation drho/dt = K rho + rho K' + sum gamma C rho C' with K = -i times it.
    ``h`` may be a (k, d, d) stack whose rates gamma are (k,) arrays."""
    k = h.astype(complex)
    for rate, c in channels:
        k -= (0.5j * np.asarray(rate))[..., None, None] * (dagger(c) @ c)
    return k


def build_h_nonhermitian(p: SystemParams) -> np.ndarray:
    """``_nonhermitian`` of ``build_h_eff(p)`` and ``collapse_channels(p)``, for any rates."""
    return _nonhermitian(build_h_eff(p), collapse_channels(p))


def _channel_stack(params: list) -> list:
    """``collapse_channels`` of points of one space that all have m_th > 0 or
    all m_th = 0, with a (k,) array for each rate."""
    m, sm = _mode_operators(params[0].space)
    kappa_m, m_th, kappa_q = np.array([(p.kappa_m, p.m_th, p.kappa_q) for p in params]).T
    channels = [(kappa_m * (m_th + 1.0), m)]
    if params[0].m_th > 0.0:
        channels.append((kappa_m * m_th, dagger(m)))
    channels.append((kappa_q, sm))
    return channels


def collapse_channels(p: SystemParams) -> list[tuple[float, np.ndarray]]:
    """Dissipation channels [(rate, operator), ...] on the composite space.

    A channel (gamma, C) contributes (gamma/2)(2 C rho C' - C'C rho - rho C'C)
    to drho/dt. Magnon decay carries the thermal enhancement (m_th + 1), and a
    heating channel on m' appears for m_th > 0.
    """
    return [(float(rate[0]), c) for rate, c in _channel_stack([p])]


def thermal_occupation(omega_m: float, temperature_K: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar w / kB T) - 1).

    ``omega_m`` is angular in rad/us; ``temperature_K`` in kelvin.
    """
    if temperature_K <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_K}")
    x = _HBAR * (omega_m * 1e6) / (_KB * temperature_K)
    return 1.0 / math.expm1(x)


def rabi_from_power(power_mW: float) -> float:
    """Probe Rabi frequency [rad/us] from drive power [mW], Omega = k sqrt(P)."""
    if power_mW < 0.0:
        raise ValueError(f"power must be >= 0, got {power_mW}")
    return _POWER_K * math.sqrt(power_mW)


def power_from_rabi(omega: float) -> float:
    """Inverse of rabi_from_power: drive power [mW] producing Rabi frequency omega."""
    if omega < 0.0:
        raise ValueError(f"Rabi frequency must be >= 0, got {omega}")
    return (omega / _POWER_K) ** 2
