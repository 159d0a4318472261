"""Hamiltonians and dissipation channels of the driven magnon-transmon system.

Unit convention: every frequency-like quantity is an angular frequency in
rad/us (so nu = omega/2pi is in MHz and times are in us). User-facing MHz
values convert via ``2*pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import (
    HilbertSpace,
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

    def with_(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


def _mode_operators(space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Magnon annihilation m and qubit lowering sigma- on the composite space."""
    return embed_magnon(fock_annihilation(space), space), embed_qubit(qubit_lowering(), space)


def _longitudinal_operator(space: HilbertSpace) -> np.ndarray:
    """sigma+ sigma- m, the operator the longitudinal coupling multiplies by g_rp e^{-iwt}."""
    m, sm = _mode_operators(space)
    return (dagger(sm) @ sm) @ m


def build_h_eff(p: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven/probed system.

    H = Delta_q sigma+sigma- + Delta_m m'm + J(m sigma+ + m' sigma-)
        + Omega_m (m' + m) + Omega_q (sigma+ + sigma-),
    embedded on the composite space. The longitudinal coupling is ignored here.
    """
    m, sm = _mode_operators(p.space)
    sp = dagger(sm)
    md = dagger(m)
    h = (p.Delta_plus - p.Delta_minus) * (sp @ sm)
    h = h + (p.Delta_plus + p.Delta_minus) * (md @ m)
    h = h + p.J * (sp @ m + md @ sm)
    h = h + p.Omega_m * (md + m)
    h = h + p.Omega_q * (sp + sm)
    return h


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


def build_h_nonhermitian(p: SystemParams) -> np.ndarray:
    """Effective non-Hermitian Hamiltonian H_eff - i kappa (sigma+sigma- + m'm)/2.

    Requires a single decay rate kappa_m = kappa_q.
    """
    if not math.isclose(p.kappa_m, p.kappa_q, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"non-Hermitian model assumes kappa_m = kappa_q, got {p.kappa_m} != {p.kappa_q}"
        )
    m, sm = _mode_operators(p.space)
    number = dagger(sm) @ sm + dagger(m) @ m
    return build_h_eff(p) - 0.5j * p.kappa_m * number


def collapse_channels(p: SystemParams) -> list[tuple[float, np.ndarray]]:
    """Dissipation channels [(rate, operator), ...] on the composite space.

    A channel (gamma, C) contributes (gamma/2)(2 C rho C' - C'C rho - rho C'C)
    to drho/dt. Magnon decay carries the thermal enhancement (m_th + 1), and a
    heating channel on m' appears for m_th > 0.
    """
    m, sm = _mode_operators(p.space)
    channels = [(p.kappa_m * (p.m_th + 1.0), m)]
    if p.m_th > 0.0:
        channels.append((p.kappa_m * p.m_th, dagger(m)))
    channels.append((p.kappa_q, sm))
    return channels


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
