"""The benchmark's workloads: seeded sweep configs drawn from built-in figures.

Each workload copies one built-in figure's fixed parameters and options and
draws its sweep-axis values, with a seeded generator, from inside the range
that figure's own axis covers. The program sees only the generated config
file (``sweep.axisK.values`` syntax).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
# Seed that a change claiming a gain reruns on, untouched while it was written.
CONFIRM_SEED = 7


@dataclass(frozen=True)
class AxisSpec:
    path: str
    lo: float
    hi: float
    num: int


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    figure: str
    mode: str
    fock_dim: int
    params: dict
    axes: tuple
    options: dict
    why: str


@dataclass(frozen=True)
class Workload:
    """A workload instantiated for one seed."""

    spec: WorkloadSpec
    seed: int
    axes: tuple             # ((path, (values...)), ...) in config order

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def grid_points(self) -> list[dict]:
        """User-unit parameter dicts in the program's grid order (first axis
        outermost)."""
        points = [dict(self.spec.params)]
        for path, values in self.axes:
            key = path.split(".", 1)[1]
            points = [{**p, key: v} for p in points for v in values]
        return points

    def config_text(self) -> str:
        lines = [f"scenario = bench_{self.name}",
                 f"mode = {self.spec.mode}",
                 f"fock_dim = {self.spec.fock_dim}"]
        lines += [f"params.{k} = {v!r}" for k, v in self.spec.params.items()]
        lines += [f"option.{k} = {v}" for k, v in self.spec.options.items()]
        for i, (path, values) in enumerate(self.axes, start=1):
            lines.append(f"sweep.axis{i}.path = {path}")
            lines.append(f"sweep.axis{i}.values = " + " ".join(repr(v) for v in values))
        return "\n".join(lines) + "\n"


SPECS = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="steady_grid", figure="fig6a", mode="steady", fock_dim=6,
            params={"Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(AxisSpec("params.J_over_2pi_MHz", 5.0, 40.0, 15),
                  AxisSpec("params.kappa_over_2pi_MHz", 0.1, 1.2, 15)),
            options={},
            why="many small static solves, L of 0.33 MB fits in L2; "
                "the steady solve and the Liouvillian build dominate"),
        WorkloadSpec(
            name="steady_large_n", figure="fig7b", mode="steady", fock_dim=12,
            params={"J_over_2pi_MHz": 35.0, "Omega_m_over_2pi_MHz": 0.033,
                    "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0},
            axes=(AxisSpec("params.kappa_over_2pi_MHz", 0.2, 1.5, 12),),
            options={},
            why="few large static solves at N=12, L of 5.3 MB spills out of L2; "
                "same layer as steady_grid, other size"),
        WorkloadSpec(
            name="periodic_sweep", figure="fig9a", mode="periodic", fock_dim=6,
            params={"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
                    "Omega_m_over_2pi_MHz": 0.033, "Delta_plus_over_J": 1.0,
                    "drive_freq_over_2pi_MHz": 1500.0},
            axes=(AxisSpec("params.g_rp_over_J", 0.1, 0.3, 3),
                  AxisSpec("params.Omega_q_over_Omega_m", 2.5, 4.0, 11)),
            options={},
            why="periodic (longitudinal) steady states only; "
                "the static solve is not used"),
        WorkloadSpec(
            name="time_series", figure="fig2a", mode="time_series", fock_dim=6,
            params={"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
                    "Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 1.0,
                    "Delta_minus_over_Delta_plus": 0.0},
            axes=(AxisSpec("params.Delta_plus_over_J", 0.7, 1.3, 5),),
            options={"kappa_t_max": 30.0, "time_points": 201,
                     "initial_state": "vacuum"},
            why="RK4 time evolution with 201 samples per trajectory; "
                "no steady solve"),
    )
}


def _draw(rng: random.Random, axis: AxisSpec) -> tuple:
    """``axis.num`` sorted values in [lo, hi] to 6 significant digits, one
    uniform draw in each of ``num`` equal bins. Binning keeps the work of a
    sweep nearly the same from seed to seed where the cost of a point depends
    on its value (the RK4 step of a time series shrinks as the detuning
    grows)."""
    width = (axis.hi - axis.lo) / axis.num
    values: list = []
    for i in range(axis.num):
        v = None
        while v is None or (values and v <= values[-1]):
            v = float(f"{rng.uniform(axis.lo + i * width, axis.lo + (i + 1) * width):.6g}")
        values.append(v)
    return tuple(values)


def make(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """The workload ``name`` with axis values drawn from ``seed``."""
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    return Workload(spec=spec, seed=seed,
                    axes=tuple((ax.path, _draw(rng, ax)) for ax in spec.axes))
