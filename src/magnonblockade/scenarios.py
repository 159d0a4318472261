"""Declarative sweep scenarios: config model, built-in figure datasets,
dispatch to the solvers, CSV/JSONL emission, and truncation-convergence checks.

User-facing parameter values follow the experimental conventions (nu = omega/2pi
in MHz, temperatures in mK, powers in uW); conversion to internal angular
units happens only here.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import derivative_roots, derivative_roots_numeric, g2_analytic, g2_dimensionless
from .dynamics import build_liouvillian, evolve, steady_state, steady_state_periodic, vec
from .hilbert import DensityMatrix
from .model import MHZ, SystemParams, build_h_eff, collapse_channels, rabi_from_power, thermal_occupation
from .observables import UndefinedCorrelationError, g2_time_series, g2_zero, populations

__all__ = [
    "ConfigError",
    "SweepAxis",
    "ScenarioConfig",
    "SweepResult",
    "ConvergenceReport",
    "built_in_scenarios",
    "get_scenario",
    "run_scenario",
    "convergence_check",
    "emit_csv",
    "parse_csv",
    "parse_config",
]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


_PARAM_KEYS = {
    "J_over_2pi_MHz",
    "kappa_over_2pi_MHz",
    "kappa_m_over_2pi_MHz",
    "kappa_q_over_2pi_MHz",
    "Omega_m_over_2pi_MHz",
    "Omega_m_power_uW",
    "Omega_q_over_Omega_m",
    "Omega_q_over_2pi_MHz",
    "Delta_plus_over_J",
    "Delta_minus_over_Delta_plus",
    "drive_freq_over_2pi_MHz",
    "g_rp_over_J",
    "m_th",
    "T_mK",
    "r_kappa_over_J",
}

_OPTION_KEYS = {"kappa_t_max", "time_points", "initial_state", "steps_per_period"}

_MODES = {"steady", "time_series", "periodic", "roots"}


def _norm(x: float) -> float:
    """Round-trip floats through the CSV format so emitted and parsed results
    compare equal."""
    return float(f"{x:.11e}")


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted parameter path plus its grid values.

    ``linspace`` remembers (start, stop) for grids that may be re-densified;
    ``paired`` carries parameter paths that change in lockstep with the axis.
    """

    path: str
    values: tuple
    linspace: tuple | None = None
    paired: dict = field(default_factory=dict)

    def __post_init__(self):
        key = self.path.split(".", 1)
        if len(key) != 2 or key[0] != "params" or key[1] not in _PARAM_KEYS:
            raise ConfigError(f"unknown sweep parameter path {self.path!r}")
        for p in self.paired:
            k = p.split(".", 1)
            if len(k) != 2 or k[0] != "params" or k[1] not in _PARAM_KEYS:
                raise ConfigError(f"unknown paired parameter path {p!r}")
            if len(self.paired[p]) != len(self.values):
                raise ConfigError(
                    f"paired values for {p!r} must match axis length {len(self.values)}"
                )

    @property
    def key(self) -> str:
        return self.path.split(".", 1)[1]

    @classmethod
    def from_linspace(cls, path: str, start: float, stop: float, num: int,
                      paired: dict | None = None) -> "SweepAxis":
        vals = tuple(float(v) for v in np.linspace(start, stop, num))
        return cls(path=path, values=vals, linspace=(start, stop), paired=paired or {})

    def with_num(self, num: int) -> "SweepAxis":
        if self.linspace is None:
            return self
        return SweepAxis.from_linspace(self.path, *self.linspace, num, paired=self.paired)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mode: str
    params: dict
    axes: tuple = ()
    fock_dim: int = 6
    options: dict = field(default_factory=dict)
    output: str | None = None
    description: str = ""

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {sorted(_MODES)}")
        if len(self.axes) > 2:
            raise ConfigError(f"at most 2 sweep axes supported, got {len(self.axes)}")
        if self.mode == "time_series" and len(self.axes) > 1:
            raise ConfigError("time_series scenarios allow at most one parameter axis")
        for key in self.params:
            if key not in _PARAM_KEYS:
                raise ConfigError(f"unknown parameter key {key!r}")
        for key in self.options:
            if key not in _OPTION_KEYS:
                raise ConfigError(f"unknown option key {key!r}")
        if self.fock_dim < 3:
            raise ConfigError(f"fock_dim must be >= 3, got {self.fock_dim}")

    def with_fock_dim(self, n: int) -> "ScenarioConfig":
        return replace(self, fock_dim=n)

    def with_grid(self, num: int) -> "ScenarioConfig":
        """Re-densify every linspace-style axis to ``num`` points."""
        return replace(self, axes=tuple(ax.with_num(num) for ax in self.axes))

    def grid_points(self) -> list[dict]:
        """Resolved user-unit parameter dicts, one per grid point, in grid order."""
        points = []
        if not self.axes:
            return [dict(self.params)]
        ax = self.axes[0]
        inner = self.axes[1] if len(self.axes) > 1 else None
        for i, v in enumerate(ax.values):
            base = dict(self.params)
            base[ax.key] = float(v)
            for p, vals in ax.paired.items():
                base[p.split(".", 1)[1]] = float(vals[i])
            if inner is None:
                points.append(base)
                continue
            for j, w in enumerate(inner.values):
                u = dict(base)
                u[inner.key] = float(w)
                for p, vals in inner.paired.items():
                    u[p.split(".", 1)[1]] = float(vals[j])
                points.append(u)
        return points


def _system_params(user: dict, fock_dim: int) -> SystemParams:
    """Resolve a user-unit parameter dict into internal SystemParams."""
    u = dict(user)
    u.pop("r_kappa_over_J", None)
    try:
        j_mhz = u.pop("J_over_2pi_MHz")
    except KeyError:
        raise ConfigError("J_over_2pi_MHz is required") from None
    J = j_mhz * MHZ
    kappa_common = u.pop("kappa_over_2pi_MHz", None)
    kappa_m = u.pop("kappa_m_over_2pi_MHz", kappa_common)
    kappa_q = u.pop("kappa_q_over_2pi_MHz", kappa_common)
    if kappa_m is None or kappa_q is None:
        raise ConfigError("kappa_over_2pi_MHz (or the _m/_q pair) is required")
    if "Omega_m_power_uW" in u:
        Omega_m = rabi_from_power(u.pop("Omega_m_power_uW") * 1e-3)
        u.pop("Omega_m_over_2pi_MHz", None)
    else:
        Omega_m = u.pop("Omega_m_over_2pi_MHz", 0.0) * MHZ
    if "Omega_q_over_2pi_MHz" in u:
        Omega_q = u.pop("Omega_q_over_2pi_MHz") * MHZ
        u.pop("Omega_q_over_Omega_m", None)
    else:
        Omega_q = u.pop("Omega_q_over_Omega_m", 0.0) * Omega_m
    delta_plus = u.pop("Delta_plus_over_J", 1.0) * J
    delta_minus = u.pop("Delta_minus_over_Delta_plus", 0.0) * delta_plus
    omega_drive = u.pop("drive_freq_over_2pi_MHz", 1500.0) * MHZ
    g_rp = u.pop("g_rp_over_J", 0.0) * J
    if "T_mK" in u:
        omega_m_abs = omega_drive + delta_plus + delta_minus
        m_th = thermal_occupation(omega_m_abs, u.pop("T_mK") * 1e-3)
        u.pop("m_th", None)
    else:
        m_th = u.pop("m_th", 0.0)
    if u:
        raise ConfigError(f"unused parameter keys: {sorted(u)}")
    return SystemParams.from_detunings(
        J=J, Delta_plus=delta_plus, Delta_minus=delta_minus,
        Omega_m=Omega_m, Omega_q=Omega_q,
        kappa_m=kappa_m * MHZ, kappa_q=kappa_q * MHZ,
        omega_drive=omega_drive, g_rp=g_rp, m_th=m_th, fock_dim=fock_dim,
    )


# a ratio this close to 1 or 0 counts as equal (linspace grid points carry rounding)
_RATIO_TOL = 1e-9


def _analytic_applicable(user: dict) -> bool:
    # m_th is compared exactly: it is not a ratio of order one
    return (
        abs(user.get("Delta_plus_over_J", 1.0) - 1.0) <= _RATIO_TOL
        and abs(user.get("Delta_minus_over_Delta_plus", 0.0)) <= _RATIO_TOL
        and abs(user.get("g_rp_over_J", 0.0)) <= _RATIO_TOL
        and user.get("m_th", 0.0) == 0.0
        and "T_mK" not in user
        and "kappa_m_over_2pi_MHz" not in user
        and "kappa_q_over_2pi_MHz" not in user
    )


def _log10_or_error(g2: float) -> float:
    if g2 <= 0.0:
        raise ValueError(f"non-positive correlation value {g2}")
    return math.log10(g2)


def _population_columns(rho: DensityMatrix) -> dict:
    """P0..P3; a level at or above the truncation fock_dim is left empty."""
    pops = populations(rho)
    return {f"P{n}": _norm(float(pops[n])) if n < len(pops) else None for n in range(4)}


def _state_columns(rho: DensityMatrix) -> dict:
    out = _population_columns(rho)
    out["log10_g2"] = _norm(_log10_or_error(g2_zero(rho)))
    return out


def _static_state(p: SystemParams):
    """Steady state of the time-independent problem and its Liouvillian."""
    liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
    return steady_state(liouv), liouv


def _periodic_state(p: SystemParams, options: dict) -> DensityMatrix:
    """Period-averaged state; without longitudinal coupling the static one."""
    if p.g_rp == 0.0:
        return _static_state(p)[0]
    return steady_state_periodic(p, steps_per_period=int(options.get("steps_per_period", 64)))


def _trajectory(p: SystemParams, options: dict, n_t: int):
    """Evolution from the configured initial state, sampled at ``n_t`` equal
    steps up to kappa_m t = kappa_t_max."""
    if p.kappa_m <= 0.0:
        raise ConfigError("time series scenarios require kappa_m > 0")
    t_grid = np.linspace(0.0, float(options.get("kappa_t_max", 30.0)) / p.kappa_m, n_t)
    rho0 = _initial_state(options.get("initial_state", "vacuum"), p)
    return evolve(rho0, p, t_grid, time_dependent=p.g_rp > 0.0)


def _steady_record(user: dict, fock_dim: int) -> dict:
    p = _system_params(user, fock_dim)
    rho, liouv = _static_state(p)
    rec = _state_columns(rho)
    rec["residual_inf"] = _norm(float(np.abs(liouv.matrix @ vec(rho.matrix)).max()))
    if _analytic_applicable(user):
        rec["log10_g2_analytic"] = _norm(
            _log10_or_error(g2_analytic(p.J, p.kappa_m, p.Omega_m, p.Omega_q)[1])
        )
    else:
        rec["log10_g2_analytic"] = None
    return rec


def _periodic_record(user: dict, fock_dim: int, options: dict) -> dict:
    return _state_columns(_periodic_state(_system_params(user, fock_dim), options))


def _initial_state(name: str, p: SystemParams) -> DensityMatrix:
    d = p.space.total_dim
    rho = np.zeros((d, d), dtype=complex)
    if name == "vacuum":
        rho[0, 0] = 1.0
    elif name == "g1":
        rho[1, 1] = 1.0
    else:
        raise ConfigError(f"unknown initial_state {name!r}")
    return DensityMatrix(rho, p.space, True)


def _time_series_rows(user: dict, fock_dim: int, options: dict,
                      axis_cols: dict) -> list[dict]:
    p = _system_params(user, fock_dim)
    traj = _trajectory(p, options, int(options.get("time_points", 201)))
    rows = []
    for (t, g2), state in zip(g2_time_series(traj), traj.states):
        row = dict(axis_cols)
        row["kappa_t"] = _norm(p.kappa_m * t)
        row["log10_g2"] = None if math.isnan(g2) or g2 <= 0.0 else _norm(math.log10(g2))
        row.update(_population_columns(state))
        row["error"] = ""
        rows.append(row)
    return rows


def _roots_record(user: dict, fock_dim: int) -> dict:
    u = dict(user)
    try:
        r = u.pop("r_kappa_over_J")
    except KeyError:
        raise ConfigError("roots scenarios sweep params.r_kappa_over_J") from None
    radical = derivative_roots(r)
    numeric = derivative_roots_numeric(r)
    rec = {
        "l1": _norm(radical.l1),
        "l2": _norm(radical.l2),
        "l1_numeric": _norm(numeric.l1),
        "l2_numeric": _norm(numeric.l2),
    }
    for tag, l in (("l1", radical.l1), ("l2", radical.l2)):
        rec[f"log10_g2_analytic_{tag}"] = _norm(_log10_or_error(g2_dimensionless(l, r)))
        point = dict(u)
        point["kappa_over_2pi_MHz"] = r * point["J_over_2pi_MHz"]
        point["Omega_q_over_Omega_m"] = l + 1.0
        rho, _ = _static_state(_system_params(point, fock_dim))
        rec[f"log10_g2_numeric_{tag}"] = _norm(_log10_or_error(g2_zero(rho)))
    return rec


_MODE_COLUMNS = {
    "steady": ["log10_g2", "log10_g2_analytic", "P0", "P1", "P2", "P3", "residual_inf"],
    "periodic": ["log10_g2", "P0", "P1", "P2", "P3"],
    "roots": ["l1", "l2", "l1_numeric", "l2_numeric",
              "log10_g2_analytic_l1", "log10_g2_numeric_l1",
              "log10_g2_analytic_l2", "log10_g2_numeric_l2"],
}


@dataclass
class SweepResult:
    """Tabular sweep output: one row per grid point (plus one per time sample
    for time-series scenarios), with in-band error tags."""

    scenario: str
    columns: list
    rows: list

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def run_scenario(cfg: ScenarioConfig, out: str | None = None,
                 diagnostics_out: str | None = None) -> SweepResult:
    """Execute a scenario over its grid, optionally writing CSV and a JSONL
    diagnostics sidecar. Failed points carry an in-band error tag."""
    axis_keys = [ax.key for ax in cfg.axes]
    points = cfg.grid_points()

    if cfg.mode == "time_series":
        columns = axis_keys + ["kappa_t", "log10_g2", "P0", "P1", "P2", "P3", "error"]
    else:
        columns = axis_keys + _MODE_COLUMNS[cfg.mode] + ["error"]

    def work(user: dict) -> tuple[list[dict], float, str]:
        axis_cols = {k: _norm(user[k]) for k in axis_keys}
        start = time.perf_counter()
        try:
            if cfg.mode == "steady":
                rec = _steady_record(user, cfg.fock_dim)
            elif cfg.mode == "periodic":
                rec = _periodic_record(user, cfg.fock_dim, cfg.options)
            elif cfg.mode == "roots":
                rec = _roots_record(user, cfg.fock_dim)
            else:
                rows = _time_series_rows(user, cfg.fock_dim, cfg.options, axis_cols)
                return rows, time.perf_counter() - start, ""
            rec = {**axis_cols, **rec, "error": ""}
            return [rec], time.perf_counter() - start, ""
        except Exception as exc:  # recorded in-band, never silently dropped
            message = f"{type(exc).__name__}: {exc}"
            rec = dict(axis_cols)
            rec["error"] = message
            return [rec], time.perf_counter() - start, message

    outcomes = [work(u) for u in points]

    rows = []
    diag_lines = []
    for idx, (recs, wall, err) in enumerate(outcomes):
        for rec in recs:
            rows.append(tuple(rec.get(c) for c in columns))
        diag = {"index": idx,
                "axes": {k: points[idx][k] for k in axis_keys},
                "wall_time_s": round(wall, 6),
                "error": err}
        if recs and "residual_inf" in recs[0]:
            diag["residual_inf"] = recs[0]["residual_inf"]
        diag_lines.append(json.dumps(diag, sort_keys=True))

    result = SweepResult(scenario=cfg.name, columns=columns, rows=rows)
    target = out or cfg.output
    if target:
        with open(target, "w") as fh:
            fh.write(emit_csv(result))
    if diagnostics_out:
        with open(diagnostics_out, "w") as fh:
            fh.write("\n".join(diag_lines) + "\n")
    return result


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";").replace("\n", "; ")
    return f"{v:.11e}"


def emit_csv(result: SweepResult) -> str:
    """Deterministic CSV: scenario tag, header, then 12-significant-digit rows."""
    lines = [f"# scenario={result.scenario}", ",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# scenario="):
        raise ConfigError("missing scenario tag line")
    scenario = lines[0].split("=", 1)[1]
    columns = lines[1].split(",")
    rows = []
    for ln in lines[2:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ConfigError(f"row has {len(cells)} cells, expected {len(columns)}")
        row = []
        for col, cell in zip(columns, cells):
            if col == "error":
                row.append(cell)
            elif cell == "":
                row.append(None)
            else:
                row.append(float(cell))
        rows.append(tuple(row))
    return SweepResult(scenario=scenario, columns=columns, rows=rows)


@dataclass
class ConvergenceReport:
    """Truncation-convergence summary over representative grid points."""

    scenario: str
    fock_dims: list
    point_values: list          # one dict {fock_dim: g2} per representative point
    max_rel_change: float
    passed: bool
    non_monotone: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        extra = " (non-monotone)" if self.non_monotone else ""
        return (f"convergence[{self.scenario}] N={self.fock_dims}: "
                f"max relative change {self.max_rel_change:.3e} -> {status}{extra}")


def convergence_check(cfg: ScenarioConfig, fock_dims, rel_tol: float = 1e-3,
                      max_points: int = 5) -> ConvergenceReport:
    """Re-run representative grid points at each truncation and compare g2.

    Passes when the relative change between consecutive truncations stays
    below ``rel_tol`` (0.1% by default).
    """
    fock_dims = sorted(fock_dims)
    if len(fock_dims) < 2:
        raise ConfigError("need at least two truncations to compare")
    if cfg.mode == "roots":
        raise ConfigError("roots scenarios have no truncation to converge")

    points = cfg.grid_points()
    n = len(points)
    idxs = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})[:max_points]

    point_values = []
    max_change = 0.0
    non_monotone = False
    for i in idxs:
        values = {}
        for nd in fock_dims:
            p = _system_params(points[i], nd)
            if cfg.mode == "periodic":
                rho = _periodic_state(p, cfg.options)
            elif cfg.mode == "time_series":
                rho = _trajectory(p, cfg.options, 2).states[-1]
            else:
                rho, _ = _static_state(p)
            try:
                values[nd] = g2_zero(rho)
            except UndefinedCorrelationError:
                values[nd] = 0.0
        changes = []
        for a, b in zip(fock_dims, fock_dims[1:]):
            ref = max(abs(values[a]), 1e-300)
            changes.append(abs(values[b] - values[a]) / ref)
        if len(changes) >= 2 and any(c2 > c1 * 1.001 and c2 > rel_tol
                                     for c1, c2 in zip(changes, changes[1:])):
            non_monotone = True
        max_change = max(max_change, changes[-1])
        point_values.append(values)

    return ConvergenceReport(
        scenario=cfg.name, fock_dims=list(fock_dims), point_values=point_values,
        max_rel_change=max_change, passed=max_change < rel_tol,
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# built-in figure scenarios


def built_in_scenarios(grid_1d: int = 201, grid_2d: int = 101,
                       time_points: int = 201) -> list[ScenarioConfig]:
    """One declarative config per reproduced dataset."""
    base20 = {"J_over_2pi_MHz": 20.0, "kappa_over_2pi_MHz": 1.0,
              "Omega_m_over_2pi_MHz": 0.1}
    opt35 = {"J_over_2pi_MHz": 35.0, "kappa_over_2pi_MHz": 0.5,
             "Omega_m_over_2pi_MHz": 0.033}
    scenarios = [
        ScenarioConfig(
            name="fig2a", mode="time_series",
            params={**base20, "Omega_q_over_Omega_m": 1.0,
                    "Delta_minus_over_Delta_plus": 0.0},
            axes=(SweepAxis("params.Delta_plus_over_J",
                            (0.7, 0.85, 1.0, 1.15, 1.3)),),
            options={"kappa_t_max": 30.0, "time_points": time_points,
                     "initial_state": "vacuum"},
            description="g2(t,t) relaxation for several Delta_plus/J at equal drives",
        ),
        ScenarioConfig(
            name="fig2b", mode="steady",
            params={**base20, "Omega_q_over_Omega_m": 1.0, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.Delta_minus_over_Delta_plus",
                                          -1.0, 1.0, grid_1d),),
            description="steady g2 versus detuning asymmetry Delta_minus/Delta_plus",
        ),
        ScenarioConfig(
            name="fig3", mode="steady",
            params={**base20, "Delta_minus_over_Delta_plus": 0.0},
            axes=(SweepAxis("params.Omega_q_over_Omega_m", (1.0, 2.0, 5.0, 10.0)),
                  SweepAxis.from_linspace("params.Delta_plus_over_J", -2.0, 2.0, grid_1d)),
            description="steady g2 versus Delta_plus/J for several probe-to-drive ratios",
        ),
        ScenarioConfig(
            name="fig4", mode="steady",
            params={"kappa_over_2pi_MHz": 1.0, "Omega_m_over_2pi_MHz": 0.1,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 0.5, 6.0, grid_1d)),
            description="steady g2 versus probe-to-drive ratio for several couplings J",
        ),
        ScenarioConfig(
            name="fig5", mode="steady",
            params={"J_over_2pi_MHz": 20.0, "Omega_m_over_2pi_MHz": 0.1,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.kappa_over_2pi_MHz", (0.5, 1.0)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 1.0, 6.0, grid_1d)),
            description="numeric versus closed-form g2 over the probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig6a", mode="steady",
            params={"Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.J_over_2pi_MHz", 5.0, 40.0, grid_2d),
                  SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.1, 1.2, grid_2d)),
            description="heatmap of steady g2 over coupling J and decay kappa",
        ),
        ScenarioConfig(
            name="fig6b", mode="steady",
            params={"J_over_2pi_MHz": 35.0, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.Omega_m_over_2pi_MHz", 0.005, 0.2, grid_2d),
                  SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.1, 1.2, grid_2d)),
            description="heatmap of steady g2 over drive strength and decay at J/2pi = 35 MHz",
        ),
        ScenarioConfig(
            name="fig7a", mode="steady",
            params={"kappa_over_2pi_MHz": 0.5, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0)),
                  SweepAxis.from_linspace("params.Omega_m_over_2pi_MHz", 0.005, 0.2, grid_1d)),
            description="steady g2 versus drive strength for several couplings J",
        ),
        ScenarioConfig(
            name="fig7b", mode="steady",
            params={**{k: v for k, v in opt35.items() if k != "kappa_over_2pi_MHz"},
                    "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.2, 1.5, grid_1d),),
            description="steady g2 versus decay rate at the optimal drive point",
        ),
        ScenarioConfig(
            name="fig8a", mode="steady",
            params={**opt35, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.m_th", (1e-8, 1e-7, 1e-6)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 1.0, 6.0, grid_1d)),
            description="thermal-occupation effect on the optimal probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig8b", mode="steady",
            params={**opt35, "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0,
                    "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis.from_linspace("params.T_mK", 1.0, 25.0, grid_1d),),
            description="steady g2 versus environment temperature",
        ),
        ScenarioConfig(
            name="fig9a", mode="periodic",
            params={**opt35, "Delta_plus_over_J": 1.0,
                    "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis("params.g_rp_over_J", (0.1, 0.2, 0.3)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 2.5, 4.0, grid_1d)),
            description="longitudinal-coupling effect on the optimal probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig9b", mode="periodic",
            params={"kappa_over_2pi_MHz": 0.5, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0, "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0),
                            paired={"params.Omega_m_over_2pi_MHz":
                                    (0.021, 0.025, 0.029, 0.033)}),
                  SweepAxis.from_linspace("params.g_rp_over_J", 0.0, 0.5, grid_1d)),
            description="steady g2 versus longitudinal-to-transversal coupling ratio",
        ),
        ScenarioConfig(
            name="fig10", mode="roots",
            params={"J_over_2pi_MHz": 35.0, "Omega_m_over_2pi_MHz": 0.033,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.r_kappa_over_J", 0.005, 0.25, grid_1d),),
            description="optimal-ratio roots l1, l2 and analytic versus numeric g2 over r",
        ),
        ScenarioConfig(
            name="fig11", mode="time_series",
            params={**opt35, "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0},
            axes=(),
            options={"kappa_t_max": 30.0, "time_points": time_points,
                     "initial_state": "g1"},
            description="population dynamics from a single-magnon initial state",
        ),
    ]
    return scenarios


def get_scenario(name: str, **kwargs) -> ScenarioConfig:
    for cfg in built_in_scenarios(**kwargs):
        if cfg.name == name:
            return cfg
    raise ConfigError(f"unknown scenario {name!r}")


# ---------------------------------------------------------------------------
# flat key=value config files


def _float_tuple(text: str) -> tuple:
    return tuple(float(v) for v in text.split())


def _linspace(text: str) -> tuple:
    start, stop, num = text.split()
    return float(start), float(stop), int(num)


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat structured-text config format.

    Lines are ``key = value`` with ``#`` comments. Multi-valued entries
    (axis values, linspace specs) are whitespace separated, e.g.::

        scenario = fig3_custom
        mode = steady
        fock_dim = 6
        params.J_over_2pi_MHz = 20
        sweep.axis1.path = params.Delta_plus_over_J
        sweep.axis1.linspace = -2 2 201
    """
    entries, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
        lines[key] = lineno

    def convert(key: str, value, kind):
        try:
            return kind(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(
                f"line {lines[key]}: bad value {value!r} for {key!r} ({exc})") from None

    name = entries.pop("scenario", None)
    mode = entries.pop("mode", None)
    if not name or not mode:
        raise ConfigError("config must define 'scenario' and 'mode'")
    output = entries.pop("output", None)
    fock_dim = convert("fock_dim", entries.pop("fock_dim"), int) if "fock_dim" in entries else 6

    params, options = {}, {}
    axis_parts: dict[str, dict] = {}
    for key, value in entries.items():
        if key.startswith("params."):
            params[key.split(".", 1)[1]] = convert(key, value, float)
        elif key.startswith("option."):
            opt = key.split(".", 1)[1]
            options[opt] = value if opt == "initial_state" else convert(key, value, float)
        elif key.startswith("sweep."):
            parts = key.split(".")
            if len(parts) < 3:
                raise ConfigError(f"malformed sweep key {key!r}")
            axis_parts.setdefault(parts[1], {})[".".join(parts[2:])] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")

    axes = []
    for axis_name in sorted(axis_parts):
        spec = axis_parts[axis_name]
        try:
            path = spec.pop("path")
        except KeyError:
            raise ConfigError(f"sweep.{axis_name} needs a 'path'") from None
        paired = {}
        for k in [k for k in spec if k.startswith("paired.")]:
            paired[k.split(".", 1)[1]] = convert(f"sweep.{axis_name}.{k}", spec.pop(k),
                                                 _float_tuple)
        if "linspace" in spec:
            start, stop, num = convert(f"sweep.{axis_name}.linspace", spec.pop("linspace"),
                                       _linspace)
            axes.append(SweepAxis.from_linspace(path, start, stop, num, paired=paired))
        elif "values" in spec:
            vals = convert(f"sweep.{axis_name}.values", spec.pop("values"), _float_tuple)
            axes.append(SweepAxis(path, vals, paired=paired))
        else:
            raise ConfigError(f"sweep.{axis_name} needs 'values' or 'linspace'")
        if spec:
            raise ConfigError(f"unknown sweep.{axis_name} keys: {sorted(spec)}")

    for opt in ("time_points", "steps_per_period"):
        if opt in options:
            options[opt] = convert(f"option.{opt}", options[opt], int)
    return ScenarioConfig(name=name, mode=mode, params=params, axes=tuple(axes),
                          fock_dim=fock_dim, options=options, output=output)
