"""Declarative sweep scenarios: config model, built-in figure datasets,
dispatch to the solvers, CSV/JSONL emission, and truncation-convergence checks.

User-facing parameter values follow the experimental conventions (nu = omega/2pi
in MHz, temperatures in mK, powers in uW); conversion to internal angular
units happens only here.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .analytic import derivative_roots, derivative_roots_numeric, g2_analytic, g2_dimensionless
from .dynamics import (_chunk_size, build_liouvillian, evolve, steady_state, steady_state_periodic,
                       steady_states)
from .hilbert import DensityMatrix, _is_truncation
from .model import MHZ, SystemParams, build_h_eff, collapse_channels, rabi_from_power, thermal_occupation
from .observables import OCCUPATION_FLOOR, UndefinedCorrelationError, _g2, g2_time_series, g2_zero, populations

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


# parameter key -> the model quantities it sets. A config sets each quantity
# at most once: in params, on an axis or on a paired path.
_PARAM_KEYS = {
    "J_over_2pi_MHz": ("J",),
    "kappa_over_2pi_MHz": ("kappa_m", "kappa_q"),
    "kappa_m_over_2pi_MHz": ("kappa_m",),
    "kappa_q_over_2pi_MHz": ("kappa_q",),
    "Omega_m_over_2pi_MHz": ("Omega_m",),
    "Omega_m_power_uW": ("Omega_m",),
    "Omega_q_over_Omega_m": ("Omega_q",),
    "Omega_q_over_2pi_MHz": ("Omega_q",),
    "Delta_plus_over_J": ("Delta_plus",),
    "Delta_minus_over_Delta_plus": ("Delta_minus",),
    "drive_freq_over_2pi_MHz": ("omega_drive",),
    "g_rp_over_J": ("g_rp",),
    "m_th": ("m_th",),
    "T_mK": ("m_th",),
    "r_kappa_over_J": ("r",),
}

# the quantities a static solve takes from the config; the longitudinal
# coupling g_rp is read by the periodic mode only, r = kappa/J by roots mode
# only
_STATIC_QUANTITIES = frozenset({"J", "kappa_m", "kappa_q", "Omega_m", "Omega_q", "Delta_plus",
                                "Delta_minus", "omega_drive", "m_th"})

# the quantities every mode but roots needs a value for
_REQUIRED = frozenset({"J", "kappa_m", "kappa_q"})

# initial-state name -> basis index i = q*N + n of the pure state it names
_INITIAL_STATES = {"vacuum": 0, "g1": 1}


class _Option(NamedTuple):
    default: object  # its type is the option's type
    requirement: str
    accepts: Callable


_OPTIONS = {
    "kappa_t_max": _Option(30.0, "a finite number > 0", lambda v: 0.0 < v < math.inf),
    "time_points": _Option(201, "an integer >= 2", lambda v: v >= 2),
    "initial_state": _Option("vacuum", f"one of {sorted(_INITIAL_STATES)}",
                             lambda v: v in _INITIAL_STATES),
}

# bool is an Integral too; it is rejected separately
_OPTION_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


def _check_finite(name: str, values) -> None:
    """Reject a value that would reach the solver as nan or inf, or that is a
    bool (a Real too, which would run as 0 or 1)."""
    for v in values:
        if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")


def _norm(x: float) -> float:
    """Round-trip floats through the CSV format so emitted and parsed results
    compare equal."""
    return float(f"{x:.11e}")


def _norm_array(values: np.ndarray) -> list:
    """``_norm`` of every value of an array, as nested lists: the whole block
    is formatted in one ``%`` operation and parsed back, so each value goes
    through the same text as in ``_norm``."""
    x = np.asarray(values, dtype=float)
    flat = x.ravel().tolist()
    parsed = map(float, (" %.11e" * len(flat) % tuple(flat)).split())
    return np.fromiter(parsed, float, len(flat)).reshape(x.shape).tolist()


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
        if not self.values:
            raise ConfigError(f"sweep axis {self.path!r} has no values")
        for path, values in ((self.path, self.values), *self.paired.items()):
            key = path.split(".", 1)
            if len(key) != 2 or key[0] != "params" or key[1] not in _PARAM_KEYS:
                raise ConfigError(f"unknown sweep parameter path {path!r}")
            if len(values) != len(self.values):
                raise ConfigError(
                    f"paired values for {path!r} must match axis length {len(self.values)}"
                )
            _check_finite(path, values)

    @property
    def key(self) -> str:
        return self.path.split(".", 1)[1]

    @classmethod
    def from_linspace(cls, path: str, start: float, stop: float, num: int,
                      paired: dict | None = None) -> "SweepAxis":
        if num < 1:
            raise ConfigError(f"sweep axis {path!r} needs at least 1 point, got {num}")
        _check_finite(path, (start, stop))
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
        mode = _MODES[self.mode]
        if len(self.axes) > 2:
            raise ConfigError(f"at most 2 sweep axes supported, got {len(self.axes)}")
        if self.mode == "time_series" and len(self.axes) > 1:
            raise ConfigError("time_series scenarios allow at most one parameter axis")
        for key, value in self.params.items():
            if key not in _PARAM_KEYS:
                raise ConfigError(f"unknown parameter key {key!r}")
            _check_finite(f"params.{key}", (value,))
        given = [(f"params.{key}", key) for key in self.params]
        given += [(f"{kind} {path}", path.split(".", 1)[1]) for ax in self.axes
                  for kind, path in (("axis", ax.path), *(("paired", p) for p in ax.paired))]
        unread = [setting for setting, key in given
                  if not mode.quantities.issuperset(_PARAM_KEYS[key])]
        if unread:
            raise ConfigError(f"{self.mode} scenarios do not read {', '.join(unread)}")
        setters: dict[str, list] = {}
        for setting, key in given:
            for quantity in _PARAM_KEYS[key]:
                setters.setdefault(quantity, []).append(setting)
        for quantity, settings in setters.items():
            if len(settings) > 1:
                raise ConfigError(f"{quantity} is set by {' and by '.join(settings)}")
        for key, value in self.options.items():
            if key not in _OPTIONS:
                raise ConfigError(f"unknown option key {key!r}")
            opt = _OPTIONS[key]
            if (isinstance(value, bool)
                    or not isinstance(value, _OPTION_TYPES[type(opt.default)])
                    or not opt.accepts(value)):
                raise ConfigError(f"{key} must be {opt.requirement}, got {value!r}")
            if key not in mode.options:
                raise ConfigError(f"{self.mode} scenarios do not read option {key!r}; "
                                  f"they read {sorted(mode.options)}")
        if not _is_truncation(self.fock_dim):
            raise ConfigError(f"fock_dim must be an integer >= 3, got {self.fock_dim!r}")
        for quantity in sorted(mode.required - setters.keys()):
            keys = [key for key, quantities in _PARAM_KEYS.items() if quantity in quantities]
            raise ConfigError(f"{self.mode} scenarios need {quantity}: set "
                              f"{' or '.join(f'params.{key}' for key in keys)}")

    def with_grid(self, num: int) -> "ScenarioConfig":
        """Re-densify every linspace-style axis to ``num`` points; a config
        without one is a ConfigError."""
        if all(ax.linspace is None for ax in self.axes):
            raise ConfigError(f"{self.name} has no linspace axis to re-densify")
        return replace(self, axes=tuple(ax.with_num(num) for ax in self.axes))

    def grid_points(self) -> list[dict]:
        """Resolved user-unit parameter dicts, one per grid point, in grid order
        (first axis outermost)."""
        points = [dict(self.params)]
        for ax in self.axes:
            keys = [path.split(".", 1)[1] for path in (ax.path, *ax.paired)]
            rows = [dict(zip(keys, map(float, row)))
                    for row in zip(ax.values, *ax.paired.values())]
            points = [{**u, **row} for u in points for row in rows]
        return points


def _system_params(user: dict, fock_dim: int) -> SystemParams:
    """Resolve a user-unit parameter dict into internal SystemParams. A key
    left over, such as a second key for a quantity already set, is a
    ConfigError."""
    u = dict(user)
    J = u.pop("J_over_2pi_MHz") * MHZ
    if "kappa_over_2pi_MHz" in u:
        kappa_m = kappa_q = u.pop("kappa_over_2pi_MHz")
    else:
        kappa_m, kappa_q = u.pop("kappa_m_over_2pi_MHz"), u.pop("kappa_q_over_2pi_MHz")
    if "Omega_m_power_uW" in u:
        Omega_m = rabi_from_power(u.pop("Omega_m_power_uW") * 1e-3)
    else:
        Omega_m = u.pop("Omega_m_over_2pi_MHz", 0.0) * MHZ
    if "Omega_q_over_2pi_MHz" in u:
        Omega_q = u.pop("Omega_q_over_2pi_MHz") * MHZ
    else:
        Omega_q = u.pop("Omega_q_over_Omega_m", 0.0) * Omega_m
    delta_plus = u.pop("Delta_plus_over_J", 1.0) * J
    delta_minus = u.pop("Delta_minus_over_Delta_plus", 0.0) * delta_plus
    omega_drive = u.pop("drive_freq_over_2pi_MHz", 1500.0) * MHZ
    g_rp = u.pop("g_rp_over_J", 0.0) * J
    if "T_mK" in u:
        omega_m_abs = omega_drive + delta_plus + delta_minus
        m_th = thermal_occupation(omega_m_abs, u.pop("T_mK") * 1e-3)
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
        and user.get("m_th", 0.0) == 0.0
        and "T_mK" not in user
        and "kappa_m_over_2pi_MHz" not in user
        and "kappa_q_over_2pi_MHz" not in user
    )


def _log10_or_error(g2: float) -> float:
    if g2 <= 0.0:
        raise ValueError(f"non-positive correlation value {g2}")
    return math.log10(g2)


_POPULATIONS = ("P0", "P1", "P2", "P3")


def _population_columns(rho: DensityMatrix) -> dict:
    """P0..P3; a level at or above the truncation fock_dim is left empty."""
    pops = populations(rho)
    return {col: _norm(float(pops[n])) if n < len(pops) else None
            for n, col in enumerate(_POPULATIONS)}


def _state_columns(rho: DensityMatrix) -> dict:
    out = _population_columns(rho)
    out["log10_g2"] = _norm(_log10_or_error(g2_zero(rho)))
    return out


def _state(result) -> DensityMatrix:
    """The state of a ``steady_states`` result, or its exception raised."""
    if isinstance(result, Exception):
        raise result
    return result[0]


def _periodic_state(p: SystemParams, options: dict) -> DensityMatrix:
    """Period-averaged state; without longitudinal coupling the static one."""
    if p.g_rp == 0.0:
        return _state(steady_states([p])[0])
    return steady_state_periodic(p)


def _trajectory(p: SystemParams, options: dict, n_t: int):
    """Evolution from the configured initial state, sampled at ``n_t`` equal
    steps up to kappa_m t = kappa_t_max."""
    if p.kappa_m <= 0.0:
        raise ConfigError("time series scenarios require kappa_m > 0")
    t_grid = np.linspace(0.0, float(options["kappa_t_max"]) / p.kappa_m, n_t)
    return evolve(_initial_state(options["initial_state"], p), p, t_grid)


def _one_row(rec: dict) -> dict:
    """The columns of a mode that emits one row per grid point."""
    return {col: [value] for col, value in rec.items()}


def _analytic_column(user: dict, p: SystemParams) -> float | None:
    if not _analytic_applicable(user):
        return None
    return _norm(_log10_or_error(g2_analytic(p.J, p.kappa_m, p.Omega_m, p.Omega_q)[1]))


def _steady_columns(user: dict, p: SystemParams, rho: DensityMatrix, residual: float) -> dict:
    rec = _state_columns(rho)
    rec["residual_inf"] = _norm(residual)
    rec["log10_g2_analytic"] = _analytic_column(user, p)
    return _one_row(rec)


def _steady_rows(user: dict, fock_dim: int, options: dict) -> dict:
    """The columns of a point solved alone by ``steady_state``, with the
    residual that solve checked."""
    p = _system_params(user, fock_dim)
    liouv = build_liouvillian(build_h_eff(p), collapse_channels(p))
    rho = steady_state(liouv)
    return _steady_columns(user, p, rho, liouv.residual(rho.matrix))


def _log10_all(g2: np.ndarray) -> np.ndarray:
    """log10 of every value of an array of positive values, by ``math.log10``:
    numpy's SIMD log10 differs from the C library's in the last bit for some
    inputs."""
    return np.fromiter(map(math.log10, g2.tolist()), float, g2.size)


def _steady_chunk(users: list, fock_dim: int, options: dict) -> list:
    """Per point of ``users``, its columns or the exception it raised, from
    one ``steady_states`` call on the chunk, each column formed for the
    chunk at once (populations, g2 from one ``observables._g2``, one
    ``_norm_array``), with the bits and errors of the one-point path."""
    out = []
    for user in users:
        try:
            out.append(_system_params(user, fock_dim))
        except Exception as exc:  # recorded in-band, never silently dropped
            out.append(exc)
    points = [i for i, p in enumerate(out) if isinstance(p, SystemParams)]
    solved = []
    for i, result in zip(points, steady_states([out[i] for i in points])):
        if isinstance(result, Exception):
            out[i] = result
        else:
            solved.append((i, *result))
    if not solved:
        return out
    diagonal = np.array([np.diagonal(rho.matrix).real for _, rho, _ in solved])
    pops = diagonal[:, :fock_dim] + diagonal[:, fock_dim:]
    n1, g2 = _g2(pops)
    defined = (n1 >= OCCUPATION_FLOOR) & ~(g2 <= 0.0)
    log10_g2 = np.zeros(len(solved))
    log10_g2[defined] = _log10_all(g2[defined])
    levels = min(fock_dim, len(_POPULATIONS))
    cells = _norm_array(np.column_stack([log10_g2, [r for *_, r in solved], pops[:, :levels]]))
    for (i, rho, _), ok, (log10, residual, *pop_cells) in zip(solved, defined, cells):
        try:
            if not ok:
                _log10_or_error(g2_zero(rho))  # raises the point's own error
            analytic = _analytic_column(users[i], out[i])
        except Exception as exc:  # recorded in-band, never silently dropped
            out[i] = exc
            continue
        pop_cells += [None] * (len(_POPULATIONS) - levels)
        out[i] = _one_row({"log10_g2": log10, "log10_g2_analytic": analytic,
                           **dict(zip(_POPULATIONS, pop_cells)), "residual_inf": residual})
    return out


def _periodic_rows(user: dict, fock_dim: int, options: dict) -> dict:
    return _one_row(_state_columns(_periodic_state(_system_params(user, fock_dim), options)))


def _initial_state(name: str, p: SystemParams) -> DensityMatrix:
    d = p.space.total_dim
    rho = np.zeros((d, d), dtype=complex)
    i = _INITIAL_STATES[name]
    rho[i, i] = 1.0
    return DensityMatrix(rho, p.space)


def _time_series_rows(user: dict, fock_dim: int, options: dict) -> dict:
    """One row per sample, built column by column from the trajectory's
    arrays: log10 g2 is empty where g2 is NaN (undriven) or not positive, and
    a level at or above fock_dim is empty."""
    p = _system_params(user, fock_dim)
    traj = _trajectory(p, options, options["time_points"])
    g2 = g2_time_series(traj)
    positive = g2 > 0.0
    log10_g2 = np.zeros(g2.size)
    log10_g2[positive] = _log10_all(g2[positive])
    levels = min(fock_dim, len(_POPULATIONS))
    kappa_t, log10_g2, *pops = _norm_array(
        np.vstack([p.kappa_m * traj.times, log10_g2, traj.populations[:, :levels].T]))
    log10_g2 = np.array(log10_g2, dtype=object)
    log10_g2[~positive] = None
    pops += [[None] * g2.size] * (len(_POPULATIONS) - levels)
    return {"kappa_t": kappa_t, "log10_g2": log10_g2.tolist(), **dict(zip(_POPULATIONS, pops))}


def _roots_rows(user: dict, fock_dim: int, options: dict) -> dict:
    u = dict(user)
    r = u.pop("r_kappa_over_J")
    radical = derivative_roots(r)
    numeric = derivative_roots_numeric(r)
    rec = {
        "l1": _norm(radical.l1),
        "l2": _norm(radical.l2),
        "l1_numeric": _norm(numeric.l1),
        "l2_numeric": _norm(numeric.l2),
    }
    roots = (("l1", radical.l1), ("l2", radical.l2))
    points = [_system_params({**u, "kappa_over_2pi_MHz": r * u["J_over_2pi_MHz"],
                              "Omega_q_over_Omega_m": l + 1.0}, fock_dim) for _, l in roots]
    for (tag, l), result in zip(roots, steady_states(points)):
        rec[f"log10_g2_analytic_{tag}"] = _norm(_log10_or_error(g2_dimensionless(l, r)))
        rec[f"log10_g2_numeric_{tag}"] = _norm(_log10_or_error(g2_zero(_state(result))))
    return _one_row(rec)


class _Mode(NamedTuple):
    columns: tuple  # placed between the axis columns and "error"
    options: frozenset  # the option keys the mode reads
    quantities: frozenset  # the model quantities it takes from the parameter keys
    required: frozenset  # those of them a config must set
    rows: Callable  # (user, fock_dim, options) -> {column: one value per output row}
    state: Callable | None  # (p, options) -> the state convergence_check compares
    chunk: Callable | None = None  # (users, fock_dim, options) -> [rows or exception per user]


_MODES = {
    "steady": _Mode(
        ("log10_g2", "log10_g2_analytic", *_POPULATIONS, "residual_inf"),
        frozenset(), _STATIC_QUANTITIES, _REQUIRED, _steady_rows, _periodic_state, _steady_chunk),
    "periodic": _Mode(
        ("log10_g2", *_POPULATIONS),
        frozenset(), _STATIC_QUANTITIES | {"g_rp"}, _REQUIRED, _periodic_rows, _periodic_state),
    # roots mode sets kappa = r J and Omega_q/Omega_m = l + 1 itself
    "roots": _Mode(
        ("l1", "l2", "l1_numeric", "l2_numeric",
         "log10_g2_analytic_l1", "log10_g2_numeric_l1",
         "log10_g2_analytic_l2", "log10_g2_numeric_l2"),
        frozenset(), _STATIC_QUANTITIES - {"kappa_m", "kappa_q", "Omega_q"} | {"r"},
        frozenset({"J", "r"}), _roots_rows, None),
    "time_series": _Mode(
        ("kappa_t", "log10_g2", *_POPULATIONS),
        frozenset({"kappa_t_max", "time_points", "initial_state"}), _STATIC_QUANTITIES,
        _REQUIRED, _time_series_rows, lambda p, options: _trajectory(p, options, 2).states[-1]),
}


def _options(cfg: ScenarioConfig) -> dict:
    """Every option's value: the config's own, else the default."""
    return {key: cfg.options.get(key, opt.default) for key, opt in _OPTIONS.items()}


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
    mode = _MODES[cfg.mode]
    options = _options(cfg)
    axis_keys = [ax.key for ax in cfg.axes]
    points = cfg.grid_points()
    columns = axis_keys + list(mode.columns) + ["error"]

    residual = columns.index("residual_inf") if "residual_inf" in columns else None

    def record(user: dict, result) -> tuple[list[tuple], str]:
        """The point's output rows as tuples in ``columns`` order and its
        error message, from its columns or the exception it raised."""
        axis_cols = [_norm(user[k]) for k in axis_keys]
        if isinstance(result, Exception):
            message = f"{type(result).__name__}: {result}"
            return [(*axis_cols, *[None] * len(mode.columns), message)], message
        n = len(result[mode.columns[0]])
        table = [[v] * n for v in axis_cols] + [result[c] for c in mode.columns] + [[""] * n]
        return list(zip(*table)), ""

    def solve(users: list) -> list[tuple]:
        """(rows, wall time, error message, chunk size) of each point of
        ``users``, which the mode's chunk solve takes together where there
        are several. A point's wall time is the chunk's, shared evenly."""
        start = time.perf_counter()
        if len(users) > 1:
            results = mode.chunk(users, cfg.fock_dim, options)
        else:
            try:
                results = [mode.rows(users[0], cfg.fock_dim, options)]
            except Exception as exc:  # recorded in-band, never silently dropped
                results = [exc]
        records = [record(user, result) for user, result in zip(users, results)]
        wall = (time.perf_counter() - start) / len(users)
        return [(recs, wall, err, len(users)) for recs, err in records]

    size = _chunk_size(cfg.fock_dim) if mode.chunk else 1
    outcomes = []
    for first in range(0, len(points), size):
        outcomes += solve(points[first:first + size])

    rows = []
    diag_lines = []
    for idx, (recs, wall, err, chunk) in enumerate(outcomes):
        rows += recs
        diag = {"index": idx,
                "axes": {k: points[idx][k] for k in axis_keys},
                "wall_time_s": round(wall, 6),
                "chunk": chunk,
                "error": err}
        if residual is not None and not err:
            diag["residual_inf"] = recs[0][residual]
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


# the largest accepted relative change of g2 between consecutive truncations
_CONVERGENCE_RTOL = 1e-3


def convergence_check(cfg: ScenarioConfig, fock_dims) -> ConvergenceReport:
    """Re-run representative grid points at each truncation and compare g2.

    Passes when the relative change between consecutive truncations stays
    below ``_CONVERGENCE_RTOL`` (0.1%). A point whose g2 is undefined (no
    magnon population) is recorded as nan with an infinite change and fails.
    """
    fock_dims = list(fock_dims)
    if (len(fock_dims) < 2 or not all(map(_is_truncation, fock_dims))
            or len(set(fock_dims)) < len(fock_dims)):
        raise ConfigError(f"need at least two distinct integer truncations >= 3, got {fock_dims}")
    fock_dims = sorted(fock_dims)
    state = _MODES[cfg.mode].state
    if state is None:
        raise ConfigError(f"{cfg.mode} scenarios have no truncation to converge")
    options = _options(cfg)

    points = cfg.grid_points()
    n = len(points)
    idxs = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})

    point_values = []
    max_change = 0.0
    non_monotone = False
    for i in idxs:
        values = {}
        for nd in fock_dims:
            rho = state(_system_params(points[i], nd), options)
            try:
                values[nd] = g2_zero(rho)
            except UndefinedCorrelationError:
                values[nd] = math.nan
        changes = []
        for a, b in zip(fock_dims, fock_dims[1:]):
            change = abs(values[b] - values[a]) / max(abs(values[a]), 1e-300)
            # an undefined g2 cannot be shown to converge
            changes.append(math.inf if math.isnan(change) else change)
        if len(changes) >= 2 and any(c2 > c1 * 1.001 and c2 > _CONVERGENCE_RTOL
                                     for c1, c2 in zip(changes, changes[1:])):
            non_monotone = True
        max_change = max(max_change, changes[-1])
        point_values.append(values)

    return ConvergenceReport(
        scenario=cfg.name, fock_dims=list(fock_dims), point_values=point_values,
        max_rel_change=max_change, passed=max_change < _CONVERGENCE_RTOL,
        non_monotone=non_monotone,
    )


# ---------------------------------------------------------------------------
# built-in figure scenarios


def built_in_scenarios() -> list[ScenarioConfig]:
    """One declarative config per reproduced dataset; ``ScenarioConfig.with_grid``
    changes the density of its linspace axes."""
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
            options={"kappa_t_max": 30.0, "time_points": 201,
                     "initial_state": "vacuum"},
            description="g2(t,t) relaxation for several Delta_plus/J at equal drives",
        ),
        ScenarioConfig(
            name="fig2b", mode="steady",
            params={**base20, "Omega_q_over_Omega_m": 1.0, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.Delta_minus_over_Delta_plus",
                                          -1.0, 1.0, 201),),
            description="steady g2 versus detuning asymmetry Delta_minus/Delta_plus",
        ),
        ScenarioConfig(
            name="fig3", mode="steady",
            params={**base20, "Delta_minus_over_Delta_plus": 0.0},
            axes=(SweepAxis("params.Omega_q_over_Omega_m", (1.0, 2.0, 5.0, 10.0)),
                  SweepAxis.from_linspace("params.Delta_plus_over_J", -2.0, 2.0, 201)),
            description="steady g2 versus Delta_plus/J for several probe-to-drive ratios",
        ),
        ScenarioConfig(
            name="fig4", mode="steady",
            params={"kappa_over_2pi_MHz": 1.0, "Omega_m_over_2pi_MHz": 0.1,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 0.5, 6.0, 201)),
            description="steady g2 versus probe-to-drive ratio for several couplings J",
        ),
        ScenarioConfig(
            name="fig5", mode="steady",
            params={"J_over_2pi_MHz": 20.0, "Omega_m_over_2pi_MHz": 0.1,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.kappa_over_2pi_MHz", (0.5, 1.0)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 1.0, 6.0, 201)),
            description="numeric versus closed-form g2 over the probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig6a", mode="steady",
            params={"Omega_m_over_2pi_MHz": 0.1, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.J_over_2pi_MHz", 5.0, 40.0, 101),
                  SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.1, 1.2, 101)),
            description="heatmap of steady g2 over coupling J and decay kappa",
        ),
        ScenarioConfig(
            name="fig6b", mode="steady",
            params={"J_over_2pi_MHz": 35.0, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.Omega_m_over_2pi_MHz", 0.005, 0.2, 101),
                  SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.1, 1.2, 101)),
            description="heatmap of steady g2 over drive strength and decay at J/2pi = 35 MHz",
        ),
        ScenarioConfig(
            name="fig7a", mode="steady",
            params={"kappa_over_2pi_MHz": 0.5, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0)),
                  SweepAxis.from_linspace("params.Omega_m_over_2pi_MHz", 0.005, 0.2, 201)),
            description="steady g2 versus drive strength for several couplings J",
        ),
        ScenarioConfig(
            name="fig7b", mode="steady",
            params={**{k: v for k, v in opt35.items() if k != "kappa_over_2pi_MHz"},
                    "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.kappa_over_2pi_MHz", 0.2, 1.5, 201),),
            description="steady g2 versus decay rate at the optimal drive point",
        ),
        ScenarioConfig(
            name="fig8a", mode="steady",
            params={**opt35, "Delta_plus_over_J": 1.0},
            axes=(SweepAxis("params.m_th", (1e-8, 1e-7, 1e-6)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 1.0, 6.0, 201)),
            description="thermal-occupation effect on the optimal probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig8b", mode="steady",
            params={**opt35, "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0,
                    "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis.from_linspace("params.T_mK", 1.0, 25.0, 201),),
            description="steady g2 versus environment temperature",
        ),
        ScenarioConfig(
            name="fig9a", mode="periodic",
            params={**opt35, "Delta_plus_over_J": 1.0,
                    "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis("params.g_rp_over_J", (0.1, 0.2, 0.3)),
                  SweepAxis.from_linspace("params.Omega_q_over_Omega_m", 2.5, 4.0, 201)),
            description="longitudinal-coupling effect on the optimal probe-to-drive ratio",
        ),
        ScenarioConfig(
            name="fig9b", mode="periodic",
            params={"kappa_over_2pi_MHz": 0.5, "Omega_q_over_Omega_m": 3.0,
                    "Delta_plus_over_J": 1.0, "drive_freq_over_2pi_MHz": 1500.0},
            axes=(SweepAxis("params.J_over_2pi_MHz", (14.0, 21.0, 28.0, 35.0),
                            paired={"params.Omega_m_over_2pi_MHz":
                                    (0.021, 0.025, 0.029, 0.033)}),
                  SweepAxis.from_linspace("params.g_rp_over_J", 0.0, 0.5, 201)),
            description="steady g2 versus longitudinal-to-transversal coupling ratio",
        ),
        ScenarioConfig(
            name="fig10", mode="roots",
            params={"J_over_2pi_MHz": 35.0, "Omega_m_over_2pi_MHz": 0.033,
                    "Delta_plus_over_J": 1.0},
            axes=(SweepAxis.from_linspace("params.r_kappa_over_J", 0.005, 0.25, 201),),
            description="optimal-ratio roots l1, l2 and analytic versus numeric g2 over r",
        ),
        ScenarioConfig(
            name="fig11", mode="time_series",
            params={**opt35, "Omega_q_over_Omega_m": 3.0, "Delta_plus_over_J": 1.0},
            axes=(),
            options={"kappa_t_max": 30.0, "time_points": 201,
                     "initial_state": "g1"},
            description="population dynamics from a single-magnon initial state",
        ),
    ]
    return scenarios


def get_scenario(name: str) -> ScenarioConfig:
    for cfg in built_in_scenarios():
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
            kind = type(_OPTIONS[opt].default) if opt in _OPTIONS else str
            options[opt] = convert(key, value, kind)
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

    return ScenarioConfig(name=name, mode=mode, params=params, axes=tuple(axes),
                          fock_dim=fock_dim, options=options, output=output)
