"""Command-line runner for the built-in and user-supplied sweep scenarios."""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from collections import Counter
from dataclasses import replace

from .scenarios import (
    ConfigError,
    built_in_scenarios,
    convergence_check,
    get_scenario,
    parse_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2

_GRID_HELP = "points on each linspace axis (a config error if the scenario has none)"

# glibc mallopt parameters and the ceilings its dynamic thresholds reach on a
# 64-bit build: DEFAULT_MMAP_THRESHOLD_MAX, and twice that for the trim threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds of this process at their dynamic
    ceilings. Under the dynamic thresholds glibc hands the top of the heap
    back to the kernel when a grid point frees its arrays, and the next point
    faults the same pages in again; pinned, a sweep's points after the first
    reuse them. Arrays of 32 MiB or more are still mapped and unmapped on
    their own. A no-op where the C library has no ``mallopt`` (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 where it refuses a value; the process then keeps glibc's defaults
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _load_config(target: str, grid: int | None, fock_dim: int | None):
    if os.path.exists(target):
        with open(target) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = get_scenario(target)
    if grid is not None:
        cfg = cfg.with_grid(grid)
    if fock_dim is not None:
        cfg = replace(cfg, fock_dim=fock_dim)
    return cfg


def _cmd_list(_args) -> int:
    for cfg in built_in_scenarios():
        n_points = len(cfg.grid_points())
        print(f"{cfg.name:<8} {cfg.mode:<12} {n_points:>6} points  {cfg.description}")
    return EXIT_OK


def _summary(n_points: int, wall: float, result) -> str:
    """One line: points, wall time, points/s, the worst ``residual_inf`` (where
    the mode reports it) and the failed points counted by error type."""
    parts = [f"{n_points} points in {wall:.3g} s ({n_points / wall:.4g} points/s)"]
    if "residual_inf" in result.columns:
        residuals = [r for r in result.column("residual_inf") if r is not None]
        parts.append(f"worst residual_inf {max(residuals):.3e}" if residuals
                     else "worst residual_inf n/a")
    errors = Counter(e.split(":", 1)[0] for e in result.column("error") if e)
    parts.append("failures: " + (", ".join(f"{n} {kind}" for kind, n in sorted(errors.items()))
                                 or "none"))
    return "; ".join(parts)


def _cmd_run(args) -> int:
    cfg = _load_config(args.target, args.grid, args.fock_dim)
    out = args.out or cfg.output or f"{cfg.name}.csv"
    sidecar = out + ".diag.jsonl"
    start = time.perf_counter()
    result = run_scenario(cfg, out=out, diagnostics_out=sidecar)
    wall = time.perf_counter() - start
    failures = [e for e in result.column("error") if e]
    print(f"{cfg.name}: {len(result.rows)} records -> {out} (diagnostics {sidecar})")
    if failures:
        print(f"{len(failures)} point(s) failed; first error: {failures[0]}", file=sys.stderr)
    print(_summary(len(cfg.grid_points()), wall, result))
    return EXIT_SOLVER if failures and args.strict else EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load_config(args.target, args.grid, None)
    try:
        dims = [int(v) for v in args.fock_dims.split(",")]
    except ValueError:
        raise ConfigError(f"--fock-dims must be comma-separated integers, "
                          f"got {args.fock_dims!r}") from None
    try:
        report = convergence_check(cfg, dims)
    except ConfigError:
        raise
    except Exception as exc:  # a failed solve is reported, not a traceback
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(report)
    for values in report.point_values:
        print("  " + "  ".join(f"N={n}: {g2:.6e}" for n, g2 in values.items()))
    return EXIT_OK if report.passed else EXIT_SOLVER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magnon-blockade",
        description="Steady-state and dynamical magnon-blockade sweeps, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in scenarios")

    run_p = sub.add_parser("run", help="run a built-in scenario or a config file")
    run_p.add_argument("target", help="scenario name or path to a config file")
    run_p.add_argument("--out", help="output CSV path (default <scenario>.csv)")
    run_p.add_argument("--fock-dim", type=int, help="override the Fock truncation")
    run_p.add_argument("--grid", type=int, help=_GRID_HELP)
    run_p.add_argument("--strict", action="store_true",
                       help="exit with status 2 if any grid point fails")

    conv_p = sub.add_parser("converge", help="truncation-convergence check")
    conv_p.add_argument("target", help="scenario name or path to a config file")
    conv_p.add_argument("--fock-dims", default="4,6,8",
                        help="comma-separated truncations to compare")
    conv_p.add_argument("--grid", type=int, help=_GRID_HELP)

    args = parser.parse_args(argv)
    _pin_malloc_thresholds()
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_converge(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
