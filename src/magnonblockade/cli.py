"""Command-line runner for the built-in and user-supplied sweep scenarios."""

from __future__ import annotations

import argparse
import os
import sys

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


def _load_config(target: str, grid: int | None, fock_dim: int | None):
    if os.path.exists(target):
        with open(target) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = get_scenario(target)
    if grid is not None:
        cfg = cfg.with_grid(grid)
    if fock_dim is not None:
        cfg = cfg.with_fock_dim(fock_dim)
    return cfg


def _cmd_list(_args) -> int:
    for cfg in built_in_scenarios():
        n_points = len(cfg.grid_points())
        print(f"{cfg.name:<8} {cfg.mode:<12} {n_points:>6} points  {cfg.description}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_config(args.target, args.grid, args.fock_dim)
    out = args.out or cfg.output or f"{cfg.name}.csv"
    sidecar = out + ".diag.jsonl"
    result = run_scenario(cfg, out=out, diagnostics_out=sidecar)
    failures = [row for row in result.rows
                if row[result.columns.index("error")]]
    print(f"{cfg.name}: {len(result.rows)} records -> {out} (diagnostics {sidecar})")
    if failures:
        print(f"{len(failures)} point(s) failed; first error: "
              f"{failures[0][result.columns.index('error')]}", file=sys.stderr)
        if args.strict:
            return EXIT_SOLVER
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _load_config(args.target, args.grid, None)
    dims = [int(v) for v in args.fock_dims.split(",")]
    report = convergence_check(cfg, dims)
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
    run_p.add_argument("--grid", type=int, help="override linspace axis density")
    run_p.add_argument("--strict", action="store_true",
                       help="exit with status 2 if any grid point fails")

    conv_p = sub.add_parser("converge", help="truncation-convergence check")
    conv_p.add_argument("target", help="scenario name or path to a config file")
    conv_p.add_argument("--fock-dims", default="4,6,8",
                        help="comma-separated truncations to compare")
    conv_p.add_argument("--grid", type=int, help="override linspace axis density")

    args = parser.parse_args(argv)
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
