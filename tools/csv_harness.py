"""Byte-identity harness for the CSV output of the built-in scenarios.

    python3 tools/csv_harness.py run DIR [--src PATH]
    python3 tools/csv_harness.py compare A B
    cmp A/fig9a.csv B/fig9a.csv

``run`` writes 15 CSVs (and their diagnostics sidecars) into DIR: each
built-in scenario with a linspace axis at ``--grid 7``, and fig2a and fig11
as they are. The program comes from ``src/`` of this checkout, or from the
``src`` directory named by ``--src`` (a checkout of the parent commit, say).
Cells depend on the BLAS thread count, so run both sides with the same
``OPENBLAS_NUM_THREADS``; ``run`` records its value, or ``default`` when it
is unset, in DIR/threads.txt, and the directory it imported
``magnonblockade`` from in DIR/package.txt.

``compare`` prints both recorded thread counts, then one line per CSV: the
rows changed, the rows changed outside ``residual_inf``, the largest
|difference| in each log10 column and in ``residual_inf``, and the largest
relative |difference| in P0-P3; last, both recorded package directories. It
exits with status 1 if the thread counts differ, any row differs, a CSV is
missing on one side or both sides recorded the same package directory, as a
program compared with itself shows nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

GRID = 7
_POPULATIONS = ("P0", "P1", "P2", "P3")
_RESIDUAL = "residual_inf"
_THREADS = "threads.txt"
_PACKAGE = "package.txt"


def run(out_dir: str, src: str) -> None:
    """Write every scenario's CSV into ``out_dir``."""
    sys.path.insert(0, os.path.abspath(src))
    import magnonblockade
    from magnonblockade import cli
    from magnonblockade.scenarios import built_in_scenarios

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, _THREADS), "w") as fh:
        fh.write(os.environ.get("OPENBLAS_NUM_THREADS", "default") + "\n")
    with open(os.path.join(out_dir, _PACKAGE), "w") as fh:
        fh.write(os.path.dirname(os.path.abspath(magnonblockade.__file__)) + "\n")
    for cfg in built_in_scenarios():
        grid = ["--grid", str(GRID)] if any(ax.linspace is not None for ax in cfg.axes) else []
        path = os.path.join(out_dir, f"{cfg.name}.csv")
        if cli.main(["run", cfg.name, *grid, "--out", path]) != 0:
            raise SystemExit(f"{cfg.name} failed")


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:  # an empty cell or an error tag
        return math.nan


def _abs_diff(a: str, b: str) -> float:
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def _rel_diff(a: str, b: str) -> float:
    diff = _abs_diff(a, b)
    if diff in (0.0, math.inf):
        return diff
    return diff / max(abs(_number(a)), abs(_number(b)))


def compare_csv(path_a: str, path_b: str) -> dict:
    """Differences between two CSVs of one scenario, row by row."""
    cols_a, rows_a = _read(path_a)
    cols_b, rows_b = _read(path_b)
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        return {"rows": len(rows_a), "shape_differs": True}
    keep = [i for i, c in enumerate(cols_a) if c != _RESIDUAL]
    changed = [(a, b) for a, b in zip(rows_a, rows_b) if a != b]
    report = {
        "rows": len(rows_a),
        "shape_differs": False,
        "changed": len(changed),
        "changed_outside_residual": sum(any(a[i] != b[i] for i in keep) for a, b in changed),
        "max_abs": {}, "max_rel": {},
    }
    for i, col in enumerate(cols_a):
        if col.startswith("log10") or col == _RESIDUAL:
            report["max_abs"][col] = max((_abs_diff(a[i], b[i]) for a, b in changed), default=0.0)
        elif col in _POPULATIONS:
            report["max_rel"][col] = max((_rel_diff(a[i], b[i]) for a, b in changed), default=0.0)
    return report


def _line(name: str, report: dict | None) -> str:
    if report is None:
        return f"{name}: missing on one side"
    if report["shape_differs"]:
        return f"{name}: columns or row count differ"
    parts = [f"{name}: {report['rows']} rows, {report['changed']} changed, "
             f"{report['changed_outside_residual']} outside {_RESIDUAL}"]
    parts += [f"max |d| {col} {v:.3g}" for col, v in report["max_abs"].items()]
    parts += [f"max rel |d| {col} {v:.3g}" for col, v in report["max_rel"].items()]
    return "; ".join(parts)


def _recorded(directory: str, name: str) -> str | None:
    try:
        with open(os.path.join(directory, name)) as fh:
            return fh.read().strip()
    except FileNotFoundError:
        return None


def threads(directory: str) -> str:
    """The OPENBLAS_NUM_THREADS value ``run`` recorded in ``directory``."""
    return _recorded(directory, _THREADS) or "not recorded"


def package(directory: str) -> str | None:
    """The directory ``run`` imported magnonblockade from, as recorded in
    ``directory``, or None."""
    return _recorded(directory, _PACKAGE)


def compare(dir_a: str, dir_b: str) -> bool:
    """Print the thread counts, one line per CSV in either directory and the
    package directories; True if the thread counts and all rows agree and
    the two sides did not record one package directory."""
    counts = [threads(d) for d in (dir_a, dir_b)]
    print(f"OPENBLAS_NUM_THREADS: {counts[0]} in {dir_a}, {counts[1]} in {dir_b}")
    same = counts[0] == counts[1]
    if not same:
        print("thread counts differ: the CSVs are not comparable byte for byte")
    names = sorted({f for d in (dir_a, dir_b) for f in os.listdir(d) if f.endswith(".csv")})
    for name in names:
        paths = [os.path.join(d, name) for d in (dir_a, dir_b)]
        report = compare_csv(*paths) if all(map(os.path.exists, paths)) else None
        print(_line(name[:-len(".csv")], report))
        same = same and report is not None and not report["shape_differs"] \
            and report["changed"] == 0
    packages = [package(d) for d in (dir_a, dir_b)]
    print(f"magnonblockade: {packages[0] or 'not recorded'} in {dir_a}, "
          f"{packages[1] or 'not recorded'} in {dir_b}")
    if packages[0] is not None and packages[0] == packages[1]:
        print("both sides ran one package: the comparison shows nothing")
        return False
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="write the scenario CSVs into DIR")
    run_p.add_argument("dir")
    run_p.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                       help="the src directory to import magnonblockade from")
    cmp_p = sub.add_parser("compare", help="compare the CSVs of two run directories")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir, args.src)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
