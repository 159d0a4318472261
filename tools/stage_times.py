"""Microseconds per grid point of each stage of a static or periodic sweep, in-process.

    python3 tools/stage_times.py CONFIG [--src PATH]

Runs ``run_scenario`` on CONFIG (a config file or a built-in scenario name)
in a new Python process at one BLAS thread (``OPENBLAS_NUM_THREADS=1``),
with ``magnonblockade`` imported from ``src/`` of this checkout or from the
``src`` directory named by ``--src`` (a checkout of the parent commit, say).
The sweep runs once to warm the caches and then three times with the
library's stage functions wrapped in timers, and each stage's time is the
least of the three. A wrapped call's time goes to its stage less the time
of the wrapped calls inside it, so each stage counts its own work once.
Stage functions a checkout does not have are skipped, which lets the same
table be taken of two checkouts whose internals differ:

  build        the Hamiltonians, channels and Liouvillian entries
  rows         the level rows (np.bincount of the entries)
  harmonics    the periodic state's harmonic recursion, which forms G
  elimination  the block elimination of every kernel solve, static or G's
  residual     max|L x| from the level rows
  verdicts     the density-matrix checks of the states
  states       the rest of the steady solve: fallbacks and DensityMatrix objects
  columns      the output cells: parameters, populations, g2, the analytic column
  record       the sweep's own loop: rows in column order and the sidecar lines

Prints one line per stage and the total, then the wall time per point of an
unwrapped sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STAGES = {
    "build": ("model.build_h_eff", "model.collapse_channels", "model._h_eff_stack",
              "model._nonhermitian", "model._channel_stack", "dynamics.build_liouvillian",
              "dynamics._stacked_weights", "dynamics.steady_states"),
    "rows": ("dynamics._group_rows", "dynamics._chunk_rows"),
    "harmonics": ("dynamics._harmonic_state", "dynamics._truncated_harmonics"),
    "elimination": ("dynamics._blocked_kernel",),
    "residual": ("dynamics._residuals",),
    "verdicts": ("hilbert._density_errors",),
    "states": ("dynamics._steady_stack", "dynamics.steady_state", "dynamics.steady_state_periodic"),
    "columns": ("scenarios._system_params", "scenarios._steady_rows", "scenarios._steady_chunk",
                "scenarios._steady_columns", "scenarios._periodic_rows", "scenarios._state_columns",
                "observables.populations", "observables.g2_zero", "observables._g2",
                "analytic.g2_analytic"),
    "record": ("scenarios.run_scenario",),
}

# Runs in the child: argv is [src, config, stages as JSON].
_CHILD = r"""
import dataclasses, importlib, json, os, sys, time
sys.path.insert(0, sys.argv[1])
from magnonblockade import scenarios

config, stages = sys.argv[2], json.loads(sys.argv[3])
if os.path.exists(config):
    with open(config) as fh:
        cfg = scenarios.parse_config(fh.read())
else:
    cfg = scenarios.get_scenario(config)
cfg = dataclasses.replace(cfg, output=None)
points = len(cfg.grid_points())
spent = dict.fromkeys(stages, 0.0)
inner = []  # per open wrapped call, the time of the wrapped calls inside it


def timed(stage, fn):
    def call(*args, **kwargs):
        inner.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - start
            spent[stage] += total - inner.pop()
            if inner:
                inner[-1] += total
    return call


wrappers, modules = {}, {}
for stage, names in stages.items():
    for name in names:
        short, attr = name.split(".")
        module = modules.setdefault(short, importlib.import_module("magnonblockade." + short))
        fn = getattr(module, attr, None)
        if fn is not None:
            wrappers[fn] = timed(stage, fn)
originals = []
for module in [importlib.import_module("magnonblockade"), *modules.values()]:
    for key, value in list(vars(module).items()):
        if callable(value) and not isinstance(value, type) and value in wrappers:
            originals.append((module, key, value))
modes = dict(scenarios._MODES)


def install(on):
    for module, key, value in originals:
        setattr(module, key, wrappers[value] if on else value)
    for name, mode in modes.items():
        scenarios._MODES[name] = mode._replace(**{
            field: wrappers.get(getattr(mode, field), getattr(mode, field)) if on
            else getattr(mode, field) for field in ("rows", "chunk")})


scenarios.run_scenario(cfg)
best = None
for _ in range(3):
    spent.update(dict.fromkeys(stages, 0.0))
    install(True)
    scenarios.run_scenario(cfg)
    install(False)
    best = dict(spent) if best is None else {k: min(best[k], spent[k]) for k in spent}
start = time.perf_counter()
scenarios.run_scenario(cfg)
wall = time.perf_counter() - start
print(json.dumps({"points": points, "stages": best, "wall": wall}))
"""


def measure(config: str, src: str) -> dict:
    """The child's report: grid points, seconds per stage and the wall time
    of an unwrapped sweep."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    config = os.path.abspath(config) if os.path.exists(config) else config
    proc = subprocess.run([sys.executable, "-c", _CHILD, os.path.abspath(src), config,
                           json.dumps(STAGES)], capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="config file or built-in scenario name")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the magnonblockade package")
    args = parser.parse_args(argv)
    report = measure(args.config, args.src)
    per_point = 1e6 / report["points"]
    print(f"{report['points']} points, 1 BLAS thread, us per point (least of 3 sweeps)")
    for stage, seconds in report["stages"].items():
        print(f"{stage:<12} {seconds * per_point:9.1f}")
    print(f"{'total':<12} {sum(report['stages'].values()) * per_point:9.1f}")
    print(f"{'unwrapped':<12} {report['wall'] * per_point:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
