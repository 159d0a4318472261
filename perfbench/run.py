"""Sweep-throughput benchmark of the magnon-blockade simulator.

    python3 perfbench/run.py --workload steady_grid [--seed 1] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload all          # every workload, traced and not

Run from anywhere; the program is taken from ``src/`` next to this
directory, never from an installed copy. Each repeat is one fresh process
running one sweep through ``magnonblockade.cli.main`` (see child.py), for as
many repeats as fit in ``--seconds`` (at least two). With ``--trace 1`` the
repeats alternate between traced and untraced sweeps and the per-layer
metrics are reported instead of the end-to-end ones. After the repeats the
outputs are checked against the references in oracle.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run metadata. A fuller record, with every sample, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "points_per_s": "points/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYERS_TIMED = (
    "dynamics.steady_state", "dynamics.build_liouvillian",
    "dynamics.steady_state_periodic", "dynamics.evolve",
    "model.build_h_eff", "model.collapse_channels", "hilbert.DensityMatrix.validate",
    "observables.g2_zero", "observables.populations", "observables.g2_time_series",
    "analytic.g2_analytic",
    "scenarios.run_scenario", "scenarios.emit_csv", "cli.main",
)
PER_LAYER = {
    **{f"{layer}.{q}": unit for layer in _LAYERS_TIMED
       for q, unit in (("self_ms", "ms"), ("calls", "count"))},
    "dynamics.evolve.rk4_steps": "count",
    "dynamics.liouvillian_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

MIN_SWEEPS = 2
SETUP_SAMPLES = 15
# An invocation must end within 180 s: sweeps stop starting once the longest
# so far would end past SWEEP_BUDGET_S, and a sweep still running at
# SWEEP_DEADLINE_S is killed (and counts as failed). The rest is left for
# the reference check.
SWEEP_BUDGET_S = 110.0
SWEEP_DEADLINE_S = 150.0


class FatalError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(key, None)
    env["PYTHONPATH"] = SRC
    return env


def _run_child(config: str, work: str, deadline: float, traced: bool = False,
               setup_only: bool = False) -> dict:
    """Start child.py in a fresh process and return its measurements, or a
    dict with ``failure`` set if the process did not finish cleanly or by
    ``deadline`` (a ``time.monotonic()`` value)."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [sys.executable, os.path.join(HERE, "child.py"), config, work]
    flags = (["--trace"] if traced else []) + (["--setup-only"] if setup_only else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv + [repr(t_spawn)] + flags, env=_child_env(), cwd=work,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"failure": "sweep process killed at the run's deadline", "traced": traced}
    wall = time.monotonic() - t_spawn
    result_path = os.path.join(work, "child.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failure": f"sweep process exited {proc.returncode}: {tail[0]}",
                "traced": traced, "wall_s": wall}
    with open(result_path) as fh:
        result = json.load(fh)
    if not result["package"].startswith(SRC + os.sep):
        raise FatalError(f"magnonblockade imported from {result['package']}, not {SRC}")
    result.update(traced=traced, wall_s=wall)
    if not setup_only:
        if result["exit_code"] != 0:
            result["failure"] = f"cli exited {result['exit_code']}"
        else:
            with open(result["csv"], "rb") as fh:
                result["csv_bytes"] = fh.read()
            with open(result["diag"]) as fh:
                result["point_ms"] = [json.loads(line)["wall_time_s"] * 1e3
                                      for line in fh if line.strip()]
    return result


def parse_csv(text: str) -> list[dict]:
    """Rows of the program's CSV as dicts: floats, None for empty cells and
    the error tag as a string."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# scenario="):
        raise ValueError("CSV lacks the scenario tag line")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"CSV row has {len(cells)} cells, expected {len(columns)}")
        rows.append({c: (v if c == "error" else (float(v) if v else None))
                     for c, v in zip(columns, cells)})
    return rows


def _verdicts(wl, csv_bytes: bytes, refs, cache: dict) -> list:
    """Per-point check result of one sweep's CSV; identical outputs are
    checked once."""
    key = hashlib.sha256(csv_bytes).hexdigest()
    if key not in cache:
        try:
            cache[key] = oracle.check(wl, parse_csv(csv_bytes.decode()), refs)
        except (ValueError, KeyError, TypeError) as exc:
            cache[key] = [f"unreadable CSV: {exc}"] * wl.n_points
    return cache[key]


# With nothing measured (every sweep failed, so the run is not correct) a
# metric reads 0, which keeps the result line valid JSON.
def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(wl, seconds: int, trace: int, blas) -> dict:
    return {
        "workload": wl.name, "seed": wl.seed, "confirm_seed": workloads.CONFIRM_SEED,
        "seconds": seconds, "trace": trace, "grid_points": wl.n_points,
        "fock_dim": wl.spec.fock_dim,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu": _cpu_model(), "cache": _cache_sizes(),
        "git_commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload; returns the result record (see module doc)."""
    invoked = time.monotonic()
    deadline = invoked + SWEEP_DEADLINE_S
    wl = workloads.make(name, seed)
    work = os.path.join(STATE_DIR, "work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, f"{name}.cfg")
    with open(config, "w") as fh:
        fh.write(wl.config_text())
    child_dir = os.path.join(work, "child")
    try:
        # untimed: writes the bytecode caches and warms the file cache
        _run_child(config, child_dir, deadline, setup_only=True)
        sweeps = []
        start = time.monotonic()
        while True:
            traced = bool(trace) and len(sweeps) % 2 == 0
            sweeps.append(_run_child(config, child_dir, deadline, traced=traced))
            now = time.monotonic()
            longest = max(s.get("wall_s", now - start) for s in sweeps)
            if now + longest > invoked + SWEEP_BUDGET_S:
                break
            if len(sweeps) >= MIN_SWEEPS and now + longest > start + seconds:
                break
        setups = [s["setup_s"] for s in sweeps if "failure" not in s and not s["traced"]]
        while not trace and len(setups) < SETUP_SAMPLES:
            probe = _run_child(config, child_dir, deadline, setup_only=True)
            if "failure" in probe:
                break
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refs = oracle.reference(wl)
    cache: dict = {}
    failures = []
    for s in sweeps:
        if "failure" in s:
            s["verdicts"] = [s["failure"]] * wl.n_points
        else:
            s["verdicts"] = _verdicts(wl, s.pop("csv_bytes"), refs, cache)
        s["good"] = sum(v is None for v in s["verdicts"])
        failures += [f"point {i}: {v}" for i, v in enumerate(s["verdicts"]) if v]
    attempted = wl.n_points * len(sweeps)
    failed = attempted - sum(s["good"] for s in sweeps)
    ok = [s for s in sweeps if "failure" not in s]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]

    if trace:
        metrics = _layer_metrics(wl, traced, plain)
    else:
        metrics = _end_to_end_metrics(plain, setups)
    samples = {
        "sweep_s": [s["sweep_s"] for s in ok],
        "traced": [s["traced"] for s in ok],
        "setup_s": setups if not trace else [],
        "failed_frac": failed / attempted,
    }
    blas = next((s["blas_threads"] for s in ok), None)
    return {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "meta": metadata(wl, seconds, trace, blas), "samples": samples,
        "failures": failures[:20],
    }


def _end_to_end_metrics(plain: list, setups: list) -> dict:
    # Each grid point's median time over the repeats, so that a burst of load
    # from outside during one repeat does not set the percentiles, while a
    # point that is slow in every repeat (the first, cold one) still does.
    point_ms = [_median(times) for times in zip(*(s["point_ms"] for s in plain))]
    values = {
        "points_per_s": _median([s["good"] / s["sweep_s"] for s in plain]),
        "point_ms_p50": _percentile(point_ms, 50),
        "point_ms_p90": _percentile(point_ms, 90),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _layer_metrics(wl, traced: list, plain: list) -> dict:
    per_sweep = []
    for s in traced:
        recorded = spans.spans_from_export(s["trace"])
        agg = spans.aggregate(recorded)
        row = {}
        for name in PER_LAYER:
            layer, _, quantity = name.rpartition(".")
            if layer in agg:
                row[name] = agg[layer].get(quantity, 0)
        row["trace.coverage_frac"] = spans.coverage(recorded, s["sweep_s"])
        per_sweep.append(row)
    values = {name: _median([row.get(name, 0) for row in per_sweep]) for name in PER_LAYER}
    d = 2 * wl.spec.fock_dim
    values["dynamics.liouvillian_bytes"] = d ** 4 * 16
    if traced and plain:
        values["trace.overhead_frac"] = (_median([s["sweep_s"] for s in traced])
                                         / _median([s["sweep_s"] for s in plain]) - 1.0)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def _print_report(result: dict):
    meta, samples = result["meta"], result["samples"]
    n_plain = samples["traced"].count(False)
    n_traced = samples["traced"].count(True)
    print(f"# {meta['workload']} seed={meta['seed']} points={meta['grid_points']} "
          f"N={meta['fock_dim']} sweeps={n_plain} untraced + {n_traced} traced "
          f"setups={len(samples['setup_s'])} blas_threads={meta['blas_threads']} "
          f"nproc={meta['nproc']}")
    for name, m in result["metrics"].items():
        print(f"{meta['workload']:<15} {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{meta['workload']:<15} {'failed_frac':<44} {samples['failed_frac']:>16.6g} ratio")
    for line in result["failures"][:5]:
        print(f"  FAILED {line}")


def _save(result: dict):
    meta = result["meta"]
    out = os.path.join(STATE_DIR, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"BENCH_{meta['workload']}_seed{meta['seed']}"
                             f"_trace{meta['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SPECS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "magnonblockade", "__init__.py")):
        print(f"error: no program to measure: {SRC}/magnonblockade is missing",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in workloads.SPECS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    try:
        results = []
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace)
            _print_report(result)
            _save(result)
            results.append(result)
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"meta": results[0]["meta"]} if len(results) == 1
                     else {"meta": [r["meta"] for r in results]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
