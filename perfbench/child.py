"""One sweep in a fresh process, run the way a CLI user runs it.

    python3 perfbench/child.py <config> <out_dir> <t_spawn> [--trace] [--setup-only]

``t_spawn`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time includes interpreter
start-up. Set-up ends once ``magnonblockade`` is imported and the config is
parsed and resolved into grid points. The sweep is then one in-process call of
``magnonblockade.cli.main(["run", <config>, "--out", ...])`` with the default
``--threads 1``. The measurements go to ``<out_dir>/child.json``.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time


def blas_threads():
    """Effective OpenBLAS thread count of numpy's bundled scipy-openblas,
    or None when numpy carries no such library."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    found = glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(found[0])
    fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return int(fn())


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    Not ``ru_maxrss``: Linux carries the parent's peak over into it across
    fork and exec, so it would report the benchmark's own size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv) -> int:
    config, out_dir, t_spawn = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv
    setup_only = "--setup-only" in argv

    import magnonblockade
    from magnonblockade import cli, scenarios

    with open(config) as fh:
        cfg = scenarios.parse_config(fh.read())
    n_points = len(cfg.grid_points())
    setup_s = time.monotonic() - t_spawn

    result = {"setup_s": setup_s, "n_points": n_points,
              "package": os.path.abspath(magnonblockade.__file__)}
    if not setup_only:
        restore = None
        if traced:
            import spans

            tracer = spans.Tracer(trace_id=f"{os.getpid()}-{time.time_ns()}")
            restore = spans.install(tracer)
        csv_path = os.path.join(out_dir, "sweep.csv")
        start = time.perf_counter()
        rc = cli.main(["run", config, "--out", csv_path])
        sweep_s = time.perf_counter() - start
        if restore is not None:
            restore()
            result["trace"] = tracer.export()
        result.update(
            exit_code=rc, sweep_s=sweep_s, csv=csv_path,
            diag=csv_path + ".diag.jsonl",
            peak_rss_mb=peak_rss_mb(),
            blas_threads=blas_threads())
    with open(os.path.join(out_dir, "child.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
