"""Per-point cost of a sweep's first points, in a fresh process.

    python3 tools/cold_points.py CONFIG [--src PATH] [--first K]

Runs ``magnon-blockade run CONFIG`` (a config file or a built-in scenario
name) through ``cli.main`` in a new Python process, as a CLI user runs it,
with ``magnonblockade`` imported from ``src/`` of this checkout or from the
``src`` directory named by ``--src`` (a checkout of the parent commit, say).
The CSV and its sidecar go to a temporary directory.

The child reads its minor page faults (``resource.getrusage``) just before
and just after the sweep, and around each solve of a grid point or of a
chunk of them. Prints the sweep's wall time and minor faults, then one line
for each of the first K points (default 5): its ``wall_time_s`` and
``chunk`` from the sidecar and the minor faults of the solve it belongs to.
The last line gives the largest and the total minor faults of the solves
after the first K, the cost a warm sweep should not pay.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in the child: argv is [src, config, csv path]. Each mode's solve is
# wrapped to record (points solved, minor faults) per call.
_CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from magnonblockade import cli, scenarios

solves = []

def counted(fn, points):
    def solve(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return fn(*args)
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solves.append((points(args), after - before))
    return solve

for name, mode in scenarios._MODES.items():
    scenarios._MODES[name] = mode._replace(
        rows=counted(mode.rows, lambda args: 1),
        chunk=mode.chunk and counted(mode.chunk, lambda args: len(args[0])))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
status = cli.main(["run", sys.argv[2], "--out", sys.argv[3]])
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"status": status, "wall_s": wall, "faults": faults, "solves": solves}))
"""


def measure(config: str, src: str) -> dict:
    """The child's report: exit status, sweep wall time and faults, the
    (points, faults) of each solve in order, and per point of the sidecar its
    ``wall_time_s``, ``chunk`` and solve faults."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        proc = subprocess.run([sys.executable, "-c", _CHILD, os.path.abspath(src),
                               os.path.abspath(config) if os.path.exists(config) else config,
                               out], capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        with open(out + ".diag.jsonl") as fh:
            diags = [json.loads(line) for line in fh if line.strip()]
    per_point = [faults for points, faults in report["solves"] for _ in range(points)]
    report["points"] = [{"index": d["index"], "wall_time_s": d["wall_time_s"],
                         "chunk": d["chunk"], "faults": faults}
                        for d, faults in zip(diags, per_point)]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="config file or built-in scenario name")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the magnonblockade package")
    parser.add_argument("--first", type=int, default=5, help="points to list (default 5)")
    args = parser.parse_args(argv)
    report = measure(args.config, args.src)
    points = report["points"]
    print(f"sweep: {len(points)} points in {report['wall_s']:.4f} s, "
          f"{report['faults']} minor faults, exit {report['status']}")
    print("index  wall_time_s  chunk  solve_faults")
    for point in points[:args.first]:
        print(f"{point['index']:>5}  {point['wall_time_s']:>11.6f}  {point['chunk']:>5}  "
              f"{point['faults']:>12}")
    later = [faults for _, faults in report["solves"][args.first:]]
    print(f"solves after the first {args.first}: {len(later)}, minor faults "
          f"largest {max(later, default=0)}, total {sum(later)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
