"""Alternated benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S] [--seconds T]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T`` in each
checkout, N times each, in pairs: the parent runs first in odd pairs and
second in even ones, so that a drift in the machine's load falls on both
sides alike. Each run's result is the last line of its standard output.

Prints each pair, then for each end-to-end metric of ``BENCHMARK.json`` the
median and quartiles per side and the number of pairs each side won, by the
metric's ``better`` direction. A metric whose change median is worse than the
parent's by more than its ``bound``, as a fraction of the parent's median, is
flagged "outside bound": that is the benchmark's rejection rule. A metric
whose parent runs spread wider than its bound (interquartile range over
median) is flagged "unresolved", since the pairs cannot then tell a change
within the bound from none, unless every change run beats every parent run.
Exits with status 1 if any run is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    """{metric name: "higher" or "lower"}, in the file's order."""
    with open(path) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    """{metric name: the largest accepted relative worsening}."""
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def outside_bound(ratio: float, direction: str, bound: float) -> bool:
    """Whether a change median of ``ratio`` times the parent's is worse, in
    ``direction``, by more than ``bound`` of the parent's."""
    worse = 1.0 - ratio if direction == "higher" else ratio - 1.0
    return worse > bound


def unresolved(parent: list, change: list, direction: str, bound: float) -> bool:
    """Whether the parent runs' interquartile range is wider than ``bound`` of
    their median while some change run fails to beat, in ``direction``,
    every parent run."""
    q1, median, q3 = _quartiles(parent)
    sign = 1.0 if direction == "higher" else -1.0
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    return q3 - q1 > bound * abs(median) and not separated


def order(pair: int) -> tuple:
    """The sides of pair number ``pair`` (from 1) in running order."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``: its result line, or an incorrect
    result carrying the reason when there is none."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "metrics": {}, "error": f"exit {proc.returncode}: {tail}"}


def _value(result: dict, name: str) -> float | None:
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pair_line(pair: int, results: dict, better: dict) -> str:
    """One pair: each metric as parent -> change, and whether each run was correct."""
    parts = [f"pair {pair} ({order(pair)[0]} first)"]
    for name in better:
        a, b = (_value(results[side], name) for side in SIDES)
        if a is not None and b is not None:
            parts.append(f"{name} {a:.4g} -> {b:.4g}")
    parts += [f"{side} incorrect {results[side].get('error', '')}".rstrip()
              for side in SIDES if not results[side]["correct"]]
    return "; ".join(parts)


def summary(pairs: list, better: dict, limits: dict | None = None) -> list:
    """Per metric: median [q1, q3] of each side, the change's median over the
    parent's, and the pairs each side won (ties count for neither); with
    ``limits``, {metric: bound}, a metric outside its bound or unresolved is
    flagged."""
    lines = []
    for name, direction in better.items():
        values = {side: [_value(p[side], name) for p in pairs] for side in SIDES}
        complete = [i for i in range(len(pairs))
                    if all(values[side][i] is not None for side in SIDES)]
        if not complete:
            continue
        runs = {side: [values[side][i] for i in complete] for side in SIDES}
        stats = {side: _quartiles(runs[side]) for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = {side: 0 for side in SIDES}
        for i in complete:
            diff = sign * (values["change"][i] - values["parent"][i])
            if diff:
                wins["change" if diff > 0 else "parent"] += 1
        ratio = stats["change"][1] / stats["parent"][1] if stats["parent"][1] else float("nan")
        sides = "; ".join(f"{side} median {stats[side][1]:.4g} [{stats[side][0]:.4g}, "
                          f"{stats[side][2]:.4g}]" for side in SIDES)
        line = (f"{name} ({direction} is better): {sides}; change/parent {ratio:.3f}; "
                f"won: change {wins['change']}, parent {wins['parent']} of {len(complete)}")
        if limits and name in limits:
            if outside_bound(ratio, direction, limits[name]):
                line += f"; outside bound {limits[name]:g}"
            if unresolved(runs["parent"], runs["change"], direction, limits[name]):
                line += f"; unresolved, parent spread wider than {limits[name]:g}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = end_to_end()
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for pair in range(1, args.pairs + 1):
        results = {side: run_once(checkouts[side], args.workload, args.seed, args.seconds)
                   for side in order(pair)}
        pairs.append(results)
        print(pair_line(pair, results, better), flush=True)
    for line in summary(pairs, better, bounds()):
        print(line)
    return 0 if all(p[side]["correct"] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
