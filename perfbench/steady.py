#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code, per workload.

Usage::

    python3 perfbench/steady.py [--workloads fast-cold,warm-rerun]

Each set is :data:`RUNS` fresh ``run.py --trace 0`` invocations of
``run_seconds`` (from ``BENCHMARK.json``), each with its own seed: set 1
uses seeds 101..110, set 2 seeds 201..210.  For every workload x end-to-end
metric it prints each set's median, quartiles (``statistics.quantiles(n=4)``)
and spread (interquartile range over median), then whether the two sets
agree within the metric's bound from ``BENCHMARK.json``:

- each set's spread is within the bound, and
- the two medians differ by at most the bound, as a share of set 1's, in
  either direction: both sets run the same code, so neither is the baseline.

A spread under a third of its bound is the target; the last column says
whether each metric meets it.  Exits 1 when any run fails its checks or any
metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"

#: Invocations per set; there are two sets.
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets: List[Dict[str, List[float]]] = []
        for s in (1, 2):
            values: Dict[str, List[float]] = {name: [] for name in metrics}
            for seed in range(100 * s + 1, 100 * s + RUNS + 1):
                result = one_run(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} points failed", file=sys.stderr)
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        report[workload] = {}
        for name, spec in metrics.items():
            first, second = (summary(values[name]) for values in sets)
            bound = spec["bound"]
            change = (second["median"] - first["median"]) / first["median"]
            agree = max(first["spread"], second["spread"], abs(change)) <= bound
            target = max(first["spread"], second["spread"]) < bound / 3
            ok &= agree
            report[workload][name] = {"sets": [first, second], "change": change,
                                      "agree": agree, "target": target}
            cells = "  ".join(
                f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:6.2%}"
                for st in (first, second)
            )
            print(f"{workload:<14} {name:<13} {cells}  change {change:+.2%} "
                  f"bound {bound:.0%}  {'agree' if agree else 'DISAGREE'}"
                  f"  {'<bound/3' if target else '>=bound/3'}", flush=True)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
