"""Measure how steady the benchmark is, and record it.

    python3 perfbench/steadiness.py

For every workload of ``BENCHMARK.json``, runs ``perfbench/run.py`` untraced
ten times in each of two sets, each run with its own seed (set ``k`` uses
seeds ``1000 k + 1 ... 1000 k + 10``), at the configured ``run_seconds``,
and writes ``perfbench/steadiness.json``.  For each
end-to-end metric it records every value, the median, and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread is steady when it is within a third of the metric's bound; the
medians of two sets should differ by less than the bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "steadiness.json"
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run's result object (``correct`` false and no
    metrics when the run exited without one)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median,
        "spread": spread,
        "within_third_of_bound": spread <= bound / 3,
        "values": values,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    sets = []
    for index in range(1, SETS + 1):
        workloads = {}
        for workload in (w["name"] for w in config["workloads"]):
            seeds = [1000 * index + run for run in range(1, RUNS + 1)]
            results = [run_once(workload, seed, config["run_seconds"]) for seed in seeds]
            incorrect = [s for s, r in zip(seeds, results) if not r["correct"]]
            measured = [r for r in results if r["metrics"]]
            workloads[workload] = {
                "seeds": seeds,
                "incorrect_seeds": incorrect,
                "metrics": {
                    name: summarize(
                        [r["metrics"][name]["value"] for r in measured], bound
                    )
                    for name, bound in bounds.items()
                },
            }
            for name, entry in workloads[workload]["metrics"].items():
                print(f"set {index} {workload:<15} {name:<16} median "
                      f"{entry['median']:.6g} spread {entry['spread']:.4f} "
                      f"(bound {bounds[name]})", flush=True)
        sets.append(workloads)
    first, second = sets
    drift = {
        workload: {
            name: second[workload]["metrics"][name]["median"]
            / first[workload]["metrics"][name]["median"] - 1.0
            for name in bounds
        }
        for workload in first
    }
    document = {
        "host": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
                f"Python {platform.python_version()}",
        "run_seconds": config["run_seconds"],
        "bounds": bounds,
        "sets": sets,
        "second_over_first_median": drift,
    }
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
