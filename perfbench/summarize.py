"""Median, quartiles and spread of each metric over saved benchmark runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload train-std --seed $s --seconds 20 --trace 0
    done
    python3 perfbench/summarize.py .bench_results/train-std-seed*-trace0.json

Each file holds the JSON line of one run. The spread is the distance between
the first and third quartiles as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths: list[str]) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{len(paths)} runs")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}  unit")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}  {units[name]}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
