"""semmatch benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-std --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: with OpenBLAS's default two, rank_all's matrix-vector
# product keeps a second core busy without lowering wall time (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SETUPS = 3  # one set-up before training and SETUPS - 1 in each sweep; setup_s is their median
RESULTS_DIR = ".bench_results"
WORK_DIR = ".bench_work"


def _load_program():
    """Import the benchmark modules, which import semmatch from src/."""
    if not os.path.isfile(os.path.join(SRC, "semmatch", "__init__.py")):
        sys.exit(f"error: {SRC}/semmatch not found; run from a semmatch checkout")
    sys.path[:0] = [SRC, HERE]
    import bench
    import checks
    import tracing

    return bench, checks, tracing


def _percentile(values, q):
    ordered = sorted(values)
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def _quartiles_ms(values):
    return [round(v * 1e3, 3) for v in statistics.quantiles(values, n=4)]


def end_to_end(bench, checks, workload, seed, seconds, workdir):
    """Set up and train, then sweeps until `seconds` have passed.

    The first set-up comes before training; each sweep runs SETUPS - 1 more,
    spread through it among the serving operations. Every timed operation
    is scaled to the yardstick's reference speed (Pipeline.speed_factor)."""
    chk = checks.Checks()
    yard = Yardstick()
    pipe = bench.Pipeline(workload, seed, workdir, chk, yard=yard)
    start = time.perf_counter()
    pipe.speed_factor()
    setups = [pipe.set_up()]
    train_rate = pipe.train()
    sweeps = []
    while not sweeps or time.perf_counter() - start < seconds:
        sweeps.append(pipe.sweep(check=not sweeps, setups=SETUPS - 1))
        setups += sweeps[-1].setup_s
    first = sweeps[0]
    chk.expect(
        all(s.quality == first.quality and s.results == first.results for s in sweeps),
        "outputs differ between sweeps over the same checkpoint",
    )

    def pooled(attr):
        return [x for s in sweeps for x in getattr(s, attr)]

    query_s = pooled("query_s")
    cli_s = pooled("cli_s")
    median = statistics.median
    metrics = {
        "setup_s": (median(setups), "s"),
        "train_examples_per_s": (train_rate, "1/s"),
        "index_products_per_s": (median(pooled("index_rate")), "1/s"),
        "query_p50_ms": (_percentile(query_s, 50) * 1e3, "ms"),
        "query_p95_ms": (_percentile(query_s, 95) * 1e3, "ms"),
        "eval_queries_per_s": (median(pooled("eval_rate")), "1/s"),
        "cli_query_ms": (median(cli_s) * 1e3, "ms"),
        "shard_pairs_per_s": (median(pooled("shard_rate")), "1/s"),
        "recall_at_100": (first.quality["recall_at_100"], "ratio"),
        "map_at_100": (first.quality["map_at_100"], "ratio"),
        "ranking_ndcg": (first.quality["ranking_ndcg"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setups": len(setups),
        "sweeps": len(sweeps),
        "index_calls": len(pooled("index_rate")),
        "top_k_calls": len(query_s),
        "eval_chunks": len(pooled("eval_rate")),
        "shard_chunks": len(pooled("shard_rate")),
        "cli_calls": len(cli_s),
        "yardstick": len(yard.samples),
        "yardstick_ms_q1_median_q3": _quartiles_ms(yard.samples),
    }
    return chk, pipe, metrics, samples


def traced(bench, checks, tracing, workload, seed, seconds, workdir):
    """Pairs of one untraced and one traced pass (set-up, training and one
    sweep without repeated set-ups) until `seconds` have passed, then the
    memory pass. Per-layer values are per traced pass."""
    chk = checks.Checks()
    tracer = tracing.Tracer()
    pipe = bench.Pipeline(workload, seed, workdir, chk, tracer)
    walls = {False: 0.0, True: 0.0}
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for on in (False, True):
            if on:
                tracer.install()
            try:
                t0 = time.perf_counter()
                pipe.set_up()
                pipe.train()
                pipe.sweep(check=True, setups=0)
                walls[on] += time.perf_counter() - t0
            finally:
                tracer.uninstall()
        passes += 1
    counted = {
        "training.examples": (pipe.sampled, "the 1:6:7 rule"),
        "training.trained": (pipe.trained, "train_examples_per_s"),
    }
    for name, (expected, rule) in counted.items():
        seen = tracer.counts.get(name, 0) / passes
        chk.expect(seen == expected, f"{name}: {seen} examples seen per pass, {expected} counted by {rule}")
    peaks = pipe.memory_peaks()
    metrics = tracing.per_layer_metrics(tracer, passes, walls[True] / walls[False] - 1.0, peaks)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(RESULTS_DIR, f"{workload.name}-seed{seed}-spans.tsv.gz"))
    return chk, pipe, metrics, {"passes": passes, "spans": len(tracer.span_start)}


def run(workload_name, seed, seconds, trace_on, toy=False):
    bench, checks, tracing = _load_program()
    workload = WORKLOADS[workload_name]
    if toy:
        workload = workload.shrunk()
    workdir = os.path.join(WORK_DIR, f"{workload_name}-{seed}-{os.getpid()}")
    try:
        if trace_on:
            chk, pipe, metrics, samples = traced(bench, checks, tracing, workload, seed, seconds, workdir)
        else:
            chk, pipe, metrics, samples = end_to_end(bench, checks, workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": chk.correct,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, chk.failures, samples


def _report(workload, seed, trace_on, result, failures, samples):
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}, trace {int(trace_on)}, samples {samples}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")


def selfcheck() -> int:
    """Every workload at toy size, untraced and traced, through all output
    checks, with the metric names and units of BENCHMARK.json; and one
    deliberately wrong ranking the top-k check must reject."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        trace_on: {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}
        for trace_on in (False, True)
    }
    ok = True
    for name in WORKLOADS:
        for trace_on in (False, True):
            result, failures, samples = run(name, 0, 0, trace_on, toy=True)
            _report(name, 0, trace_on, result, failures, samples)
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != declared[trace_on]:
                print(f"metrics differ from BENCHMARK.json: {sorted(set(units.items()) ^ set(declared[trace_on].items()))}")
                ok = False
            ok &= result["correct"] and result["failed"] == 0
    _, checks, _ = _load_program()
    scores = np.array([0.9, 0.7, 0.7, 0.2])
    ids = ["P3", "P2", "P1", "P0"]
    right = checks.brute_force_top_k(scores, ids, 2, 0.55)
    wrong = [right[1], right[0]]
    rejected = bool(checks.top_k_errors(wrong, right, 2, 0.55))
    accepted = not checks.top_k_errors(right, right, 2, 0.55)
    print(f"top-k check rejects a wrong ranking: {rejected}; accepts the right one: {accepted}")
    ok &= rejected and accepted and right == [("P3", 0.9), ("P1", 0.7)]
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true", help="toy-size run of every workload and check")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    result, failures, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, args.seed, args.trace, result, failures, samples)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    line = json.dumps(result)
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        f.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
