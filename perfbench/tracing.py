"""Spans and counters for the traced run.

The tracer wraps named functions by rebinding every reference to them in the
loaded ``semmatch.*`` modules, so calls between modules go through the
wrapper and nothing under ``src/`` changes. Uninstalling restores the
originals; the untraced run never installs it.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np

# (module, function) pairs that get a span on every call.
TRACED = [
    ("synth", "gen_synthetic"),
    ("synth", "parse_log"),
    ("tokenizer", "build_vocabulary"),
    ("tokenizer", "encode"),
    ("tokenizer", "fnv1a64"),
    ("tokenizer", "load_vocabulary"),
    ("training", "preprocess_logs"),
    ("training", "read_records"),
    ("training", "sample_epoch"),
    ("training", "adam_step"),
    ("training", "train"),
    ("model", "pool_batch"),
    ("model", "normalize_batch"),
    ("model", "cosine_batch"),
    ("model", "forward_batch"),
    ("model", "_cosine_backward"),
    ("model", "_norm_backward"),
    ("model", "_pool_backward"),
    ("model", "_merge_sparse"),
    ("model", "backward_batch"),
    ("model", "load_model"),
    ("losses", "loss_batch"),
    ("losses", "loss_grad_batch"),
    ("index", "build_index"),
    ("index", "_embed_texts"),
    ("index", "save_index"),
    ("index", "rank_all"),
    ("index", "top_k"),
    ("index", "load_index"),
    ("config", "load_run_config"),
    ("cli", "main"),
    ("evaluation", "run_matching_eval"),
    ("evaluation", "run_ranking_eval"),
    ("sharding", "simulate"),
    ("sharding", "shard_partials"),
]

# Calls whose process CPU time is recorded next to their wall time.
CPU_TIME = {"index.top_k", "evaluation.run_matching_eval", "evaluation.run_ranking_eval"}


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span.

    Spans are kept in flat arrays in memory and written out on request.
    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.cpu: dict[str, float] = {}
        self.wall: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.active = True
        self._stack: list[int] = []  # open span indices
        self._child: list[float] = []  # child time covered, per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "semmatch"]
        for mod_name, func_name in TRACED:
            original = getattr(sys.modules[f"semmatch.{mod_name}"], func_name)
            wrapper = self._wrap(f"{mod_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not traced."""
        self.active, was = False, self.active
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        cpu = name in CPU_TIME
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            cpu0 = time.process_time() if cpu else 0.0
            span = self._open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(span, end)
                if cpu:
                    self.cpu[name] = self.cpu.get(name, 0.0) + time.process_time() - cpu0
                    self.wall[name] = self.wall.get(name, 0.0) + end - self.span_start[span]
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(span)
        self._child.append(0.0)
        return span

    def _close(self, span: int, end: float) -> None:
        self.span_end[span] = end
        duration = end - self.span_start[span]
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += duration
        name = self.names[self.span_name[span]]
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                    f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )


# -- counters observed from arguments and results ---------------------------


def _count(counts: dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + value


def _observe_encode(counts, args, kwargs, bag):
    vocab = args[2] if len(args) > 2 else kwargs["vocab"]
    ids = bag.ids
    _count(counts, "encode.ids", int(np.count_nonzero(ids)))
    _count(counts, "encode.oov_ids", int(np.count_nonzero(ids > vocab.v)))


def _observe_sample_epoch(counts, args, kwargs, sample):
    _count(counts, "training.examples", len(sample.labels))


def _observe_forward_batch(counts, args, kwargs, result):
    phase = args[3] if len(args) > 3 else kwargs["phase"]
    if phase == "train":
        _count(counts, "training.batches", 1)
        _count(counts, "training.trained", len(result[0]))


def _observe_adam_step(counts, args, kwargs, result):
    grad = args[1] if len(args) > 1 else kwargs["grad"]
    rows = getattr(grad, "rows", None)
    if rows is not None:
        _count(counts, "adam.sparse_steps", 1)
        _count(counts, "adam.rows", rows.size)


def _observe_pool_backward(counts, args, kwargs, result):
    _count(counts, "model._pool_backward.ids", int(np.count_nonzero(args[0])))


def _observe_loss_grad(counts, args, kwargs, grad):
    _count(counts, "losses.examples", grad.size)
    _count(counts, "losses.active", int(np.count_nonzero(grad)))


def _observe_embed_texts(counts, args, kwargs, result):
    _count(counts, "index._embed_texts.rows", len(args[0]))


def _observe_top_k(counts, args, kwargs, result):
    k = args[5] if len(args) > 5 else kwargs["k"]
    _count(counts, "top_k.fill", len(result.items) / k)


def _observe_eval(counts, args, kwargs, report):
    _count(counts, "evaluation.queries_evaluated", report.evaluated)


def _observe_simulate(counts, args, kwargs, result):
    ledger = result[1]
    _count(counts, "sharding.pairs", ledger.pairs)
    _count(counts, "sharding.scalars", ledger.scalars_returned)


_OBSERVERS = {
    "tokenizer.encode": _observe_encode,
    "training.sample_epoch": _observe_sample_epoch,
    "model.forward_batch": _observe_forward_batch,
    "training.adam_step": _observe_adam_step,
    "model._pool_backward": _observe_pool_backward,
    "losses.loss_grad_batch": _observe_loss_grad,
    "index._embed_texts": _observe_embed_texts,
    "index.top_k": _observe_top_k,
    "evaluation.run_matching_eval": _observe_eval,
    "evaluation.run_ranking_eval": _observe_eval,
    "sharding.simulate": _observe_simulate,
}


def per_layer_metrics(
    tracer: Tracer, passes: int, overhead_share: float, peaks: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per traced pass, as name -> (value, unit).
    `peaks` holds the tracemalloc peak in MiB of each call the memory pass made."""
    s, calls, c = tracer.self_time, tracer.calls, tracer.counts

    def seconds(name: str) -> tuple[float, str]:
        return s.get(name, 0.0) / passes, "s"

    def count(value: float) -> tuple[float, str]:
        return value / passes, "count"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    cpu_eval = sum(tracer.cpu.get(n, 0.0) for n in CPU_TIME if n.startswith("evaluation."))
    wall_eval = sum(tracer.wall.get(n, 0.0) for n in CPU_TIME if n.startswith("evaluation."))
    out = {f"{m}.{f}.s": seconds(f"{m}.{f}") for m, f in TRACED}
    out.update(
        {
            "tokenizer.encode.calls": count(calls.get("tokenizer.encode", 0)),
            "tokenizer.fnv1a64.calls": count(calls.get("tokenizer.fnv1a64", 0)),
            "tokenizer.oov_share": ratio(c.get("encode.oov_ids", 0), c.get("encode.ids", 0)),
            "training.examples": count(c.get("training.examples", 0)),
            "training.batches": count(c.get("training.batches", 0)),
            "training.adam_rows_per_step": (
                c.get("adam.rows", 0) / c["adam.sparse_steps"] if c.get("adam.sparse_steps") else 0.0,
                "rows/step",
            ),
            "training.train.peak_mb": (peaks["training.train"], "MB"),
            "model._pool_backward.ids": count(c.get("model._pool_backward.ids", 0)),
            "losses.active_share": ratio(c.get("losses.active", 0), c.get("losses.examples", 0)),
            "index._embed_texts.rows": count(c.get("index._embed_texts.rows", 0)),
            "index.build_index.peak_mb": (peaks["index.build_index"], "MB"),
            "index.rank_all.calls": count(calls.get("index.rank_all", 0)),
            "index.top_k.fill_share": ratio(c.get("top_k.fill", 0), calls.get("index.top_k", 0)),
            "index.top_k.cpu_per_wall": ratio(
                tracer.cpu.get("index.top_k", 0.0), tracer.wall.get("index.top_k", 0.0)
            ),
            "evaluation.queries_evaluated": count(c.get("evaluation.queries_evaluated", 0)),
            "evaluation.cpu_per_wall": ratio(cpu_eval, wall_eval),
            "evaluation.run_matching_eval.peak_mb": (peaks["evaluation.run_matching_eval"], "MB"),
            "sharding.shard_partials.calls": count(calls.get("sharding.shard_partials", 0)),
            "sharding.scalars_per_pair": (
                c.get("sharding.scalars", 0) / c["sharding.pairs"] if c.get("sharding.pairs") else 0.0,
                "scalars/pair",
            ),
            "trace.overhead_share": (overhead_share, "ratio"),
        }
    )
    return out
