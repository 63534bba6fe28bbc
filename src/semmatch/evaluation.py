"""Matching and ranking evaluation: Recall@K, MAP, NDCG, and MRR, all computed
from the 1-based ranks of the relevant items."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .atomic import atomic_write
from .index import ProductIndex, _embed_texts, positions, rank_rows, score_rows
from .model import EmbeddingModel
from .synth import LogRecord
from .tokenizer import TokenizerConfig, Vocabulary


@dataclass
class EvalQuery:
    text: str
    purchased: dict[str, int]  # product id -> purchase count
    impressed: set[str]


def load_eval_queries(logs: Iterable[LogRecord]) -> list[EvalQuery]:
    """Group log records by query text; purchased wins over impressed."""
    by_query: dict[str, EvalQuery] = {}
    for rec in logs:
        q = by_query.get(rec.query)
        if q is None:
            q = by_query[rec.query] = EvalQuery(text=rec.query, purchased={}, impressed=set())
        if rec.label == "purchased":
            q.purchased[rec.product_id] = q.purchased.get(rec.product_id, 0) + rec.count
        else:
            q.impressed.add(rec.product_id)
    for q in by_query.values():
        q.impressed -= set(q.purchased)
    return list(by_query.values())


def _dcg(ranks: Iterable[int], gains: Iterable[float]) -> float:
    """Sum of gain / log2(rank + 1), in the order given."""
    return sum(g / math.log2(r + 1) for r, g in zip(ranks, gains))


def _ndcg(ranks: list[int], gains: list[float], relevant_gains: list[float]) -> float:
    """`gains` of the items at ascending 1-based `ranks`, over the DCG of every
    relevant gain (ranked or not) placed first, largest first."""
    ideal = sorted(relevant_gains, reverse=True)
    return _dcg(ranks, gains) / _dcg(range(1, len(ideal) + 1), ideal)


def _mrr(ranks: list[int]) -> float:
    return 1.0 / ranks[0] if ranks else 0.0


@dataclass
class MetricReport:
    means: dict[str, float] = field(default_factory=dict)
    per_query: dict[str, list[float]] = field(default_factory=dict)
    evaluated: int = 0
    skipped: int = 0

    def add(self, values: dict[str, float]) -> None:
        for name, v in values.items():
            self.per_query.setdefault(name, []).append(v)
        self.evaluated += 1

    def finalize(self) -> None:
        self.means = {
            name: float(np.mean(vals)) for name, vals in self.per_query.items()
        }


def run_matching_eval(
    queries: list[EvalQuery],
    index: ProductIndex,
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
    k: int,
) -> MetricReport:
    """Score the whole corpus per query; purchased items are the relevant set.

    Every metric comes from the ascending ranks of the purchased products in
    the full (score desc, id asc) order of score_rows (index.rank_rows):
    Recall@k and AP@k from those within k, NDCG and MRR from all of them. A
    purchased product missing from the index has no rank and counts only in
    the denominators and the IDCG.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    row_of = index.row_of
    live = [q for q in queries if q.purchased]
    report = MetricReport(skipped=len(queries) - len(live))
    qvecs = _embed_texts([q.text for q in live], "query", model, vocab, config)
    purchased = [np.array([row_of[pid] for pid in q.purchased if pid in row_of], dtype=np.intp) for q in live]
    for q, ranks in zip(live, rank_rows(qvecs, purchased, index)):
        n = len(q.purchased)
        hits = bisect.bisect_right(ranks, k)
        ap = 0.0  # precision at each hit within k, added in rank order
        for j, rank in enumerate(ranks[:hits], start=1):
            ap += j / rank
        report.add(
            {
                "recall": hits / n,
                "map": ap / n,
                "matching_ndcg": _ndcg(ranks, [1.0] * len(ranks), [1.0] * n),
                "matching_mrr": _mrr(ranks),
            }
        )
    report.finalize()
    return report


def run_ranking_eval(
    queries: list[EvalQuery],
    product_texts: Mapping[str, str],
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
) -> MetricReport:
    """Rank each query's purchased+impressed candidates by model score
    (score_rows), ties by id; purchase counts are the gains. The queries and
    the distinct candidates of the call are embedded once each. A candidate
    missing from `product_texts`, or whose embedding is not finite, raises
    ValueError naming it."""
    live = [q for q in queries if q.purchased and q.impressed]
    report = MetricReport(skipped=len(queries) - len(live))
    candidate_lists = [sorted(set(q.purchased) | q.impressed) for q in live]
    row_of: dict[str, int] = {}
    for candidates in candidate_lists:
        for pid in candidates:
            row_of.setdefault(pid, len(row_of))
    qvecs = _embed_texts([q.text for q in live], "query", model, vocab, config)
    try:
        texts = [product_texts[pid] for pid in row_of]
    except KeyError as exc:
        raise ValueError(f"eval-log product {exc.args[0]!r} is not in the catalog") from None
    products = _embed_texts(texts, "product", model, vocab, config, list(row_of))
    for q, candidates, qvec in zip(live, candidate_lists, qvecs):
        scores = score_rows(products[[row_of[pid] for pid in candidates]], qvec)
        rows = np.array([i for i, pid in enumerate(candidates) if pid in q.purchased], dtype=np.intp)
        ranked = sorted(zip(positions(scores, rows).tolist(), rows.tolist()))
        ranks = [rank for rank, _ in ranked]
        gains = [float(q.purchased[candidates[i]]) for _, i in ranked]
        report.add({"ranking_ndcg": _ndcg(ranks, gains, gains), "ranking_mrr": _mrr(ranks)})
    report.finalize()
    return report


def format_report(reports: Iterable[MetricReport]) -> str:
    """Aligned text table over the union of metric columns."""
    names: list[str] = []
    merged: dict[str, float] = {}
    for r in reports:
        for name, v in r.means.items():
            if name not in merged:
                names.append(name)
            merged[name] = v
    header = "  ".join(f"{n:>14s}" for n in names)
    row = "  ".join(f"{merged[n]:>14.4f}" for n in names)
    return header + "\n" + row


def write_metrics_file(path: str, reports: Mapping[str, MetricReport]) -> None:
    """Machine-readable `name = value` lines in name order: each report's
    means, and its counts as `<task>_queries_evaluated` and
    `<task>_queries_skipped`, so the lines of several tasks are those each
    writes alone."""
    lines: dict[str, float | int] = {}
    for task, r in reports.items():
        lines.update(r.means)
        lines[f"{task}_queries_evaluated"] = r.evaluated
        lines[f"{task}_queries_skipped"] = r.skipped
    with atomic_write(path, "w") as f:
        for name in sorted(lines):
            f.write(f"{name} = {lines[name]!r}\n")
