"""Matching and ranking evaluation: Recall@K, MAP, NDCG, and MRR."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .index import ProductIndex, _embed_texts, embed_query, positions, rank_all
from .model import EmbeddingModel
from .synth import LogRecord
from .tokenizer import TokenizerConfig, Vocabulary


@dataclass
class EvalQuery:
    query_id: str
    text: str
    purchased: dict[str, int]  # product id -> purchase count
    impressed: set[str]


def load_eval_queries(logs: Iterable[LogRecord]) -> list[EvalQuery]:
    """Group log records by query text; purchased wins over impressed."""
    by_query: dict[str, EvalQuery] = {}
    order: list[str] = []
    for rec in logs:
        q = by_query.get(rec.query)
        if q is None:
            q = EvalQuery(
                query_id=f"q{len(order):05d}", text=rec.query, purchased={}, impressed=set()
            )
            by_query[rec.query] = q
            order.append(rec.query)
        if rec.label == "purchased":
            q.purchased[rec.product_id] = q.purchased.get(rec.product_id, 0) + rec.count
        else:
            q.impressed.add(rec.product_id)
    for q in by_query.values():
        q.impressed -= set(q.purchased)
    return [by_query[t] for t in order]


def recall_at_k(ranked: Sequence[str], relevant: set[str], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("recall undefined for an empty relevant set")
    return len(set(ranked[:k]) & relevant) / len(relevant)


def average_precision(
    ranked: Sequence[str], relevant: set[str], cutoff: int = 100
) -> float:
    if not relevant:
        raise ValueError("average precision undefined for an empty relevant set")
    hits = 0
    total = 0.0
    for rank, pid in enumerate(ranked[:cutoff], start=1):
        if pid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def ndcg(ranked: Sequence[str], gains: Mapping[str, float]) -> float:
    positive = sorted((g for g in gains.values() if g > 0), reverse=True)
    if not positive:
        raise ValueError("ndcg undefined when all gains are zero")
    dcg = sum(
        gains.get(pid, 0.0) / math.log2(rank + 1)
        for rank, pid in enumerate(ranked, start=1)
    )
    idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(positive, start=1))
    return dcg / idcg


def mrr(ranked: Sequence[str], relevant: set[str]) -> float:
    if not relevant:
        raise ValueError("mrr undefined for an empty relevant set")
    for rank, pid in enumerate(ranked, start=1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


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
    k: int = 100,
    map_cutoff: int | None = None,
) -> MetricReport:
    """Rank the whole corpus per query; purchased items are the relevant set.

    Recall@k and AP@cutoff read the head of the ranking; NDCG and MRR over the
    full ranking need only each purchased product's position in it.
    """
    cutoff = map_cutoff if map_cutoff is not None else k
    row_of = {pid: i for i, pid in enumerate(index.ids)}
    report = MetricReport()
    for q in queries:
        relevant = set(q.purchased)
        if not relevant:
            report.skipped += 1
            continue
        qvec = embed_query(q.text, model, vocab, config)
        scores, head = rank_all(qvec, index, max(k, cutoff))
        ranked_head = [index.ids[i] for i in head]
        # Purchased products missing from the index count in the IDCG only.
        rows = np.array([row_of[pid] for pid in relevant if pid in row_of], dtype=np.intp)
        ranks = sorted(positions(scores, rows, index).tolist())
        dcg = sum(1.0 / math.log2(rank + 1) for rank in ranks)
        idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, len(relevant) + 1))
        report.add(
            {
                "recall": recall_at_k(ranked_head, relevant, k),
                "map": average_precision(ranked_head, relevant, cutoff),
                "matching_ndcg": dcg / idcg,
                "matching_mrr": 1.0 / ranks[0] if ranks else 0.0,
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
    """Rank each query's purchased+impressed candidates by model score."""
    report = MetricReport()
    for q in queries:
        if not q.purchased or not q.impressed:
            report.skipped += 1
            continue
        candidates = sorted(set(q.purchased) | q.impressed)
        qvec = embed_query(q.text, model, vocab, config)
        cand_matrix = _embed_texts(
            [product_texts[pid] for pid in candidates], "product", model, vocab, config
        )
        scores = cand_matrix @ qvec
        order = np.lexsort((np.arange(len(candidates)), -scores))
        ranked = [candidates[i] for i in order]
        gains = {pid: float(c) for pid, c in q.purchased.items()}
        report.add(
            {
                "ranking_ndcg": ndcg(ranked, gains),
                "ranking_mrr": mrr(ranked, set(q.purchased)),
            }
        )
    report.finalize()
    return report


def format_report(reports: list[MetricReport]) -> str:
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


def write_metrics_file(path: str, reports: list[MetricReport]) -> None:
    """Machine-readable `metric = value` lines, deterministic ordering."""
    merged: dict[str, float] = {}
    for r in reports:
        merged.update(r.means)
    with open(path, "w") as f:
        for name in sorted(merged):
            f.write(f"{name} = {merged[name]!r}\n")
        f.write(f"queries_evaluated = {sum(r.evaluated for r in reports)}\n")
        f.write(f"queries_skipped = {sum(r.skipped for r in reports)}\n")
