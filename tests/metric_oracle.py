"""List-based IR metrics over a ranked id list: the oracle that the rank-based
metrics in semmatch.evaluation must match."""

from __future__ import annotations

import math
from typing import Mapping, Sequence


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
