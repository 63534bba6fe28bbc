"""Simulated model-parallel cosine: the embedding dimension is split across
shards that exchange only three scalars each (partial dot and the two
partial sums of squares) per scored pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NORM_LAYER, EmbeddingModel, embed_batch


@dataclass(frozen=True)
class ShardPlan:
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")
        if self.k % self.n != 0:
            raise ValueError(f"shard count {self.n} does not divide dimension {self.k}")

    @property
    def r(self) -> int:
        return self.k // self.n

    def owned(self, shard: int) -> slice:
        return slice(self.r * shard, self.r * (shard + 1))


@dataclass
class CommLedger:
    """Message accounting for the simulated exchange."""

    pairs: int = 0
    input_broadcasts: int = 0
    scalars_returned: int = 0

    def scalars_per_pair(self) -> float:
        return self.scalars_returned / self.pairs if self.pairs else 0.0


def shard_partials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One shard's reply for a batch of pairs: a (B, 3) array of the partial
    dot product and the two partial sums of squares over its columns."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("shard slices must be (pairs, columns) arrays of one shape")
    return np.stack([(a * b).sum(axis=1), (a * a).sum(axis=1), (b * b).sum(axis=1)], axis=1)


def simulate(
    plan: ShardPlan,
    q_ids: np.ndarray,
    p_ids: np.ndarray,
    model: EmbeddingModel,
) -> tuple[np.ndarray, CommLedger]:
    """Score pairs through independent shards, counting messages.

    Each pair costs one input broadcast per shard and exactly 3 scalars
    returned per shard; the coordinator sums the shards' (B, 3) partials in
    shard order. An empty bag embeds as a zero row, so pairs with an empty
    bag or a zero-norm side score 0. Layer normalization couples dimensions
    across shard boundaries and is rejected.

    Each arm is embedded over all k columns in one embed_batch call: a call
    of model._POOL_BAGS bags or more pools slot by slot over its used width,
    so its temporaries are (B, k) floats, as the embeddings are. Pooling and
    inference normalization act per dimension, so any column block of the
    result is what pooling and normalizing that block of columns alone
    gives.
    """
    if plan.k != model.n:
        raise ValueError("plan dimension does not match model embedding dimension")
    if model.config.normalization == NORM_LAYER:
        raise ValueError("layer normalization cannot be sharded along the embedding dimension")
    q_ids, p_ids = np.asarray(q_ids), np.asarray(p_ids)
    batch = len(q_ids)
    if len(p_ids) != batch:
        raise ValueError(f"{batch} query bags but {len(p_ids)} product bags")
    a = embed_batch(q_ids, "query", model)
    b = embed_batch(p_ids, "product", model)
    totals = shard_partials(a[:, plan.owned(0)], b[:, plan.owned(0)])
    for s in range(1, plan.n):
        totals += shard_partials(a[:, plan.owned(s)], b[:, plan.owned(s)])
    dot, sq_a, sq_b = totals.T
    ok = (sq_a > 0.0) & (sq_b > 0.0)
    scores = np.zeros(batch, dtype=np.float64)
    np.divide(dot, np.sqrt(sq_a) * np.sqrt(sq_b), out=scores, where=ok)
    ledger = CommLedger(pairs=batch, input_broadcasts=plan.n * batch, scalars_returned=3 * plan.n * batch)
    return scores, ledger
