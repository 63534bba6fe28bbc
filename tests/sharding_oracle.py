"""The per-pair sharded cosine: each shard holds a copy of its column block
and normalization state, and every pair's partials are scalar dataclasses
combined by `aggregate`. `semmatch.sharding.simulate` scores whole batches
and must agree with `simulate` here within 1e-12, with equal ledgers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semmatch.model import NORM_LAYER, NORM_NONE, EmbeddingModel, NormState, pool_batch
from semmatch.sharding import CommLedger, ShardPlan


@dataclass(frozen=True)
class ShardPartials:
    partial_dot: float
    partial_sq_a: float
    partial_sq_b: float


@dataclass
class ModelShard:
    """One worker's immutable slice of the model: a column block of each
    arm's matrix plus the matching per-dimension normalization state."""

    index: int
    dims: slice
    query_cols: np.ndarray
    product_cols: np.ndarray
    norm_query: NormState
    norm_product: NormState


def _slice_norm(state: NormState, dims: slice) -> NormState:
    return NormState(
        gamma=state.gamma[dims].copy(),
        beta=state.beta[dims].copy(),
        running_mean=state.running_mean[dims].copy(),
        running_var=state.running_var[dims].copy(),
    )


def split_model(model: EmbeddingModel, n: int) -> list[ModelShard]:
    """Split the embedding dimension into n column blocks.

    Layer normalization couples dimensions across shard boundaries and is
    rejected; batch normalization (inference stats) and 'none' are
    per-dimension and shard exactly.
    """
    if model.config.normalization == NORM_LAYER:
        raise ValueError("layer normalization cannot be sharded along the embedding dimension")
    plan = ShardPlan(n=n, k=model.n)
    shards = []
    for s in range(n):
        dims = plan.owned(s)
        shards.append(
            ModelShard(
                index=s,
                dims=dims,
                query_cols=model.query_matrix[:, dims].copy(),
                product_cols=model.product_matrix[:, dims].copy(),
                norm_query=_slice_norm(model.norm_query, dims),
                norm_product=_slice_norm(model.norm_product, dims),
            )
        )
    return shards


def shard_partials(a_slice: np.ndarray, b_slice: np.ndarray) -> ShardPartials:
    a_slice = np.asarray(a_slice, dtype=np.float64)
    b_slice = np.asarray(b_slice, dtype=np.float64)
    if a_slice.shape != b_slice.shape:
        raise ValueError("shard slices must have the same length")
    return ShardPartials(
        partial_dot=float(np.dot(a_slice, b_slice)),
        partial_sq_a=float(np.dot(a_slice, a_slice)),
        partial_sq_b=float(np.dot(b_slice, b_slice)),
    )


def aggregate(partials: list[ShardPartials]) -> float:
    """Combine per-shard partials into the full cosine score."""
    if not partials:
        raise ValueError("need at least one shard's partials")
    dot = sum(p.partial_dot for p in partials)
    sq_a = sum(p.partial_sq_a for p in partials)
    sq_b = sum(p.partial_sq_b for p in partials)
    if sq_a == 0.0 or sq_b == 0.0:
        return 0.0
    return dot / (math.sqrt(sq_a) * math.sqrt(sq_b))


def _shard_embed(shard: ModelShard, ids: np.ndarray, arm: str, eps: float, mode: str) -> np.ndarray:
    cols = shard.query_cols if arm == "query" else shard.product_cols
    state = shard.norm_query if arm == "query" else shard.norm_product
    pooled, counts = pool_batch(ids, cols)
    if mode != NORM_NONE:
        pooled = state.gamma * (pooled - state.running_mean) / np.sqrt(
            state.running_var + eps
        ) + state.beta
        pooled[counts == 0] = 0.0  # empty bags stay inert on every shard
    return pooled


def simulate(
    plan: ShardPlan,
    q_ids: np.ndarray,
    p_ids: np.ndarray,
    model: EmbeddingModel,
    naive: bool = False,
) -> tuple[np.ndarray, CommLedger]:
    """Score pairs one at a time through independent shards, counting
    messages as each pair's partials come back."""
    if plan.k != model.n:
        raise ValueError("plan dimension does not match model embedding dimension")
    shards = split_model(model, plan.n)
    eps = model.config.bn_epsilon
    mode = model.config.normalization
    batch = len(q_ids)
    ledger = CommLedger()
    per_shard_a = []
    per_shard_b = []
    for shard in shards:
        per_shard_a.append(_shard_embed(shard, q_ids, "query", eps, mode))
        per_shard_b.append(_shard_embed(shard, p_ids, "product", eps, mode))
    ledger.pairs = batch
    ledger.input_broadcasts = batch * plan.n
    scores = np.zeros(batch, dtype=np.float64)
    q_counts = np.count_nonzero(q_ids, axis=1)
    p_counts = np.count_nonzero(p_ids, axis=1)
    for i in range(batch):
        if naive:
            a = np.concatenate([sa[i] for sa in per_shard_a])
            b = np.concatenate([sb[i] for sb in per_shard_b])
            ledger.scalars_returned += 2 * plan.k
            partials = [shard_partials(a, b)]
        else:
            partials = [
                shard_partials(per_shard_a[s][i], per_shard_b[s][i])
                for s in range(plan.n)
            ]
            ledger.scalars_returned += 3 * plan.n
        score = aggregate(partials)
        if q_counts[i] == 0 or p_counts[i] == 0:
            score = 0.0
        scores[i] = score
    return scores, ledger
