"""Single-item forms of the batch model API, for tests that check one bag,
one pair or one vector at a time, and one model's checkpoint bytes."""

import io

import numpy as np

from semmatch.model import (
    EmbeddingModel,
    ForwardCache,
    forward_batch,
    normalize_batch,
    pool_batch,
    save_model,
)
from semmatch.tokenizer import TokenBag


def embed_bag(bag: TokenBag, arm: str, model: EmbeddingModel) -> np.ndarray:
    """Pooled embedding of one TokenBag."""
    pooled, _ = pool_batch(bag.ids[None, :], model.matrix_for(arm))
    return pooled[0]


def normalize(batch: np.ndarray, arm: str, model: EmbeddingModel, phase: str) -> np.ndarray:
    """normalize_batch without its cache."""
    out, _ = normalize_batch(np.asarray(batch, dtype=np.float64), arm, model, phase)
    return out


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0 when either vector has zero norm."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def forward(
    query_bag: TokenBag, product_bag: TokenBag, model: EmbeddingModel, phase: str = "infer"
) -> tuple[float, ForwardCache]:
    scores, cache = forward_batch(query_bag.ids[None, :], product_bag.ids[None, :], model, phase)
    return float(scores[0]), cache


def serialize_model(model: EmbeddingModel) -> bytes:
    """The bytes save_model writes for one model."""
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()
