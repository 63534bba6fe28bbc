"""Exact cosine retrieval over precomputed unit product embeddings."""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterable

import numpy as np

from .model import (
    EmbeddingModel,
    _bytes_left,
    _read_array,
    embed_batch,
    model_fingerprint,
)
from .tokenizer import TokenizerConfig, Vocabulary, encode_batch

_IDX_MAGIC = b"SMINDEX3"
_IDX_VERSION = 3
_IDX_HEADER = struct.Struct("<IQIQ")  # version, count, n, id blob length
_IDX_PREFIX = 8 + _IDX_HEADER.size + 32  # magic, header, model fingerprint
_EMBED_FLOATS = 2**18  # floats gathered per pooled block: (rows, L, N) stays near 2 MB


@dataclass
class ProductIndex:
    """Rows in ascending product-id order, so a row index breaks score ties
    by id. Ids that are not strictly ascending raise ValueError naming the
    first pair out of order."""

    ids: list[str]
    matrix: np.ndarray  # (count, N), unit rows or exact zero rows
    fingerprint: bytes  # 32-byte model digest

    def __post_init__(self) -> None:
        if not all(map(operator.lt, self.ids, self.ids[1:])):
            a, b = next((a, b) for a, b in zip(self.ids, self.ids[1:]) if a >= b)
            if a == b:
                raise ValueError(f"duplicate product id: {a!r}")
            raise ValueError(f"product ids out of order: {a!r} before {b!r}")

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Row of each product id, built on first use."""
        return {pid: i for i, pid in enumerate(self.ids)}

    @cached_property
    def max_row_norm(self) -> float:
        """Largest row norm (0.0 for an empty index), computed on first use."""
        return float(np.sqrt(np.einsum("ij,ij->i", self.matrix, self.matrix).max(initial=0.0)))


@dataclass
class MatchResult:
    items: list[tuple[str, float]]  # (product id, score), score desc then id asc


def _embed_texts(
    texts: list[str], side: str, model: EmbeddingModel, vocab: Vocabulary, config: TokenizerConfig
) -> np.ndarray:
    """Inference-phase unit embeddings; empty bags embed as zero rows."""
    if not texts:
        return np.zeros((0, model.n), dtype=np.float64)
    ids = encode_batch(texts, side, vocab, config)
    block = max(1, _EMBED_FLOATS // (ids.shape[1] * model.n))
    out = embed_batch(ids, "query" if side == "query" else "product", model, block)
    # Scaled to unit rows in place, a block at a time: np.linalg.norm over
    # all of `out` would allocate a temporary of its size.
    for start in range(0, len(out), block):
        rows = out[start : start + block]
        norms = np.linalg.norm(rows, axis=1)
        rows /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return out


def build_index(
    products: Iterable[tuple[str, str]],
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
) -> ProductIndex:
    """Encode, embed, and unit-normalize every catalog product, one row each in
    ascending product-id order. A duplicate product id, or one containing a
    newline, raises ValueError."""
    catalog = sorted(products, key=operator.itemgetter(0))
    ids = [pid for pid, _ in catalog]
    for pid in ids:
        if "\n" in pid:
            raise ValueError(f"product id contains a newline: {pid!r}")
    matrix = _embed_texts([text for _, text in catalog], "product", model, vocab, config)
    return ProductIndex(ids=ids, matrix=matrix, fingerprint=model_fingerprint(model))


def embed_query(
    text: str, model: EmbeddingModel, vocab: Vocabulary, config: TokenizerConfig
) -> np.ndarray:
    return _embed_texts([text], "query", model, vocab, config)[0]


def rank_all(
    query_vec: np.ndarray, index: ProductIndex, k: int, threshold: float = -np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Scores for every product plus the rows of the first k products with
    score >= threshold in (score desc, id asc) order.

    Exact: the candidates are cut at the k-th score with a partial selection
    that keeps every product tied with it, and only the survivors are sorted.
    A NaN threshold, which no score passes, raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    scores = index.matrix @ query_vec
    rows = np.flatnonzero(scores >= threshold)
    cand = scores[rows]
    if len(rows) > k:
        kth = np.partition(cand, len(cand) - k)[len(cand) - k]
        keep = cand >= kth
        rows, cand = rows[keep], cand[keep]
    head = rows[np.argsort(-cand, kind="stable")[:k]]  # rows ascend, so ties keep id order
    return scores, head


def top_k(
    query_text: str,
    index: ProductIndex,
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
    k: int,
    threshold: float,
) -> MatchResult:
    """Exact scan: up to k products with score >= threshold."""
    qvec = embed_query(query_text, model, vocab, config)
    scores, head = rank_all(qvec, index, k, threshold)
    items = [(index.ids[i], float(scores[i])) for i in head]
    return MatchResult(items=items)


def save_index(index: ProductIndex, f: BinaryIO) -> None:
    """Write the header, the model fingerprint, the ids as one newline-joined
    UTF-8 blob padded with newlines to a multiple of 8 bytes, and the matrix."""
    count, n = index.matrix.shape
    blob = "\n".join(index.ids).encode("utf-8")
    f.write(_IDX_MAGIC + _IDX_HEADER.pack(_IDX_VERSION, count, n, len(blob)) + index.fingerprint)
    f.write(blob + b"\n" * (-len(blob) % 8))
    f.write(np.ascontiguousarray(index.matrix, dtype="<f8"))


def load_index(f: BinaryIO) -> ProductIndex:
    """Read an index written by save_index. A short file, a trailing byte,
    ids that do not fill the blob length and count in the header, or ids
    that are not strictly ascending raise ValueError.

    A blob length off by less than its padding either moves a newline into
    or out of the ids, which changes their count, or leaves a byte that is
    not a newline in the padding."""
    head = f.read(_IDX_PREFIX)
    if head[:8] != _IDX_MAGIC:
        raise ValueError(f"not a version-{_IDX_VERSION} index file (magic {head[:8]!r})")
    if len(head) != _IDX_PREFIX:
        raise ValueError("truncated index")
    version, count, n, blob_len = _IDX_HEADER.unpack_from(head, 8)
    if version != _IDX_VERSION:
        raise ValueError(f"unsupported index version {version}")
    padded = blob_len + (-blob_len % 8)
    present = _bytes_left(f)
    size = padded + 8 * count * n
    if present < size:
        raise ValueError("truncated index")
    if present > size:
        raise ValueError("index size does not match its header")
    raw = f.read(padded)
    text = raw[:blob_len].decode("utf-8")
    ids = text.split("\n") if count or text else []  # "" holds one empty id, or none
    if len(ids) != count or raw[blob_len:] != b"\n" * (padded - blob_len):
        raise ValueError("index ids do not match its header")
    matrix = _read_array(f, (count, n))
    return ProductIndex(ids=ids, matrix=matrix, fingerprint=head[-32:])
