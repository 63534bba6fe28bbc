"""Exact cosine retrieval over precomputed unit product embeddings."""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass
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

_IDX_MAGIC = b"SMINDEX2"
_IDX_VERSION = 2
_IDX_HEADER = struct.Struct("<IQIQ")  # version, count, n, id blob length
_IDX_PREFIX = 8 + _IDX_HEADER.size + 32  # magic, header, model fingerprint
_EMBED_FLOATS = 2**18  # floats gathered per pooled block: (rows, L, N) stays near 2 MB


@dataclass
class ProductIndex:
    ids: list[str]
    matrix: np.ndarray  # (count, N), unit rows or exact zero rows
    fingerprint: bytes  # 32-byte model digest
    # Rank of each product id in ascending-id order, used for tie-breaks;
    # computed from the ids when not given.
    id_rank: InitVar[np.ndarray | None] = None

    def __post_init__(self, id_rank: np.ndarray | None) -> None:
        if id_rank is None:
            n = len(self.ids)
            order = sorted(range(n), key=self.ids.__getitem__)
            id_rank = np.empty(n, dtype=np.int64)
            id_rank[np.asarray(order, dtype=np.intp)] = np.arange(n)
        self._id_rank = id_rank

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
    """Encode, embed, and unit-normalize every catalog product. A duplicate
    product id, or one containing a newline, raises ValueError."""
    ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()
    for pid, text in products:
        if pid in seen:
            raise ValueError(f"duplicate product id: {pid!r}")
        if "\n" in pid:
            raise ValueError(f"product id contains a newline: {pid!r}")
        seen.add(pid)
        ids.append(pid)
        texts.append(text)
    matrix = _embed_texts(texts, "product", model, vocab, config)
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
    head = rows[np.lexsort((index._id_rank[rows], -cand))[:k]]
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
    """Write the header, the model fingerprint, the id ranks, the ids as one
    newline-joined UTF-8 blob padded with newlines to a multiple of 8 bytes,
    and the matrix."""
    count, n = index.matrix.shape
    blob = "\n".join(index.ids).encode("utf-8")
    f.write(_IDX_MAGIC + _IDX_HEADER.pack(_IDX_VERSION, count, n, len(blob)) + index.fingerprint)
    f.write(np.ascontiguousarray(index._id_rank, dtype="<i8"))
    f.write(blob + b"\n" * (-len(blob) % 8))
    f.write(np.ascontiguousarray(index.matrix, dtype="<f8"))


def load_index(f: BinaryIO) -> ProductIndex:
    """Read an index written by save_index. A short file, a trailing byte,
    id ranks that are not a permutation, or ids that do not fill the blob
    length and count in the header raise ValueError.

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
    size = 8 * count + padded + 8 * count * n
    if present < size:
        raise ValueError("truncated index")
    if present > size:
        raise ValueError("index size does not match its header")
    id_rank = _read_array(f, (count,), "<i8")
    if count and not (
        id_rank.min() >= 0 and id_rank.max() < count and np.bincount(id_rank, minlength=count).all()
    ):
        raise ValueError("index id ranks are not a permutation")
    raw = f.read(padded)
    text = raw[:blob_len].decode("utf-8")
    ids = text.split("\n") if count or text else []  # "" holds one empty id, or none
    if len(ids) != count or raw[blob_len:] != b"\n" * (padded - blob_len):
        raise ValueError("index ids do not match its header")
    matrix = _read_array(f, (count, n))
    return ProductIndex(ids=ids, matrix=matrix, fingerprint=head[-32:], id_rank=id_rank)
