"""Exact cosine retrieval over precomputed unit product embeddings."""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable

import numpy as np

from .model import EmbeddingModel, model_fingerprint, normalize_batch, pool_batch
from .tokenizer import TokenizerConfig, Vocabulary, encode

_IDX_MAGIC = b"SMINDEX1"
_IDX_VERSION = 1
_IDX_HEADER = struct.Struct("<IQI")
_ID_LENGTH = struct.Struct("<I")
_EMBED_BLOCK = 2048  # rows pooled at once; bounds the (rows, tokens, N) gather


@dataclass
class ProductIndex:
    ids: list[str]
    matrix: np.ndarray  # (count, N), unit rows or exact zero rows
    fingerprint: bytes  # 32-byte model digest

    def __post_init__(self) -> None:
        # Rank of each product id in ascending-id order, used for tie-breaks.
        n = len(self.ids)
        order = sorted(range(n), key=self.ids.__getitem__)
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[np.asarray(order, dtype=np.intp)] = np.arange(n)


@dataclass
class MatchResult:
    query_id: str
    threshold: float
    items: list[tuple[str, float]]  # (product id, score), score desc then id asc


def _embed_texts(
    texts: list[str], side: str, model: EmbeddingModel, vocab: Vocabulary, config: TokenizerConfig
) -> np.ndarray:
    """Inference-phase unit embeddings; empty bags embed as zero rows."""
    if not texts:
        return np.zeros((0, model.n), dtype=np.float64)
    arm = "query" if side == "query" else "product"
    ids = np.stack([encode(t, side, vocab, config).ids for t in texts])
    matrix = model.matrix_for(arm)
    out = np.empty((len(texts), model.n), dtype=np.float64)
    for start in range(0, len(texts), _EMBED_BLOCK):
        block = slice(start, start + _EMBED_BLOCK)
        pooled, counts = pool_batch(ids[block], matrix)
        normed, _ = normalize_batch(pooled, arm, model, "infer")
        normed = np.where((counts == 0)[:, None], 0.0, normed)
        norms = np.linalg.norm(normed, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        out[block] = normed / safe[:, None]
    return out


def build_index(
    products: Iterable[tuple[str, str]],
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
) -> ProductIndex:
    """Encode, embed, and unit-normalize every catalog product."""
    ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()
    for pid, text in products:
        if pid in seen:
            raise ValueError(f"duplicate product id: {pid!r}")
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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.matrix @ query_vec
    rows = np.flatnonzero(scores >= threshold)
    cand = scores[rows]
    if len(rows) > k:
        kth = np.partition(cand, len(cand) - k)[len(cand) - k]
        keep = cand >= kth
        rows, cand = rows[keep], cand[keep]
    head = rows[np.lexsort((index._id_rank[rows], -cand))[:k]]
    return scores, head


def positions(scores: np.ndarray, rows: np.ndarray, index: ProductIndex) -> np.ndarray:
    """1-based positions of `rows` in the full (score desc, id asc) order of
    `scores`, counted without sorting."""
    s = scores[rows][:, None]
    ahead = (scores > s) | ((scores == s) & (index._id_rank < index._id_rank[rows][:, None]))
    return 1 + np.count_nonzero(ahead, axis=1)


def top_k(
    query_text: str,
    index: ProductIndex,
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
    k: int,
    threshold: float = 0.55,
    query_id: str = "",
) -> MatchResult:
    """Exact scan: up to k products with score >= threshold."""
    qvec = embed_query(query_text, model, vocab, config)
    scores, head = rank_all(qvec, index, k, threshold)
    items = [(index.ids[i], float(scores[i])) for i in head]
    return MatchResult(query_id=query_id, threshold=threshold, items=items)


def save_index(index: ProductIndex, f: BinaryIO) -> None:
    count, n = index.matrix.shape
    f.write(_IDX_MAGIC)
    f.write(_IDX_HEADER.pack(_IDX_VERSION, count, n))
    f.write(index.fingerprint)
    for pid in index.ids:
        raw = pid.encode("utf-8")
        f.write(_ID_LENGTH.pack(len(raw)))
        f.write(raw)
    f.write(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())


def load_index(f: BinaryIO) -> ProductIndex:
    """Read an index written by save_index. A short file or a trailing byte
    raises ValueError."""
    data = f.read()
    if data[:8] != _IDX_MAGIC:
        raise ValueError("not an index file (bad magic)")
    pos = 8 + _IDX_HEADER.size + 32
    if len(data) < pos:
        raise ValueError("truncated index")
    version, count, n = _IDX_HEADER.unpack_from(data, 8)
    if version != _IDX_VERSION:
        raise ValueError(f"unsupported index version {version}")
    fingerprint = data[pos - 32 : pos]
    ids_end = len(data) - count * n * 8  # the matrix fills the rest of the file
    if ids_end < pos:
        raise ValueError("truncated index")
    region = io.BytesIO(data[pos:ids_end])
    ids = []
    for _ in range(count):
        raw = region.read(_ID_LENGTH.size)
        if len(raw) != _ID_LENGTH.size:
            raise ValueError("truncated index")
        (length,) = _ID_LENGTH.unpack(raw)
        raw = region.read(length)
        if len(raw) != length:
            raise ValueError("truncated index")
        ids.append(raw.decode("utf-8"))
    if region.tell() != ids_end - pos:
        raise ValueError("index size does not match its header")
    matrix = np.frombuffer(data, dtype="<f8", count=count * n, offset=ids_end).reshape(count, n).copy()
    return ProductIndex(ids=ids, matrix=matrix, fingerprint=fingerprint)
