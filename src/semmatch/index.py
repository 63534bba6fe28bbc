"""Exact cosine retrieval over precomputed unit product embeddings."""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterable

import numpy as np

from .atomic import expect_size, read_array, read_header
from .model import EmbeddingModel, embed_batch, model_fingerprint
from .tokenizer import TokenizerConfig, Vocabulary, encode_batch

_IDX_MAGIC = b"SMINDEX4"
_IDX_VERSION = 4
_IDX_HEADER = struct.Struct("<IQIQ32s")  # version, count, n, id width, model fingerprint
_EMBED_FLOATS = 2**18  # floats gathered per pooled block: (rows, L, N) stays near 2 MB


@dataclass
class ProductIndex:
    """Rows in ascending product-id order, so a row index breaks score ties
    by id. The ids are kept as UTF-8 records NUL-padded to one width; for
    valid UTF-8 without NUL, byte order is str order, so one vector
    comparison checks them. Ids that are not strictly ascending raise
    ValueError naming the first pair out of order."""

    keys: np.ndarray  # (count,) S{width}: each row's product id, UTF-8, NUL-padded
    matrix: np.ndarray  # (count, N), unit rows or exact zero rows
    fingerprint: bytes  # 32-byte model digest

    def __post_init__(self) -> None:
        bad = np.flatnonzero(self.keys[1:] <= self.keys[:-1])
        if bad.size:
            a, b = self.ids_at(slice(bad[0], bad[0] + 2))
            if a == b:
                raise ValueError(f"duplicate product id: {a!r}")
            raise ValueError(f"product ids out of order: {a!r} before {b!r}")

    @classmethod
    def from_ids(cls, ids: list[str], matrix: np.ndarray, fingerprint: bytes) -> ProductIndex:
        """An index of `ids`, one per matrix row. An id containing a newline,
        or a NUL, which the NUL-padded records cannot hold, raises ValueError."""
        joined = "".join(ids)
        for char, name in (("\n", "a newline"), ("\0", "a NUL")):
            if char in joined:
                pid = next(pid for pid in ids if char in pid)
                raise ValueError(f"product id contains {name}: {pid!r}")
        keys = np.array(list(map(str.encode, ids)), dtype=np.bytes_)  # UTF-8
        return cls(keys=keys, matrix=matrix, fingerprint=fingerprint)

    def ids_at(self, rows: np.ndarray | slice) -> list[str]:
        """The product ids of `rows`, decoded."""
        return [key.decode("utf-8") for key in self.keys[rows].tolist()]

    @cached_property
    def ids(self) -> list[str]:
        """Every product id in row order, decoded on first use."""
        return self.ids_at(slice(None))

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
    newline or a NUL, raises ValueError."""
    catalog = sorted(products, key=operator.itemgetter(0))
    ids = [pid for pid, _ in catalog]
    matrix = _embed_texts([text for _, text in catalog], "product", model, vocab, config)
    return ProductIndex.from_ids(ids, matrix, model_fingerprint(model))


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
    """Exact scan: up to k products with score >= threshold. Only their ids
    are decoded."""
    qvec = embed_query(query_text, model, vocab, config)
    scores, head = rank_all(qvec, index, k, threshold)
    return MatchResult(items=list(zip(index.ids_at(head), scores[head].tolist())))


def save_index(index: ProductIndex, f: BinaryIO) -> None:
    """Write the header, the model fingerprint, the ids as one block of UTF-8
    records NUL-padded to the longest id's width, the block padded with NULs
    to a multiple of 8 bytes, and the matrix."""
    count, n = index.matrix.shape
    width = int(np.char.str_len(index.keys).max(initial=0))
    block = index.keys.astype(f"S{width}", copy=False).tobytes() if width else b""
    f.write(_IDX_MAGIC + _IDX_HEADER.pack(_IDX_VERSION, count, n, width, index.fingerprint))
    f.write(block + bytes(-len(block) % 8))
    f.write(np.ascontiguousarray(index.matrix, dtype="<f8"))


def _read_keys(block: bytes, count: int, width: int) -> np.ndarray:
    """View `count` records of `width` bytes as ProductIndex.keys, accepting
    only what save_index writes: valid UTF-8 ids with no NUL inside them,
    padded with NULs to the width of the longest. No Python string is made
    per id."""
    if width == 0:  # every id is empty
        if count > 1:
            raise ValueError("duplicate product id: ''")
        return np.zeros(count, dtype="S1")
    if count == 0:
        raise ValueError("index id width is not that of its longest id")
    rows = np.frombuffer(block, dtype=np.uint8).reshape(count, width)
    if not rows[:, -1].any():
        raise ValueError("index id width is not that of its longest id")
    nul = rows == 0
    if (nul[:, :-1] > nul[:, 1:]).any():  # a NUL before a byte that is not one
        raise ValueError("an index id contains a NUL")
    # With no record starting inside a character, the block decodes exactly
    # when every record does.
    if ((rows[:, 0] & 0xC0) == 0x80).any():
        raise ValueError("index ids are not UTF-8")
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("index ids are not UTF-8") from None
    return np.frombuffer(block, dtype=f"S{width}")


def load_index(f: BinaryIO) -> ProductIndex:
    """Read an index written by save_index. A short file, a trailing byte,
    padding that is not NUL, ids that are not what save_index writes (see
    _read_keys), or ids that are not strictly ascending raise ValueError.

    Every file it accepts saves back byte-identical."""
    count, n, width, fingerprint = read_header(f, _IDX_MAGIC, _IDX_HEADER, _IDX_VERSION, "index")
    block_len = count * width
    padded = block_len + (-block_len % 8)
    expect_size(f, padded + 8 * count * n, "index")
    raw = f.read(padded)
    if raw[block_len:] != bytes(padded - block_len):
        raise ValueError("index ids do not match its header")
    keys = _read_keys(raw[:block_len], count, width)
    matrix = read_array(f, (count, n))
    return ProductIndex(keys=keys, matrix=matrix, fingerprint=fingerprint)
