"""Exact cosine retrieval over precomputed unit product embeddings."""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .atomic import expect_size, read_header, read_matrices
from .model import EmbeddingModel, embed_batch, model_fingerprint
from .tokenizer import TokenizerConfig, Vocabulary, encode_batch

_IDX_MAGIC = b"SMINDEX4"
_IDX_VERSION = 4
_IDX_HEADER = struct.Struct("<IQIQ32s")  # version, count, n, id width, model fingerprint
# Bags per embedded block. Medians of build_index on the benchmark's seed-1
# catalogs (2 vCPUs, one BLAS thread): one call over the whole catalog took
# 37, 120 and 102 ms on train-std, rich-oov and serve-large, blocks of 256
# to 1024 bags 26-27, 103-104 and 74-77 ms, blocks of 64 bags 31, 117 and
# 87 ms.
_EMBED_BAGS = 256
_SCORE_BLOCK = 2**20  # screen scores per matrix product in rank_rows: 4 MB of float32
# Screened queries have norms up to this. A screen row's squared norm is a
# finite float32, so its norm is below 2**64, and every float32 sum of a
# screen dot stays below 2**125 (ProductIndex.screen).
_SCREEN_QUERY_NORM = 2.0**60


def score_rows(rows: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """The score of each row against the query: their float64 dot. Each row
    is summed alike wherever it sits in `rows`, so equal rows score equally
    and a gathered row scores as it does in the whole matrix; a BLAS
    matrix-vector product can round the rows of its tail differently."""
    return np.einsum("ij,j->i", rows, query_vec)


def positions(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1-based positions of `rows` in the full (score desc, row asc) order of
    `scores`, counted without sorting."""
    s = scores[rows][:, None]
    ahead = (scores > s) | ((scores == s) & (np.arange(len(scores)) < rows[:, None]))
    return 1 + np.count_nonzero(ahead, axis=1)


def _dot_error(qnorms: np.ndarray, row_norm: float, dim: int, dtype: type) -> np.ndarray:
    """Per query, a bound on |computed - exact| of `row . q` for every row of
    norm at most `row_norm`, when the row and q are first rounded to `dtype`
    and their dot is then summed in `dtype` in any order.

    With u the unit roundoff of `dtype`, rounding moves each component by at
    most u times itself, and a dot of length dim summed in any order is
    within gamma_dim * sum |row_j q_j| of the exact dot of what it sums. As
    (1 + u)**2 * (1 + gamma_dim) <= 1 + gamma_{dim+2}, the three roundings
    together stay within gamma_{dim+2} * sum |row_j q_j|, at most
    gamma_{dim+2} * ||q|| * ||row|| (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1 and lemma 3.3, then Cauchy-Schwarz).
    In float64 the first two roundings do nothing and the bound is slack.

    Underflow adds at most u * 2**emin, half the subnormal spacing, per
    rounded component and per product. Each norm is raised by
    t = 2**(emin // 2 + 3), more than underflow can hide from a computed
    norm: gamma * t * (||q|| + ||row||) covers the components, and
    gamma * t**2 > 64 * dim * u * 2**emin the products. The 2**-20 margin
    covers the rounding of the norms and of this formula."""
    info = np.finfo(dtype)
    u = float(info.eps) / 2
    t = 2.0 ** (info.minexp // 2 + 3)
    gamma = (dim + 2) * u / (1 - (dim + 2) * u) * (1 + 2**-20)
    return gamma * (qnorms + t) * (row_norm + t)


def round32(x: np.ndarray | float, toward: float) -> np.ndarray:
    """x (float64) rounded to float32 toward -inf or +inf, so a float32 at
    least (at most) the result is at least (at most) x. Beyond float32's
    range it rounds to an infinity; NaN stays NaN."""
    with np.errstate(over="ignore"):
        x32 = np.asarray(x).astype(np.float32)
        past = x32 > x if toward < 0 else x32 < x
        return np.where(past, np.nextafter(x32, np.float32(toward)), x32)


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
    def screen(self) -> tuple[np.ndarray, float]:
        """The matrix rounded to float32, and a bound on its largest float64
        row norm, made on first use in one pass over the matrix. A row that is
        not finite, or too large for float32 (its float32 squared norm
        overflows), raises ValueError naming its product.

        The bound comes from the float32 squared norms: each is within
        gamma_dim of the squared norm of the rounded row, which is within u
        of the row's (see _dot_error); 2**-60 exceeds what underflow hides."""
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self.matrix.astype(np.float32)
            squares = np.einsum("ij,ij->i", rows, rows)
        bad = np.flatnonzero(~np.isfinite(squares))
        if bad.size:
            finite = np.isfinite(self.matrix[bad[0]]).all()
            reason = "does not fit float32" if finite else "is not finite"
            raise ValueError(f"product {self.ids_at([bad[0]])[0]!r}: its embedding {reason}")
        dim = self.matrix.shape[1]
        u = float(np.finfo(np.float32).eps) / 2
        gamma = dim * u / (1 - dim * u)
        top = float(squares.max(initial=0.0))
        return rows, (math.sqrt(top / (1 - gamma)) + 2.0**-60) / (1 - u) * (1 + 2**-20)


@dataclass
class MatchResult:
    items: list[tuple[str, float]]  # (product id, score), score desc then id asc


def _embed_texts(
    texts: list[str],
    side: str,
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
    names: Sequence[str] | None = None,
) -> np.ndarray:
    """Inference-phase unit embeddings, _EMBED_BAGS bags at a time; empty
    bags embed as zero rows. An embedding that is not finite raises
    ValueError naming its text, or its entry of `names` (product ids)."""
    ids = encode_batch(texts, side, vocab, config)
    out = np.empty((len(ids), model.n), dtype=np.float64)
    for start in range(0, len(ids), _EMBED_BAGS):
        rows = embed_batch(ids[start : start + _EMBED_BAGS], side, model)
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            name = (names or texts)[start + bad[0]]
            raise ValueError(f"{side} {name!r}: its embedding is not finite")
        np.divide(rows, np.where(norms > 0.0, norms, 1.0)[:, None], out=out[start : start + _EMBED_BAGS])
    return out


def build_index(
    products: Iterable[tuple[str, str]],
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
) -> ProductIndex:
    """Encode, embed, and unit-normalize every catalog product, one row each in
    ascending product-id order. A duplicate product id, one containing a
    newline or a NUL, or an embedding that is not finite raises ValueError."""
    catalog = sorted(products, key=operator.itemgetter(0))
    ids = [pid for pid, _ in catalog]
    matrix = _embed_texts([text for _, text in catalog], "product", model, vocab, config, ids)
    return ProductIndex.from_ids(ids, matrix, model_fingerprint(model))


def embed_query(
    text: str, model: EmbeddingModel, vocab: Vocabulary, config: TokenizerConfig
) -> np.ndarray:
    return _embed_texts([text], "query", model, vocab, config)[0]


def screen_queries(qvecs: np.ndarray, index: ProductIndex) -> tuple[np.ndarray, np.ndarray]:
    """The (queries, N) queries rounded to float32 for index.screen, and per
    query a bound e on |screen score - score_rows score| of every row: the
    float32 and the float64 _dot_error added. A query of norm above
    2**60, or not finite, could overflow float32: it is screened as zeros
    with e = inf, which keeps every row."""
    _, row_norm = index.screen
    qnorms = np.linalg.norm(qvecs, axis=1)
    fits = qnorms <= _SCREEN_QUERY_NORM
    dim = qvecs.shape[1]
    e = _dot_error(qnorms, row_norm, dim, np.float32) + _dot_error(qnorms, row_norm, dim, np.float64)
    return np.where(fits[:, None], qvecs, 0.0).astype(np.float32), np.where(fits, e, np.inf)


def rank_all(
    query_vec: np.ndarray, index: ProductIndex, k: int, threshold: float = -np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the first k products with score >= threshold in (score
    desc, id asc) order, and their scores (score_rows).

    Exact: each float32 screen score is within e of its row's score
    (screen_queries). A row screened below threshold - e fails the
    threshold. Of the rest, one screened below the k-th highest screen score
    less 2e has k rows scoring strictly higher, which it could follow only
    if they failed the threshold too. Only the other rows are scored, cut
    at the k-th score keeping every row tied with it, and sorted. A NaN
    threshold, which no score passes, raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    screen, _ = index.screen
    q32, e = screen_queries(query_vec[None, :], index)
    coarse = screen @ q32[0]
    e = float(e[0])  # Python floats: inf - inf is NaN without a warning
    rows = np.flatnonzero(coarse >= round32(float(threshold) - e, -np.inf))
    if len(rows) > k:
        cand = coarse[rows]
        kth = float(np.partition(cand, len(cand) - k)[len(cand) - k])
        rows = rows[cand >= round32(kth - 2 * e, -np.inf)]
    scores = score_rows(index.matrix[rows], query_vec)
    keep = scores >= threshold
    rows, scores = rows[keep], scores[keep]
    if len(rows) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        rows, scores = rows[keep], scores[keep]
    order = np.argsort(-scores, kind="stable")[:k]  # rows ascend, so ties keep id order
    return rows[order], scores[order]


def rank_rows(qvecs: np.ndarray, rows: Sequence[np.ndarray], index: ProductIndex) -> list[list[int]]:
    """Per query of the (queries, N) `qvecs`, the ascending 1-based
    positions of its `rows` in the full (score desc, row asc) order of
    score_rows(index.matrix, q).

    Exact: each float32 screen score is within e of its row's score
    (screen_queries). With a row's score s, a row screened above s + e
    rounded up to float32 scores surely higher, one screened below s - e
    rounded down surely lower. Only a window holding more than the row
    itself is scored, and settled by positions.

    The queries are screened `_SCORE_BLOCK // products` at a time with one
    float32 matrix product against index.screen."""
    screen, _ = index.screen
    q32, errors = screen_queries(qvecs, index)
    scores = [score_rows(index.matrix[r], qvec) for r, qvec in zip(rows, qvecs)]
    # Every window bound of the call, rounded in one call per side.
    sizes = [len(r) for r in rows]
    flat, e, cuts = np.concatenate([np.zeros(0), *scores]), np.repeat(errors, sizes), np.cumsum(sizes)[:-1]
    lows, highs = np.split(round32(flat - e, -np.inf), cuts), np.split(round32(flat + e, np.inf), cuts)
    step = max(1, _SCORE_BLOCK // max(1, len(screen)))
    ranked = []
    for start in range(0, len(qvecs), step):
        block = slice(start, start + step)
        for qvec, coarse, r, low, high in zip(
            qvecs[block], q32[block] @ screen.T, rows[block], lows[block], highs[block]
        ):
            ranks = []
            for row, lo, hi in zip(r, low, high):
                higher = np.count_nonzero(coarse > hi)
                if np.count_nonzero(coarse >= lo) - higher > 1:
                    near = np.flatnonzero((coarse >= lo) & (coarse <= hi))
                    settled = score_rows(index.matrix[near], qvec)
                    higher += int(positions(settled, np.searchsorted(near, [row]))[0]) - 1
                ranks.append(1 + higher)
            ranked.append(sorted(ranks))
    return ranked


def top_k(
    query_text: str,
    index: ProductIndex,
    model: EmbeddingModel,
    vocab: Vocabulary,
    config: TokenizerConfig,
    k: int,
    threshold: float,
) -> MatchResult:
    """Exact search: up to k products with score >= threshold. Only their ids
    are decoded."""
    qvec = embed_query(query_text, model, vocab, config)
    head, scores = rank_all(qvec, index, k, threshold)
    return MatchResult(items=list(zip(index.ids_at(head), scores.tolist())))


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
    Rows that are not finite are rejected on first use (ProductIndex.screen).

    Every file it accepts saves back byte-identical. Once every size check
    has passed, the matrix of a file is mapped copy-on-write (see
    atomic.read_matrices), so a query reads only what it touches. Rewriting
    the file in place while the index is alive can kill the process with
    SIGBUS; artifacts are replaced by rename instead."""
    count, n, width, fingerprint = read_header(f, _IDX_MAGIC, _IDX_HEADER, _IDX_VERSION, "index")
    block_len = count * width
    padded = block_len + (-block_len % 8)
    expect_size(f, padded + 8 * count * n, "index")
    raw = f.read(padded)
    if raw[block_len:] != bytes(padded - block_len):
        raise ValueError("index ids do not match its header")
    keys = _read_keys(raw[:block_len], count, width)
    (matrix,) = read_matrices(f, 1, (count, n))
    return ProductIndex(keys=keys, matrix=matrix, fingerprint=fingerprint)
