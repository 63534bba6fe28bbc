"""Siamese embedding-bag model: shared lookup, average pooling, normalization,
cosine scoring, and closed-form gradients.

All arithmetic is float64. Row 0 of every embedding matrix is the masked
padding row: it stays zero and never receives gradient.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .atomic import expect_size, read_array, read_header, read_matrices

NORM_NONE = "none"
NORM_BATCH = "batch"
NORM_LAYER = "layer"
_NORM_CODES = {NORM_NONE: 0, NORM_BATCH: 1, NORM_LAYER: 2}
_NORM_NAMES = {v: k for k, v in _NORM_CODES.items()}

_CKPT_MAGIC = b"SMMODEL2"
_CKPT_VERSION = 2
_CKPT_HEADER = struct.Struct("<IQQIIdd")
_DIGEST_SIZE = 32  # sha256 of the checkpoint's preceding bytes, at its end


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 256
    shared_embeddings: bool = True
    normalization: str = NORM_BATCH
    bn_momentum: float = 0.99
    bn_epsilon: float = 1e-5

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.normalization not in _NORM_CODES:
            raise ValueError(f"unknown normalization: {self.normalization!r}")
        if not (0.0 < self.bn_momentum < 1.0):
            raise ValueError("bn_momentum must be in (0, 1)")
        # A NaN epsilon writes NaN rows, which score 0 and so pass train's
        # finite-loss check; an infinite one maps every bag to beta.
        if not 0.0 < self.bn_epsilon < math.inf:
            raise ValueError("bn_epsilon must be finite and positive")


@dataclass
class NormState:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "NormState":
        return cls(
            gamma=np.ones(n, dtype=np.float64),
            beta=np.zeros(n, dtype=np.float64),
            running_mean=np.zeros(n, dtype=np.float64),
            running_var=np.ones(n, dtype=np.float64),
        )


class EmbeddingModel:
    """Embedding matrices (one shared or two decoupled arms) plus per-arm
    normalization state."""

    def __init__(
        self,
        config: ModelConfig,
        query_matrix: np.ndarray,
        product_matrix: np.ndarray,
        norm_query: NormState,
        norm_product: NormState,
        vocab_v: int,
        oov_bins: int,
    ):
        if config.shared_embeddings and query_matrix is not product_matrix:
            raise ValueError("shared config requires one shared matrix object")
        expected = (vocab_v + oov_bins + 1, config.embedding_dim)
        for m in (query_matrix, product_matrix):
            if m.shape != expected:
                raise ValueError(f"matrix shape {m.shape} != expected {expected}")
        self.config = config
        self.query_matrix = query_matrix
        self.product_matrix = product_matrix
        self.norm_query = norm_query
        self.norm_product = norm_product
        self.vocab_v = vocab_v
        self.oov_bins = oov_bins
        # The digest stored in the checkpoint this model was loaded from, or
        # None. It equals model_fingerprint(self) until the parameters change.
        self.checkpoint_digest: bytes | None = None

    @property
    def n(self) -> int:
        return self.config.embedding_dim

    def arm(self, name: str) -> tuple[np.ndarray, NormState]:
        """The embedding matrix and normalization state of arm `name`."""
        if name == "query":
            return self.query_matrix, self.norm_query
        if name == "product":
            return self.product_matrix, self.norm_product
        raise ValueError(f"arm must be 'query' or 'product', got {name!r}")

    def parameters(self) -> dict[str, np.ndarray]:
        """Named trainable arrays. Shared arms expose one matrix."""
        params: dict[str, np.ndarray] = {}
        if self.config.shared_embeddings:
            params["emb"] = self.query_matrix
        else:
            params["emb_q"] = self.query_matrix
            params["emb_p"] = self.product_matrix
        if self.config.normalization != NORM_NONE:
            params["gamma_q"] = self.norm_query.gamma
            params["beta_q"] = self.norm_query.beta
            params["gamma_p"] = self.norm_product.gamma
            params["beta_p"] = self.norm_product.beta
        return params


# Calls of at least this many bags pool one slot column at a time, smaller
# ones gather their used columns at once. The loop pays a fixed cost per
# column (one fancy index and one add), the gather a cost per float of its
# (B, L, N) temporary. Timed on the benchmark workloads' seed-1 records
# (N = 64, numpy 2.4.6, 2 vCPUs), the two break even at 20-48 bags of 8-12
# slots and at 48-64 bags of 40-80 slots. Below that the loop is up to 7x
# slower (one 80-slot bag: 124 us against 18), at 250 bags up to 2.3x
# faster.
_POOL_BAGS = 48


def pool_batch(ids: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average the embedding rows of the non-zero ids of each bag.

    Row 0 is all zeros, so summing each bag's slots in order and dividing by
    the non-zero count is the masked mean. All-padding bags pool to zero.

    Only the slots up to the call's last column holding a non-padding id are
    read: a call of _POOL_BAGS bags or more adds them one slot column at a
    time, a smaller one gathers them at once. Both sums start from +0.0, as
    numpy's sum over all slots does, so no sum is -0.0 and each skipped
    padding slot, which would add +0.0, changes no bit: a bag pools to the
    same bytes in a call of any size or width. With N = 1 numpy would sum a
    gathered (B, L, 1) along its contiguous slot axis pairwise, so one
    column always takes the loop and every sum runs in slot order.
    """
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= matrix.shape[0]:
        raise ValueError("token id out of embedding-matrix bounds")
    filled = ids != 0
    counts = filled.sum(axis=1)
    used = np.flatnonzero(filled.any(axis=0))
    width = used[-1] + 1 if used.size else 0
    if len(ids) < _POOL_BAGS and matrix.shape[1] > 1:
        summed = matrix[ids[:, :width]].sum(axis=1)
    else:
        summed = np.zeros((len(ids), matrix.shape[1]))
        for slot in range(width):
            summed += matrix[ids[:, slot]]
    pooled = summed / np.maximum(counts, 1)[:, None]
    return pooled, counts


# The axis each (normalization, phase) standardises over; None uses the
# running statistics.
_NORM_AXIS = {(NORM_LAYER, "train"): 1, (NORM_LAYER, "infer"): 1,
              (NORM_BATCH, "train"): 0, (NORM_BATCH, "infer"): None}


@dataclass
class _NormCache:
    axis: int | None
    xhat: np.ndarray
    std: np.ndarray
    gamma: np.ndarray


def normalize_batch(
    x: np.ndarray, arm: str, model: EmbeddingModel, phase: str
) -> tuple[np.ndarray, _NormCache | None]:
    """Normalize a (B, N) batch of pooled embeddings for one arm: gamma * (x -
    mu) / sqrt(var + eps) + beta. With none, x itself and no cache."""
    if phase not in ("train", "infer"):
        raise ValueError(f"phase must be 'train' or 'infer', got {phase!r}")
    _, state = model.arm(arm)
    mode = model.config.normalization
    if mode == NORM_NONE:
        return x, None
    axis = _NORM_AXIS[mode, phase]
    if axis is None:
        mu, var = state.running_mean, state.running_var
    else:
        if axis == 0 and x.shape[0] < 2:
            raise ValueError("batch normalization needs batch size >= 2 in train phase")
        mu = x.mean(axis=axis, keepdims=True)
        var = x.var(axis=axis, keepdims=True)
        if axis == 0:
            mom = model.config.bn_momentum
            state.running_mean[:] = mom * state.running_mean + (1 - mom) * mu[0]
            state.running_var[:] = mom * state.running_var + (1 - mom) * var[0]
    std = np.sqrt(var + model.config.bn_epsilon)
    xhat = (x - mu) / std
    return state.gamma * xhat + state.beta, _NormCache(axis, xhat, std, state.gamma)


def embed_batch(ids: np.ndarray, arm: str, model: EmbeddingModel) -> np.ndarray:
    """Inference-phase embeddings of one arm's bags, pooled and normalized in
    one call. An empty bag embeds as a zero row."""
    pooled, counts = pool_batch(ids, model.arm(arm)[0])
    normed, _ = normalize_batch(pooled, arm, model, "infer")
    normed[counts == 0] = 0.0
    return normed


def _norm_backward(
    dout: np.ndarray, cache: _NormCache | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Returns (dx, dgamma, dbeta) for one arm's normalization; with no
    cache, (dout, None, None)."""
    if cache is None:
        return dout, None, None
    dgamma = (dout * cache.xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * cache.gamma
    if cache.axis is None:  # the running statistics are constants
        return dxhat / cache.std, dgamma, dbeta
    m1 = dxhat.mean(axis=cache.axis, keepdims=True)
    m2 = (dxhat * cache.xhat).mean(axis=cache.axis, keepdims=True)
    return (dxhat - m1 - cache.xhat * m2) / cache.std, dgamma, dbeta


def cosine_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    dots = (a * b).sum(axis=1)
    return np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)


@dataclass
class ForwardCache:
    q_ids: np.ndarray
    p_ids: np.ndarray
    q_counts: np.ndarray
    p_counts: np.ndarray
    q_norm_cache: _NormCache | None
    p_norm_cache: _NormCache | None
    a: np.ndarray  # normalized query embeddings
    b: np.ndarray  # normalized product embeddings
    scores: np.ndarray
    empty: np.ndarray  # bool mask: either side had an empty bag
    shared: bool


def forward_batch(
    q_ids: np.ndarray, p_ids: np.ndarray, model: EmbeddingModel, phase: str
) -> tuple[np.ndarray, ForwardCache]:
    """Score a batch of (query, product) bag pairs.

    Pairs where either side pooled to an empty bag score exactly 0 and
    contribute no cosine gradient (their pooled zeros still participate in
    batch statistics).
    """
    q_pooled, q_counts = pool_batch(q_ids, model.query_matrix)
    p_pooled, p_counts = pool_batch(p_ids, model.product_matrix)
    a, q_nc = normalize_batch(q_pooled, "query", model, phase)
    b, p_nc = normalize_batch(p_pooled, "product", model, phase)
    scores = cosine_batch(a, b)
    empty = (q_counts == 0) | (p_counts == 0)
    scores = np.where(empty, 0.0, scores)
    cache = ForwardCache(
        q_ids=np.asarray(q_ids),
        p_ids=np.asarray(p_ids),
        q_counts=q_counts,
        p_counts=p_counts,
        q_norm_cache=q_nc,
        p_norm_cache=p_nc,
        a=a,
        b=b,
        scores=scores,
        empty=empty,
        shared=model.config.shared_embeddings,
    )
    return scores, cache


@dataclass
class SparseRowGrad:
    """Gradient for a subset of embedding rows."""

    rows: np.ndarray  # (k,) int64, sorted, never containing row 0
    values: np.ndarray  # (k, N)


Gradients = dict[str, "np.ndarray | SparseRowGrad"]


def _cosine_backward(cache: ForwardCache, dscores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = cache.a, cache.b
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0.0) & (nb > 0.0) & ~cache.empty
    d = np.where(ok, dscores, 0.0)[:, None]
    na_s = np.where(na > 0.0, na, 1.0)[:, None]
    nb_s = np.where(nb > 0.0, nb, 1.0)[:, None]
    s = cache.scores[:, None]
    da = d * (b / (na_s * nb_s) - s * a / (na_s**2))
    db = d * (a / (na_s * nb_s) - s * b / (nb_s**2))
    da[~ok] = 0.0
    db[~ok] = 0.0
    return da, db


def _rows_and_slots(touched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending nonzero positions of `touched`, a lookup from each such
    position to its place among them); other lookup entries are unset."""
    rows = np.flatnonzero(touched)
    slot = np.empty(touched.size, dtype=np.int64)
    slot[rows] = np.arange(rows.size)
    return rows, slot


def _pool_backward(
    ids: np.ndarray, counts: np.ndarray, dpooled: np.ndarray
) -> SparseRowGrad:
    """Scatter each bag's pooled gradient onto its non-padding ids.

    The touched rows come from a count of each id, not a sort. np.bincount
    sums every cell from 0.0 in input order, as np.add.at would, so the
    result is the same to the bit."""
    n = dpooled.shape[1]
    per_token = dpooled / np.maximum(counts, 1)[:, None]
    bag, slot = np.nonzero(ids)
    if bag.size == 0:
        return SparseRowGrad(
            rows=np.empty(0, dtype=np.int64), values=np.empty((0, n), dtype=np.float64)
        )
    tok = ids[bag, slot]
    rows, row_slot = _rows_and_slots(np.bincount(tok))
    cells = (row_slot[tok][:, None] * n + np.arange(n)).ravel()
    values = np.bincount(cells, weights=per_token[bag].ravel(), minlength=rows.size * n)
    return SparseRowGrad(rows=rows, values=values.reshape(rows.size, n))


def _merge_sparse(a: SparseRowGrad, b: SparseRowGrad) -> SparseRowGrad:
    """Row-wise sum of two gradients, each with unique sorted rows: `a` and
    then `b` are added onto zeros."""
    touched = np.zeros(max(a.rows.max(initial=0), b.rows.max(initial=0)) + 1, dtype=bool)
    touched[a.rows] = True
    touched[b.rows] = True
    rows, row_slot = _rows_and_slots(touched)
    values = np.zeros((rows.size, a.values.shape[1]), dtype=np.float64)
    values[row_slot[a.rows]] += a.values
    values[row_slot[b.rows]] += b.values
    return SparseRowGrad(rows=rows, values=values)


def backward_batch(cache: ForwardCache, dscores: np.ndarray) -> Gradients:
    """Exact gradients of sum(dscores * scores) w.r.t. model parameters.

    Embedding gradients come back sparse per-row; shared arms accumulate
    both sides into one entry. Row 0 never appears.
    """
    da, db = _cosine_backward(cache, np.asarray(dscores, dtype=np.float64))
    dq_pooled, dgamma_q, dbeta_q = _norm_backward(da, cache.q_norm_cache)
    dp_pooled, dgamma_p, dbeta_p = _norm_backward(db, cache.p_norm_cache)
    grad_q = _pool_backward(cache.q_ids, cache.q_counts, dq_pooled)
    grad_p = _pool_backward(cache.p_ids, cache.p_counts, dp_pooled)
    grads: Gradients = {}
    if cache.shared:
        grads["emb"] = _merge_sparse(grad_q, grad_p)
    else:
        grads["emb_q"] = grad_q
        grads["emb_p"] = grad_p
    if cache.q_norm_cache is not None:
        grads["gamma_q"] = dgamma_q
        grads["beta_q"] = dbeta_q
    if cache.p_norm_cache is not None:
        grads["gamma_p"] = dgamma_p
        grads["beta_p"] = dbeta_p
    return grads


def _checkpoint_body(model: EmbeddingModel) -> list:
    """The checkpoint's bytes before its digest: magic, config header, the
    embedding matrix/matrices and the per-arm normalization state."""
    cfg = model.config
    flags = (1 if cfg.shared_embeddings else 0) | (_NORM_CODES[cfg.normalization] << 1)
    header = _CKPT_HEADER.pack(
        _CKPT_VERSION,
        model.vocab_v,
        model.oov_bins,
        cfg.embedding_dim,
        flags,
        cfg.bn_momentum,
        cfg.bn_epsilon,
    )
    arrays = [model.query_matrix]
    if not cfg.shared_embeddings:
        arrays.append(model.product_matrix)
    for state in (model.norm_query, model.norm_product):
        arrays += [state.gamma, state.beta, state.running_mean, state.running_var]
    return [_CKPT_MAGIC + header] + [np.ascontiguousarray(a, dtype="<f8") for a in arrays]


def _sha256(parts: list) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def save_model(model: EmbeddingModel, f: BinaryIO) -> None:
    """Little-endian binary checkpoint ending in the sha256 of the bytes
    before it; round-trips bit-exactly."""
    parts = _checkpoint_body(model)
    for part in parts:
        f.write(part)
    f.write(_sha256(parts))


def load_model(f: BinaryIO) -> EmbeddingModel:
    """Read a checkpoint written by save_model, starting at f's position. A
    file shorter or longer than its header implies raises ValueError, and so
    does an embedding row 0 that is not all zeros: pooling skips trailing
    padding slots, which is exact only while the padding row adds nothing.

    Once every size check has passed, the embedding matrices of a file are
    mapped copy-on-write (see atomic.read_matrices), so a query reads only
    the rows it uses. Rewriting the file in place while the model is alive
    can kill the process with SIGBUS; artifacts are replaced by rename
    instead.
    The normalization state and the digest are read. The digest is kept as
    the model's checkpoint_digest without being checked against the
    parameters: hashing them costs more than a query."""
    v, bins, n, flags, momentum, epsilon = read_header(
        f, _CKPT_MAGIC, _CKPT_HEADER, _CKPT_VERSION, "checkpoint"
    )
    shared = bool(flags & 1)
    norm = _NORM_NAMES.get(flags >> 1)  # set bits above the code are unknown too
    if norm is None:
        raise ValueError(f"unknown normalization code in checkpoint flags {flags}")
    cfg = ModelConfig(
        embedding_dim=n,
        shared_embeddings=shared,
        normalization=norm,
        bn_momentum=momentum,
        bn_epsilon=epsilon,
    )
    rows, arms = v + bins + 1, 1 if shared else 2
    expect_size(f, 8 * (rows * n * arms + 8 * n) + _DIGEST_SIZE, "checkpoint")
    matrices = read_matrices(f, arms, (rows, n))
    for name, matrix in zip(("shared",) if shared else ("query", "product"), matrices):
        if matrix[0].any():
            raise ValueError(f"checkpoint {name} embedding row 0 (padding) is not all zeros")
    qm, pm = matrices[0], matrices[-1]  # one object for shared arms
    norm_q, norm_p = (NormState(*(read_array(f, (n,)) for _ in range(4))) for _ in range(2))
    model = EmbeddingModel(cfg, qm, pm, norm_q, norm_p, v, bins)
    model.checkpoint_digest = f.read(_DIGEST_SIZE)
    return model


def model_fingerprint(model: EmbeddingModel) -> bytes:
    """32-byte digest identifying the exact parameter state: the digest that
    save_model writes at the end of the checkpoint."""
    return _sha256(_checkpoint_body(model))
