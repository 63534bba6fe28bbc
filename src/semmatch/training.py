"""Training pipeline: weighted token records, 1:6:7 sampling, Xavier init,
lazy sparse ADAM, and the epoch loop."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable

import numpy as np

from . import model as model_mod
from .atomic import atomic_write, expect_size, read_array, read_header
from .draws import below_each
from .losses import Label3, LossSpec, loss_batch, loss_grad_batch
from .model import EmbeddingModel, ModelConfig, NormState, SparseRowGrad, forward_batch, backward_batch
from .synth import LogRecord
from .tokenizer import TokenizerConfig, Vocabulary, encode_batch

_REC_MAGIC = b"SMRECS01"
_REC_VERSION = 1
_REC_HEADER = struct.Struct("<IIIQ")  # version, query_max, product_max, count


def record_dtype(query_max: int, product_max: int) -> np.dtype:
    return np.dtype(
        [
            ("label", "u1"),
            ("weight", "<f8"),
            ("query", "<u4", (query_max,)),
            ("product", "<u4", (product_max,)),
        ]
    )


def write_records(
    path: str, query_max: int, product_max: int, records: np.ndarray
) -> None:
    with atomic_write(path) as f:
        f.write(_REC_MAGIC + _REC_HEADER.pack(_REC_VERSION, query_max, product_max, len(records)))
        f.write(np.ascontiguousarray(records, dtype=record_dtype(query_max, product_max)))


def read_records(path: str) -> tuple[int, int, np.ndarray]:
    """Returns (query_max, product_max, structured record array). A file
    shorter or longer than its header implies raises ValueError."""
    with open(path, "rb") as f:
        qmax, pmax, count = read_header(f, _REC_MAGIC, _REC_HEADER, _REC_VERSION, "record file")
        dt = record_dtype(qmax, pmax)
        expect_size(f, count * dt.itemsize, "record file")
        data = read_array(f, (count,), dt)
    return qmax, pmax, data


_LABEL_CODE = {"purchased": int(Label3.PURCHASED), "impressed": int(Label3.IMPRESSED)}


def preprocess_logs(
    logs: Iterable[LogRecord],
    vocab: Vocabulary,
    config: TokenizerConfig,
    out_path: str,
) -> dict[str, int]:
    """Aggregate identical (query, product, label) triples and write the
    fixed-width binary record file, in sorted triple order. Each side's
    texts are encoded in one batch, which encodes each distinct text once.
    Returns per-label counters."""
    weights: dict[tuple[str, str, str], float] = {}
    product_text: dict[str, str] = {}
    for rec in logs:
        key = (rec.query, rec.product_id, rec.label)
        weights[key] = weights.get(key, 0.0) + rec.count
        product_text[rec.product_id] = rec.product_text
    if not weights:
        raise ValueError("no usable log rows to preprocess")

    qmax, pmax = vocab.max_tokens("query", config), vocab.max_tokens("product", config)
    keys = sorted(weights)
    labels = [label for _, _, label in keys]
    out = np.zeros(len(keys), dtype=record_dtype(qmax, pmax))
    out["label"] = [_LABEL_CODE[label] for label in labels]
    out["weight"] = [weights[key] for key in keys]
    out["query"] = encode_batch([query for query, _, _ in keys], "query", vocab, config)
    out["product"] = encode_batch([product_text[pid] for _, pid, _ in keys], "product", vocab, config)
    stats = {label: labels.count(label) for label in ("purchased", "impressed")}
    write_records(out_path, qmax, pmax, out)
    return stats


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 10
    seed: int = 0
    shuffle: bool = True
    impressed_per_purchase: int = 6
    random_per_purchase: int = 7

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        for name in ("impressed_per_purchase", "random_per_purchase"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # A moment rate of 1 zeroes a bias correction, and eps = 0 divides
        # 0 by 0 for a touched entry whose gradient stayed 0. Either writes
        # NaN rows, which score 0 and so pass train's finite-loss check.
        for name in ("alpha", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")


@dataclass
class EpochSample:
    """An epoch's examples, each bag given by its row in the RecordGroups
    bag tables (`query_bags[query_code]` is the query bag)."""

    labels: np.ndarray  # (E,) Label3 codes
    weights: np.ndarray  # (E,) float64
    query_code: np.ndarray  # (E,) int64 row of RecordGroups.query_bags
    product_code: np.ndarray  # (E,) int64 row of RecordGroups.product_bags


@dataclass
class RecordGroups:
    """Records grouped by query bag, once per train call.

    Bags are coded in order of first appearance, so product code j is also
    the catalog index random negatives are drawn from. Only query groups
    with a purchase are kept, numbered in order of first appearance; each
    group's rows keep record order. Group g's excluded product codes c are
    held as the keys g * len(catalog_rows) + c."""

    query_bags: np.ndarray  # (distinct query bags, Lq) int64
    product_bags: np.ndarray  # (distinct product bags, Lp) int64
    query_code: np.ndarray  # (R,) record row -> query bag
    product_code: np.ndarray  # (R,) record row -> product bag
    weights: np.ndarray  # (R,) float64
    catalog_rows: np.ndarray  # first record row of each product bag
    purchased: np.ndarray  # purchased record rows, group by group
    purchase_group: np.ndarray  # group of each purchased row
    impressed: np.ndarray  # every other record row, group by group
    impressed_start: np.ndarray  # (groups,) offset of each group's impressed rows
    impressed_count: np.ndarray  # (groups,)
    excluded: np.ndarray  # sorted keys of each group's product codes
    excluded_count: np.ndarray  # (groups,) distinct product codes per group


def _first_appearance_codes(bags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct bags, code per row, first row per code), codes numbered in
    order of first appearance."""
    distinct, first, inverse = np.unique(bags, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    code = np.empty_like(order)
    code[order] = np.arange(order.size)
    return distinct[order].astype(np.int64), code[inverse.ravel()], first[order]


def group_records(records: np.ndarray) -> RecordGroups:
    """Group the records for sample_epoch; raises ValueError when none is a
    purchase."""
    purchased = records["label"] == int(Label3.PURCHASED)
    if not purchased.any():
        raise ValueError("no purchased records to sample an epoch from")
    query_bags, query_code, _ = _first_appearance_codes(records["query"])
    product_bags, product_code, catalog_rows = _first_appearance_codes(records["product"])
    kept = np.bincount(query_code[purchased], minlength=len(query_bags)) > 0
    group_of_code = np.cumsum(kept) - 1
    rows = np.argsort(query_code, kind="stable")
    rows = rows[kept[query_code[rows]]]
    group = group_of_code[query_code[rows]]
    n_groups, n_catalog = int(kept.sum()), len(catalog_rows)
    is_purchase = purchased[rows]
    impressed_count = np.bincount(group[~is_purchase], minlength=n_groups)
    excluded = np.unique(group * n_catalog + product_code[rows])
    return RecordGroups(
        query_bags,
        product_bags,
        query_code,
        product_code,
        records["weight"].astype(np.float64),
        catalog_rows,
        purchased=rows[is_purchase],
        purchase_group=group[is_purchase],
        impressed=rows[~is_purchase],
        impressed_start=np.cumsum(impressed_count) - impressed_count,
        impressed_count=impressed_count,
        excluded=excluded,
        excluded_count=np.bincount(excluded // n_catalog, minlength=n_groups),
    )


def sample_epoch(
    groups: RecordGroups, config: TrainConfig, rng: np.random.Generator
) -> EpochSample:
    """One epoch: per purchased record, 1 purchase + `impressed_per_purchase`
    impressed (with replacement; randoms substituted when the query has
    none) + `random_per_purchase` random products sampled outside the
    query's purchased/impressed sets.

    Every pick takes the words of its own `rng.integers(h)` call, from
    `draws.below_each` over the epoch's picks, which draws them a chunk at
    a time with one array-bound `integers` call; a random pick is drawn
    again while its product is in the query's exclusion, unless that
    covers the whole catalog. The shuffle then draws from where the picks
    left `rng`."""
    k_imp, k_rand = config.impressed_per_purchase, config.random_per_purchase
    n_catalog = len(groups.catalog_rows)
    P, I, R = int(Label3.PURCHASED), int(Label3.IMPRESSED), int(Label3.RANDOM)
    group = groups.purchase_group[:, None]
    n_impressed = groups.impressed_count[group]
    # Per purchase: k_imp impressed slots (random when the query has no
    # impressed row), then k_rand random slots.
    is_random = (np.arange(k_imp + k_rand) >= k_imp) | (n_impressed == 0)
    bounds = np.where(is_random, n_catalog, n_impressed).ravel()
    # A random pick is redrawn while its key is excluded, unless the
    # query's exclusion covers the catalog; other picks get offset -1.
    checked = is_random & (groups.excluded_count[group] < n_catalog)
    offsets = np.where(checked, group * n_catalog, -1).ravel()
    values = below_each(rng, bounds, offsets, groups.excluded).reshape(is_random.shape)

    picked = np.empty_like(values)
    picked[is_random] = groups.catalog_rows[values[is_random]]
    from_impressed = ~is_random
    picked[from_impressed] = groups.impressed[(groups.impressed_start[group] + values)[from_impressed]]
    purchased = groups.purchased[:, None]
    q_idx = np.repeat(groups.purchased, 1 + k_imp + k_rand)
    p_idx = np.hstack([purchased, picked]).ravel()
    labels_arr = np.hstack([np.full_like(purchased, P), np.where(is_random, R, I)]).ravel()
    if config.shuffle:
        perm = rng.permutation(len(labels_arr))
        labels_arr, q_idx, p_idx = labels_arr[perm], q_idx[perm], p_idx[perm]
    return EpochSample(
        labels=labels_arr,
        weights=np.where(labels_arr == R, 1.0, groups.weights[p_idx]),
        query_code=groups.query_code[q_idx],
        product_code=groups.product_code[p_idx],
    )


def xavier_init(rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier matrix with fan-in = fan-out = n; row 0 zeroed."""
    if rows < 1 or n < 1:
        raise ValueError("rows and n must be >= 1")
    bound = np.sqrt(3.0 / n)
    m = rng.uniform(-bound, bound, size=(rows, n))
    m[0] = 0.0
    return m


def init_model(
    vocab_v: int, oov_bins: int, config: ModelConfig, rng: np.random.Generator
) -> EmbeddingModel:
    rows = vocab_v + oov_bins + 1
    qm = xavier_init(rows, config.embedding_dim, rng)
    pm = qm if config.shared_embeddings else xavier_init(rows, config.embedding_dim, rng)
    return EmbeddingModel(
        config,
        qm,
        pm,
        NormState.fresh(config.embedding_dim),
        NormState.fresh(config.embedding_dim),
        vocab_v,
        oov_bins,
    )


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), t=0)


def adam_step(
    param: np.ndarray,
    grad: "np.ndarray | SparseRowGrad",
    state: AdamState,
    config: TrainConfig,
) -> None:
    """Bias-corrected ADAM update in place. Sparse row gradients update only
    the touched rows (moments for untouched rows are not decayed)."""
    if state.m.shape != param.shape:
        raise ValueError("optimizer state shape does not match parameter")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    if isinstance(grad, SparseRowGrad):
        if grad.rows.size == 0:
            return
        if grad.values.shape[1] != param.shape[1]:
            raise ValueError("gradient width does not match parameter")
        r, g = grad.rows, grad.values
    else:
        if grad.shape != param.shape:
            raise ValueError("gradient shape does not match parameter")
        r, g = slice(None), grad
    m = b1 * state.m[r] + (1 - b1) * g
    v = b2 * state.v[r] + (1 - b2) * g**2
    state.m[r] = m
    state.v[r] = v
    param[r] -= config.alpha * (m / corr1) / (np.sqrt(v / corr2) + config.epsilon)


@dataclass
class TrainHistory:
    epoch_loss: list[float] = field(default_factory=list)
    dropped_empty: int = 0
    skipped_small_batches: int = 0


def train(
    records: np.ndarray,
    model: EmbeddingModel,
    loss_spec: LossSpec,
    config: TrainConfig,
) -> TrainHistory:
    """Run the sampled-epoch training loop; mutates the model in place.

    An epoch is held as bag codes; each batch gathers its bags from the
    RecordGroups tables just before its forward pass."""
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    states = {name: AdamState.for_param(p) for name, p in params.items()}
    history = TrainHistory()
    needs_batch = model.config.normalization == model_mod.NORM_BATCH

    groups = group_records(records)
    query_nonempty = groups.query_bags.any(axis=1)
    product_nonempty = groups.product_bags.any(axis=1)
    for _epoch in range(config.epochs):
        sample = sample_epoch(groups, config, rng)
        nonempty = query_nonempty[sample.query_code] & product_nonempty[sample.product_code]
        history.dropped_empty += int((~nonempty).sum())
        labels = sample.labels[nonempty]
        weights = sample.weights[nonempty]
        q = sample.query_code[nonempty]
        p = sample.product_code[nonempty]

        total_loss = 0.0
        total_weight = 0.0
        for start in range(0, len(labels), config.batch_size):
            sl = slice(start, start + config.batch_size)
            lb, wb = labels[sl], weights[sl]
            if needs_batch and len(lb) < 2:
                history.skipped_small_batches += 1
                continue
            qb, pb = groups.query_bags[q[sl]], groups.product_bags[p[sl]]
            scores, cache = forward_batch(qb, pb, model, "train")
            losses = loss_batch(scores, lb, loss_spec)
            wsum = wb.sum()
            batch_loss = float((wb * losses).sum() / wsum)
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {_epoch}, batch offset {start}: "
                    f"loss={batch_loss}, score range "
                    f"[{scores.min()}, {scores.max()}]"
                )
            dscores = wb * loss_grad_batch(scores, lb, loss_spec) / wsum
            grads = backward_batch(cache, dscores)
            for name, grad in grads.items():
                adam_step(params[name], grad, states[name], config)
            total_loss += batch_loss * wsum
            total_weight += wsum
        history.epoch_loss.append(total_loss / total_weight if total_weight else 0.0)
    return history
