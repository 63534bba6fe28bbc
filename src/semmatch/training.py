"""Training pipeline: weighted token records, 1:6:7 sampling, Xavier init,
lazy sparse ADAM, and the epoch loop."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable

import numpy as np

from . import model as model_mod
from .losses import Label3, LossSpec, loss_batch, loss_grad_batch
from .model import EmbeddingModel, ModelConfig, NormState, SparseRowGrad, forward_batch, backward_batch
from .synth import LogRecord
from .tokenizer import TokenizerConfig, Vocabulary, encode

_REC_MAGIC = b"SMRECS01"
_REC_VERSION = 1
_HEADER_FMT = "<IIIQ"


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
    with open(path, "wb") as f:
        f.write(_REC_MAGIC)
        f.write(struct.pack(_HEADER_FMT, _REC_VERSION, query_max, product_max, len(records)))
        f.write(records.tobytes())


def read_records(path: str) -> tuple[int, int, np.ndarray]:
    """Returns (query_max, product_max, structured record array). A file
    shorter or longer than its header implies raises ValueError."""
    with open(path, "rb") as f:
        if f.read(8) != _REC_MAGIC:
            raise ValueError("not a record file (bad magic)")
        header = f.read(struct.calcsize(_HEADER_FMT))
        if len(header) != struct.calcsize(_HEADER_FMT):
            raise ValueError("truncated record file")
        version, qmax, pmax, count = struct.unpack(_HEADER_FMT, header)
        if version != _REC_VERSION:
            raise ValueError(f"unsupported record-file version {version}")
        dt = record_dtype(qmax, pmax)
        present = os.fstat(f.fileno()).st_size - f.tell()
        if present < count * dt.itemsize:
            raise ValueError("truncated record file")
        if present > count * dt.itemsize:
            raise ValueError("record file size does not match its header")
        data = np.fromfile(f, dtype=dt, count=count)
    return qmax, pmax, data


_LABEL_CODE = {"purchased": int(Label3.PURCHASED), "impressed": int(Label3.IMPRESSED)}


def preprocess_logs(
    logs: Iterable[LogRecord],
    vocab: Vocabulary,
    config: TokenizerConfig,
    out_path: str,
) -> dict[str, int]:
    """Aggregate identical (query, product, label) triples, encode once, and
    write the fixed-width binary record file. Returns per-label counters."""
    weights: dict[tuple[str, str, str], float] = {}
    product_text: dict[str, str] = {}
    for rec in logs:
        key = (rec.query, rec.product_id, rec.label)
        weights[key] = weights.get(key, 0.0) + rec.count
        product_text[rec.product_id] = rec.product_text
    if not weights:
        raise ValueError("no usable log rows to preprocess")

    qmax, pmax = vocab.max_tokens("query", config), vocab.max_tokens("product", config)

    query_bags: dict[str, np.ndarray] = {}
    product_bags: dict[str, np.ndarray] = {}
    dt = record_dtype(qmax, pmax)
    out = np.zeros(len(weights), dtype=dt)
    stats = {"purchased": 0, "impressed": 0}
    for i, ((query, pid, label), w) in enumerate(sorted(weights.items())):
        if query not in query_bags:
            query_bags[query] = encode(query, "query", vocab, config).ids
        if pid not in product_bags:
            product_bags[pid] = encode(product_text[pid], "product", vocab, config).ids
        out[i]["label"] = _LABEL_CODE[label]
        out[i]["weight"] = w
        out[i]["query"] = query_bags[query]
        out[i]["product"] = product_bags[pid]
        stats[label] += 1
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


@dataclass
class EpochSample:
    labels: np.ndarray  # (E,) Label3 codes
    weights: np.ndarray  # (E,) float64
    query_ids: np.ndarray  # (E, Lq) int64
    product_ids: np.ndarray  # (E, Lp) int64


def sample_epoch(
    records: np.ndarray, config: TrainConfig, rng: np.random.Generator
) -> EpochSample:
    """One epoch: per purchased record, 1 purchase + 6 impressed (with
    replacement; randoms substituted when the query has none) + 7 random
    products sampled outside the query's purchased/impressed sets."""
    labels = records["label"]
    purchased_idx = np.flatnonzero(labels == int(Label3.PURCHASED))
    if purchased_idx.size == 0:
        raise ValueError("no purchased records to sample an epoch from")

    by_query: dict[bytes, dict[str, list[int]]] = {}
    order: list[bytes] = []
    for i in range(len(records)):
        key = records["query"][i].tobytes()
        slot = by_query.get(key)
        if slot is None:
            slot = {"purchased": [], "impressed": []}
            by_query[key] = slot
            order.append(key)
        if labels[i] == int(Label3.PURCHASED):
            slot["purchased"].append(i)
        else:
            slot["impressed"].append(i)

    # Catalog of distinct product bags for random negatives.
    catalog_keys: dict[bytes, int] = {}
    for i in range(len(records)):
        catalog_keys.setdefault(records["product"][i].tobytes(), i)
    catalog_rows = np.asarray(list(catalog_keys.values()), dtype=np.int64)
    catalog_byte_keys = list(catalog_keys.keys())

    out_labels: list[int] = []
    out_weights: list[float] = []
    out_rows: list[tuple[int, int]] = []  # (record row for query side, record row for product side)

    def _sample_randoms(exclude: set[bytes], count: int) -> list[int]:
        picked: list[int] = []
        while len(picked) < count:
            j = int(rng.integers(len(catalog_rows)))
            if catalog_byte_keys[j] in exclude and len(exclude) < len(catalog_rows):
                continue
            picked.append(int(catalog_rows[j]))
        return picked

    for key in order:
        slot = by_query[key]
        if not slot["purchased"]:
            continue
        exclude = {
            records["product"][i].tobytes()
            for i in slot["purchased"] + slot["impressed"]
        }
        for pi in slot["purchased"]:
            out_labels.append(int(Label3.PURCHASED))
            out_weights.append(float(records["weight"][pi]))
            out_rows.append((pi, pi))
            if slot["impressed"]:
                for _ in range(config.impressed_per_purchase):
                    ii = slot["impressed"][int(rng.integers(len(slot["impressed"])))]
                    out_labels.append(int(Label3.IMPRESSED))
                    out_weights.append(float(records["weight"][ii]))
                    out_rows.append((pi, ii))
            else:
                for ri in _sample_randoms(exclude, config.impressed_per_purchase):
                    out_labels.append(int(Label3.RANDOM))
                    out_weights.append(1.0)
                    out_rows.append((pi, ri))
            for ri in _sample_randoms(exclude, config.random_per_purchase):
                out_labels.append(int(Label3.RANDOM))
                out_weights.append(1.0)
                out_rows.append((pi, ri))

    rows = np.asarray(out_rows, dtype=np.int64)
    q = records["query"][rows[:, 0]].astype(np.int64)
    p = records["product"][rows[:, 1]].astype(np.int64)
    labels_arr = np.asarray(out_labels, dtype=np.int64)
    weights_arr = np.asarray(out_weights, dtype=np.float64)
    if config.shuffle:
        perm = rng.permutation(len(labels_arr))
        labels_arr, weights_arr, q, p = labels_arr[perm], weights_arr[perm], q[perm], p[perm]
    return EpochSample(labels=labels_arr, weights=weights_arr, query_ids=q, product_ids=p)


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
        r = grad.rows
        state.m[r] = b1 * state.m[r] + (1 - b1) * grad.values
        state.v[r] = b2 * state.v[r] + (1 - b2) * grad.values**2
        mhat = state.m[r] / corr1
        vhat = state.v[r] / corr2
        param[r] -= config.alpha * mhat / (np.sqrt(vhat) + config.epsilon)
    else:
        if grad.shape != param.shape:
            raise ValueError("gradient shape does not match parameter")
        state.m[:] = b1 * state.m + (1 - b1) * grad
        state.v[:] = b2 * state.v + (1 - b2) * grad**2
        mhat = state.m / corr1
        vhat = state.v / corr2
        param -= config.alpha * mhat / (np.sqrt(vhat) + config.epsilon)


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
    """Run the sampled-epoch training loop; mutates the model in place."""
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    states = {name: AdamState.for_param(p) for name, p in params.items()}
    history = TrainHistory()
    needs_batch = model.config.normalization == model_mod.NORM_BATCH

    for _epoch in range(config.epochs):
        sample = sample_epoch(records, config, rng)
        nonempty = (np.count_nonzero(sample.query_ids, axis=1) > 0) & (
            np.count_nonzero(sample.product_ids, axis=1) > 0
        )
        history.dropped_empty += int((~nonempty).sum())
        labels = sample.labels[nonempty]
        weights = sample.weights[nonempty]
        q = sample.query_ids[nonempty]
        p = sample.product_ids[nonempty]

        total_loss = 0.0
        total_weight = 0.0
        for start in range(0, len(labels), config.batch_size):
            sl = slice(start, start + config.batch_size)
            qb, pb, lb, wb = q[sl], p[sl], labels[sl], weights[sl]
            if needs_batch and len(lb) < 2:
                history.skipped_small_batches += 1
                continue
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
