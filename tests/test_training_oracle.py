"""Preprocessing, epoch sampling, the embedding backward pass and ADAM
against their first versions.

The oracles are the straightforward paths the library replaced: a record
writer that encodes each text on its own and fills the records row by row, a sampler
that regroups the records by bag bytes every epoch and draws every pick with
its own `integers` call, scatter-adds with `np.add.at`, and an ADAM step
with one formula for sparse rows and another for dense arrays. The library
groups once per train call into flat arrays, draws an epoch's picks in
one pass over blocks of raw words (`draws.Draws.below_many`), finds the
touched rows without a sort, scatters with `np.bincount` and updates sparse and dense
parameters with one formula; it encodes each side's texts in one batch and
fills the records by column. Both must agree
to the byte, and so must the checkpoints they train.
"""

import dataclasses
import hashlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import encode_oracle
from semmatch import model as model_mod
from semmatch import synth, training
from semmatch.losses import Label3, LossSpec
from semmatch.model import (
    ModelConfig,
    SparseRowGrad,
    _merge_sparse,
    _pool_backward,
    backward_batch,
    forward_batch,
)
from semmatch.tokenizer import CHAR_TRIGRAM, UNIGRAM, TokenizerConfig, build_vocabulary, ngram_class
from semmatch.training import (
    AdamState,
    EpochSample,
    TrainConfig,
    adam_step,
    group_records,
    init_model,
    preprocess_logs,
    record_dtype,
    sample_epoch,
    train,
    write_records,
)
from single_item import serialize_model

# -- oracles: per-text encoding and per-row records, regroup every epoch, one ----
# -- draw per pick, np.add.at ----------------------------------------------------


def oracle_preprocess_logs(logs, vocab, config, out_path):
    weights = {}
    product_text = {}
    for rec in logs:
        key = (rec.query, rec.product_id, rec.label)
        weights[key] = weights.get(key, 0.0) + rec.count
        product_text[rec.product_id] = rec.product_text
    qmax, pmax = vocab.max_tokens("query", config), vocab.max_tokens("product", config)
    out = np.zeros(len(weights), dtype=record_dtype(qmax, pmax))
    stats = {"purchased": 0, "impressed": 0}
    for i, ((query, pid, label), w) in enumerate(sorted(weights.items())):
        out[i]["label"] = int(Label3.PURCHASED if label == "purchased" else Label3.IMPRESSED)
        out[i]["weight"] = w
        out[i]["query"] = encode_oracle.encode(query, "query", vocab, config)
        out[i]["product"] = encode_oracle.encode(product_text[pid], "product", vocab, config)
        stats[label] += 1
    write_records(out_path, qmax, pmax, out)
    return stats


def record_row_tables(records: np.ndarray) -> types.SimpleNamespace:
    """The bag tables the oracle's codes point into: row i holds record i's
    bags, so equal bags repeat."""
    return types.SimpleNamespace(
        records=records,
        query_bags=records["query"].astype(np.int64),
        product_bags=records["product"].astype(np.int64),
    )


def oracle_sample_epoch(
    records: np.ndarray, config: TrainConfig, rng: np.random.Generator
) -> EpochSample:
    """The epoch with each bag coded by its record row (record_row_tables)."""
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

    catalog_keys: dict[bytes, int] = {}
    for i in range(len(records)):
        catalog_keys.setdefault(records["product"][i].tobytes(), i)
    catalog_rows = np.asarray(list(catalog_keys.values()), dtype=np.int64)
    catalog_byte_keys = list(catalog_keys.keys())

    out_labels: list[int] = []
    out_weights: list[float] = []
    out_rows: list[tuple[int, int]] = []

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
    q, p = rows[:, 0], rows[:, 1]
    labels_arr = np.asarray(out_labels, dtype=np.int64)
    weights_arr = np.asarray(out_weights, dtype=np.float64)
    if config.shuffle:
        perm = rng.permutation(len(labels_arr))
        labels_arr, weights_arr, q, p = labels_arr[perm], weights_arr[perm], q[perm], p[perm]
    return EpochSample(labels=labels_arr, weights=weights_arr, query_code=q, product_code=p)


def oracle_pool_backward(ids, counts, dpooled):
    n = dpooled.shape[1]
    per_token = dpooled / np.maximum(counts, 1)[:, None]
    valid = ids != 0
    flat_ids = ids[valid]
    if flat_ids.size == 0:
        return SparseRowGrad(
            rows=np.empty(0, dtype=np.int64), values=np.empty((0, n), dtype=np.float64)
        )
    contrib = np.broadcast_to(per_token[:, None, :], ids.shape + (n,))[valid]
    rows, inverse = np.unique(flat_ids, return_inverse=True)
    values = np.zeros((rows.size, n), dtype=np.float64)
    np.add.at(values, inverse, contrib)
    return SparseRowGrad(rows=rows.astype(np.int64), values=values)


def oracle_merge_sparse(a, b):
    rows, inverse = np.unique(np.concatenate([a.rows, b.rows]), return_inverse=True)
    values = np.zeros((rows.size, a.values.shape[1]), dtype=np.float64)
    np.add.at(values, inverse, np.concatenate([a.values, b.values], axis=0))
    return SparseRowGrad(rows=rows, values=values)


def oracle_adam_step(param, grad, state, config):
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


# -- helpers ---------------------------------------------------------------------

QMAX, PMAX = 4, 5
P, I, R = int(Label3.PURCHASED), int(Label3.IMPRESSED), int(Label3.RANDOM)
SETTINGS = settings(max_examples=150, deadline=None)


def same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def same_sample(got: EpochSample, groups, want: EpochSample, records) -> None:
    """`got` codes rows of `groups`' bag tables, the oracle's `want` rows of
    `records`; the labels, weights and gathered bags agree to the byte."""
    same_array(got.labels, want.labels)
    same_array(got.weights, want.weights)
    tables = record_row_tables(records)
    same_array(groups.query_bags[got.query_code], tables.query_bags[want.query_code])
    same_array(groups.product_bags[got.product_code], tables.product_bags[want.product_code])


def same_grad(got: SparseRowGrad, want: SparseRowGrad) -> None:
    same_array(got.rows, want.rows)
    same_array(got.values, want.values)


def make_records(seed, queries, products, rows, purchase_share, max_id=5):
    """Rows over a few query and product bags picked with replacement, so
    bags repeat across rows. Ids come from a small range, so a bag can
    repeat an id; bag 0 of each side is empty."""
    rng = np.random.default_rng(seed)
    qbags = rng.integers(0, max_id + 1, size=(queries, QMAX))
    pbags = rng.integers(0, max_id + 1, size=(products, PMAX))
    qbags[0] = 0
    pbags[0] = 0
    recs = np.zeros(rows, dtype=record_dtype(QMAX, PMAX))
    recs["query"] = qbags[rng.integers(queries, size=rows)]
    recs["product"] = pbags[rng.integers(products, size=rows)]
    recs["label"] = np.where(rng.random(rows) < purchase_share, P, I)
    recs["weight"] = rng.integers(1, 8, size=rows) / 4.0
    return recs


def hand_records(rows):
    """Records from (label, query bag, product bag, weight) tuples."""
    recs = np.zeros(len(rows), dtype=record_dtype(QMAX, PMAX))
    for i, (label, q, p, w) in enumerate(rows):
        recs[i]["label"] = label
        recs[i]["query"][: len(q)] = q
        recs[i]["product"][: len(p)] = p
        recs[i]["weight"] = w
    return recs


def assert_epochs_equal(recs, cfg, seed, epochs=3):
    groups = group_records(recs)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(epochs):
        same_sample(sample_epoch(groups, cfg, got_rng), groups, oracle_sample_epoch(recs, cfg, want_rng), recs)
    # The raw-word blocks are rewound to the words the per-pick loop uses.
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- sampling --------------------------------------------------------------------


class TestSampleEpochOracle:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        queries=st.integers(1, 6),
        products=st.integers(1, 8),
        rows=st.integers(1, 30),
        purchase_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        k_imp=st.integers(0, 7),
        k_rand=st.integers(0, 8),
        shuffle=st.booleans(),
    )
    @example(seed=0, queries=1, products=4, rows=8, purchase_share=0.3, k_imp=6, k_rand=7, shuffle=True)
    @example(seed=1, queries=5, products=2, rows=25, purchase_share=0.7, k_imp=6, k_rand=7, shuffle=False)
    def test_epochs_equal_oracle(self, seed, queries, products, rows, purchase_share, k_imp, k_rand, shuffle):
        recs = make_records(seed, queries, products, rows, purchase_share)
        cfg = TrainConfig(
            batch_size=4, shuffle=shuffle, impressed_per_purchase=k_imp, random_per_purchase=k_rand
        )
        if not (recs["label"] == P).any():
            with pytest.raises(ValueError):
                group_records(recs)
            with pytest.raises(ValueError):
                oracle_sample_epoch(recs, cfg, np.random.default_rng(seed))
            return
        assert_epochs_equal(recs, cfg, seed)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_query_without_impressed_substitutes_randoms(self, shuffle):
        recs = hand_records(
            [
                (P, [1, 2], [3], 1.0),
                (P, [1, 2], [4, 4], 2.0),
                (P, [5], [3], 1.5),
                (I, [5], [6, 7], 0.5),
                (I, [2], [8], 1.0),
                (P, [2], [], 1.0),
            ]
        )
        cfg = TrainConfig(batch_size=4, shuffle=shuffle)
        assert_epochs_equal(recs, cfg, seed=7)
        sample = sample_epoch(group_records(recs), TrainConfig(batch_size=4, shuffle=False), np.random.default_rng(7))
        # Query [1, 2] has no impressed rows: its 13 negatives are all random.
        assert sample.labels[:14].tolist() == [P] + [R] * 13

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_exclusion_covering_catalog_accepts_anything(self, shuffle):
        # One query interacts with every product bag, so nothing is left to
        # draw from outside its exclusion set.
        recs = hand_records(
            [
                (P, [1], [2, 3], 1.0),
                (I, [1], [4], 1.0),
                (I, [1], [2, 3], 3.0),
                (P, [1], [5, 5, 0, 6], 2.0),
            ]
        )
        cfg = TrainConfig(batch_size=4, shuffle=shuffle)
        assert_epochs_equal(recs, cfg, seed=3)
        groups = group_records(recs)
        # The one group excludes every code of the three-bag catalog.
        assert groups.excluded.tolist() == [0, 1, 2]
        assert groups.excluded_count.tolist() == [len(groups.catalog_rows)]
        sample = sample_epoch(groups, cfg, np.random.default_rng(3))
        assert (sample.labels == R).sum() == 2 * 7

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_single_impressed_row_draws_nothing(self, shuffle):
        # `integers(1)` returns 0 without a draw, so query [1]'s impressed
        # picks take no words and only the random picks advance the stream.
        recs = hand_records(
            [
                (P, [1], [2], 1.0),
                (I, [1], [3], 2.5),
                (P, [4], [5], 1.0),
                (I, [4], [6], 1.0),
                (I, [4], [7], 1.0),
            ]
        )
        cfg = TrainConfig(batch_size=4, shuffle=shuffle)
        assert_epochs_equal(recs, cfg, seed=5)
        groups = group_records(recs)
        assert groups.impressed_count[0] == 1
        assert groups.impressed[groups.impressed_start[0]] == 1
        sample = sample_epoch(groups, TrainConfig(batch_size=4, shuffle=False), np.random.default_rng(5))
        assert sample.labels[:7].tolist() == [P] + [I] * 6
        assert (groups.product_bags[sample.product_code[1:7]] == groups.product_bags[groups.product_code[1]]).all()
        assert (sample.weights[1:7] == 2.5).all()

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_exclusion_leaving_one_bag_redraws(self, shuffle):
        # Query [1] holds four of the five product bags, so each of its
        # random picks is redrawn until it lands on bag [6].
        recs = hand_records(
            [
                (P, [1], [2], 1.0),
                (I, [1], [3], 1.0),
                (I, [1], [4], 1.0),
                (I, [1], [5], 1.0),
                (P, [7], [6], 1.0),
            ]
        )
        cfg = TrainConfig(batch_size=4, shuffle=shuffle)
        assert_epochs_equal(recs, cfg, seed=9)
        groups = group_records(recs)
        # Group 0's keys are its codes; one of the five bags is left to draw.
        assert groups.excluded[: groups.excluded_count[0]].tolist() == [0, 1, 2, 3]
        assert len(groups.catalog_rows) == 5
        sample = sample_epoch(groups, TrainConfig(batch_size=4, shuffle=False), np.random.default_rng(9))
        assert sample.labels[:14].tolist() == [P] + [I] * 6 + [R] * 7
        assert (groups.product_bags[sample.product_code[7:14]] == groups.product_bags[4]).all()

    @pytest.mark.parametrize(
        "seed, queries, products",
        [(21, 100, 12), (22, 40, 60)],
        ids=["12-bags", "60-bags"],
    )
    def test_epochs_of_thousands_of_picks(self, seed, queries, products):
        """Over 4096 picks an epoch, past one chunk and one block of words.
        A query excludes about half of 12 product bags or a quarter of 60,
        so redraws fall inside chunks and at their ends."""
        recs = make_records(seed, queries, products, rows=800, purchase_share=0.5)
        assert (recs["label"] == P).sum() * 13 > 4096
        assert_epochs_equal(recs, TrainConfig(batch_size=4), seed, epochs=2)

    def test_duplicate_product_bags_share_one_catalog_entry(self):
        recs = hand_records(
            [
                (P, [1], [2], 1.0),
                (I, [3], [2], 1.0),
                (P, [3], [4], 1.0),
                (I, [1], [4], 1.0),
                (P, [5], [2], 1.0),
                (I, [5], [6], 1.0),
            ]
        )
        groups = group_records(recs)
        assert groups.catalog_rows.tolist() == [0, 2, 5]
        assert groups.product_code.tolist() == [0, 0, 1, 1, 0, 2]
        for shuffle in (True, False):
            assert_epochs_equal(recs, TrainConfig(batch_size=4, shuffle=shuffle), seed=11)


# -- backward scatter ------------------------------------------------------------


def random_ids(seed, batch, width, vocab, padding):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, vocab + 1, size=(batch, width))
    ids[rng.random((batch, width)) < padding] = 0
    return ids, rng


class TestBackwardOracle:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
        width=st.integers(1, 6),
        vocab=st.integers(1, 12),
        padding=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        n=st.integers(1, 5),
    )
    @example(seed=0, batch=4, width=3, vocab=5, padding=1.0, n=3)  # an all-padding batch
    @example(seed=1, batch=3, width=5, vocab=1, padding=0.3, n=2)  # repeated ids within a bag
    @example(seed=0, batch=8, width=6, vocab=12, padding=0.3, n=2)  # holds the last row id, 12
    def test_pool_backward_equals_add_at(self, seed, batch, width, vocab, padding, n):
        ids, rng = random_ids(seed, batch, width, vocab, padding)
        counts = np.count_nonzero(ids, axis=1)
        dpooled = rng.normal(size=(batch, n))
        dpooled[rng.random(batch) < 0.2] = 0.0
        same_grad(_pool_backward(ids, counts, dpooled), oracle_pool_backward(ids, counts, dpooled))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab=st.integers(1, 12),
        pad_a=st.sampled_from([0.0, 0.5, 1.0]),
        pad_b=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(seed=0, vocab=12, pad_a=0.5, pad_b=0.5)  # only b holds the last row id, 12
    @example(seed=0, vocab=12, pad_a=1.0, pad_b=0.0)  # a is empty
    @example(seed=0, vocab=12, pad_a=0.0, pad_b=1.0)  # b is empty
    @example(seed=0, vocab=12, pad_a=1.0, pad_b=1.0)  # both are empty
    @example(seed=3, vocab=2, pad_a=0.0, pad_b=0.0)  # both on rows 1 and 2
    def test_merge_equals_add_at(self, seed, vocab, pad_a, pad_b):
        grads = []
        for offset, pad in ((0, pad_a), (1, pad_b)):
            ids, rng = random_ids(seed + offset, 4, 3, vocab, pad)
            dpooled = rng.normal(size=(4, 3))
            grads.append(oracle_pool_backward(ids, np.count_nonzero(ids, axis=1), dpooled))
        same_grad(_merge_sparse(*grads), oracle_merge_sparse(*grads))

    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_backward_batch_equals_oracle_path(self, monkeypatch, norm, shared):
        cfg = ModelConfig(embedding_dim=6, shared_embeddings=shared, normalization=norm)
        model = init_model(20, 3, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        q = rng.integers(0, 24, size=(16, 4))
        p = rng.integers(0, 24, size=(16, 5))
        q[:2] = 0  # empty query bags
        p[3] = [7, 7, 7, 0, 0]
        _, cache = forward_batch(q, p, model, "train")
        dscores = rng.normal(size=16)
        got = backward_batch(cache, dscores)
        monkeypatch.setattr(model_mod, "_pool_backward", oracle_pool_backward)
        monkeypatch.setattr(model_mod, "_merge_sparse", oracle_merge_sparse)
        want = backward_batch(cache, dscores)
        assert got.keys() == want.keys()
        for name, grad in got.items():
            if isinstance(grad, SparseRowGrad):
                same_grad(grad, want[name])
            else:
                same_array(grad, want[name])


# -- ADAM ------------------------------------------------------------------------


class TestAdamOracle:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 7),
        n=st.integers(1, 4),
        steps=st.lists(st.sampled_from(["sparse", "no-rows", "dense-1d", "dense-2d"]), min_size=1, max_size=12),
        alpha=st.sampled_from([0.001, 0.05]),
    )
    @example(seed=0, rows=3, n=2, steps=["no-rows", "sparse", "no-rows", "dense-2d", "sparse"], alpha=0.001)
    def test_step_sequences_equal_oracle(self, seed, rows, n, steps, alpha):
        """A matrix takes sparse (some with no rows) and dense steps, and a
        vector, like gamma and beta, dense ones; after every step the
        parameter, both moments and the step count equal the oracle's."""
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(batch_size=4, alpha=alpha)
        start = {"matrix": rng.normal(size=(rows, n)), "vector": rng.normal(size=n)}
        got = {k: (p.copy(), AdamState.for_param(p)) for k, p in start.items()}
        want = {k: (p.copy(), AdamState.for_param(p)) for k, p in start.items()}
        for kind in steps:
            size = 0 if kind == "no-rows" else int(rng.integers(1, rows + 1))
            shape = {"dense-1d": (n,), "dense-2d": (rows, n)}.get(kind, (size, n))
            values = rng.normal(size=shape)
            values[rng.random(shape) < 0.2] = 0.0
            key, grad = "vector" if kind == "dense-1d" else "matrix", values
            if kind in ("sparse", "no-rows"):
                picked = np.sort(rng.choice(rows, size=size, replace=False)).astype(np.int64)
                grad = SparseRowGrad(rows=picked, values=values)
            adam_step(got[key][0], grad, got[key][1], cfg)
            oracle_adam_step(want[key][0], grad, want[key][1], cfg)
            for (gp, gs), (wp, ws) in zip(got.values(), want.values()):
                same_array(gp, wp)
                same_array(gs.m, ws.m)
                same_array(gs.v, ws.v)
                assert gs.t == ws.t


# -- end to end ------------------------------------------------------------------


@pytest.mark.parametrize("shared, norm", [(True, "batch"), (False, "layer"), (True, "none")])
def test_trained_checkpoint_equals_oracle_path(monkeypatch, shared, norm):
    recs = make_records(5, queries=40, products=60, rows=300, purchase_share=0.4, max_id=30)
    cfg = ModelConfig(embedding_dim=8, shared_embeddings=shared, normalization=norm)
    train_cfg = TrainConfig(batch_size=16, epochs=3, seed=2)

    def trained():
        model = init_model(30, 2, cfg, np.random.default_rng(0))
        train(recs, model, LossSpec(), train_cfg)
        return serialize_model(model)

    got = trained()
    monkeypatch.setattr(training, "group_records", record_row_tables)
    monkeypatch.setattr(
        training, "sample_epoch", lambda tables, config, rng: oracle_sample_epoch(tables.records, config, rng)
    )
    monkeypatch.setattr(model_mod, "_pool_backward", oracle_pool_backward)
    monkeypatch.setattr(model_mod, "_merge_sparse", oracle_merge_sparse)
    monkeypatch.setattr(training, "adam_step", oracle_adam_step)
    assert trained() == got


@pytest.mark.parametrize("norm", ["batch", "layer"])
def test_history_counters_equal_direct_count(norm):
    """Bag 0 of each side is empty, so examples drop on either side; with
    batches of 4, two of seed 0's three epochs keep 4k + 1 examples, so batch
    norm skips their final batch of one."""
    recs = make_records(0, queries=6, products=8, rows=40, purchase_share=0.4)
    train_cfg = TrainConfig(batch_size=4, epochs=3, seed=0)
    model = init_model(5, 0, ModelConfig(embedding_dim=4, normalization=norm), np.random.default_rng(0))
    history = train(recs, model, LossSpec(), train_cfg)

    tables, rng = record_row_tables(recs), np.random.default_rng(train_cfg.seed)
    dropped = skipped = 0
    for _ in range(train_cfg.epochs):
        sample = oracle_sample_epoch(recs, train_cfg, rng)
        query_empty = ~tables.query_bags[sample.query_code].any(axis=1)
        product_empty = ~tables.product_bags[sample.product_code].any(axis=1)
        assert query_empty.any() and product_empty.any()
        empty = int((query_empty | product_empty).sum())
        dropped += empty
        if norm == "batch":
            skipped += (len(sample.labels) - empty) % train_cfg.batch_size == 1
    assert (history.dropped_empty, history.skipped_small_batches) == (dropped, skipped)
    assert dropped > 0 and skipped == (2 if norm == "batch" else 0)


# sha256 of save_model's bytes after train, pinned from the per-group
# sampler with sorted scatters: about 4.7k picks an epoch over a 40-bag
# catalog, so chunk ends and redraws are in the stream.
PINNED_CHECKPOINTS = [
    (True, "batch", "d933b4c8afe87fc2429e07a4518193fe0a894be842d3df63442fb01d44b99f1b"),
    (False, "layer", "17ee70eece03d17aa1694a626b403b4b72546c656b7aaacccbe5ecd00165fb28"),
    (True, "none", "2dcc68b502d7f828904bd2247ffa47c99b8ae53e8f417666ce823a57bc80b924"),
]


def pinned_model(shared, norm):
    """The model whose checkpoint PINNED_CHECKPOINTS pins: 30 vocabulary
    ids, 2 OOV bins and N = 8."""
    recs = make_records(8, queries=50, products=40, rows=900, purchase_share=0.4, max_id=30)
    cfg = ModelConfig(embedding_dim=8, shared_embeddings=shared, normalization=norm)
    model = init_model(30, 2, cfg, np.random.default_rng(0))
    train(recs, model, LossSpec(), TrainConfig(batch_size=64, epochs=3, seed=4))
    return model


@pytest.mark.parametrize("shared, norm, digest", PINNED_CHECKPOINTS)
def test_trained_checkpoint_matches_pinned_digest(shared, norm, digest):
    assert hashlib.sha256(serialize_model(pinned_model(shared, norm))).hexdigest() == digest


class TestPreprocessOracle:
    @pytest.mark.parametrize("bins", [0, 50])
    def test_records_file_equals_oracle(self, tmp_path, bins):
        """Queries and products repeat across rows, some rows repeat outright,
        one product's text changes between rows (the last one is encoded),
        and the short bags cut long texts."""
        corpus = synth._generate(
            synth.SynthConfig(concepts=12, products=120, queries=60, eval_queries=0, typo_rate=0.1,
                              model_number_rate=0.5, seed=3)
        )
        logs = corpus.train_logs + corpus.train_logs[:40]
        last = logs[-1]
        logs.append(dataclasses.replace(last, product_text=last.product_text + " restyled", count=2))
        classes = [UNIGRAM, ngram_class(2), CHAR_TRIGRAM]
        cfg = TokenizerConfig(ngram_orders=(2,), use_char_trigrams=True,
                              budget_per_class=dict.fromkeys(classes, 40), oov_bins=bins,
                              query_max_tokens=12, product_max_tokens=30)
        vocab = build_vocabulary([("query", r.query) for r in logs] + [("product", r.product_text) for r in logs], cfg)
        got_path, want_path = tmp_path / "got.bin", tmp_path / "want.bin"
        got = preprocess_logs(logs, vocab, cfg, str(got_path))
        want = oracle_preprocess_logs(logs, vocab, cfg, str(want_path))
        assert got == want
        assert list(got) == ["purchased", "impressed"]
        assert got_path.read_bytes() == want_path.read_bytes()
        assert len({r.query for r in logs}) < sum(got.values())
