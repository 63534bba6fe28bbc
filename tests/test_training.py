"""Training pipeline tests: record files, epoch sampling, init, ADAM, loop."""

import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from semmatch.losses import Label3, LossSpec
from semmatch.model import ModelConfig, SparseRowGrad, model_fingerprint
from semmatch.synth import LogRecord
from semmatch.tokenizer import MAX_ID, UNIGRAM, TokenizerConfig, build_vocabulary, encode_batch
from semmatch.training import (
    AdamState,
    TrainConfig,
    adam_step,
    group_records,
    init_model,
    preprocess_logs,
    read_records,
    record_dtype,
    sample_epoch,
    train,
    write_records,
    xavier_init,
)

TC = TokenizerConfig(
    budget_per_class={UNIGRAM: 100}, query_max_tokens=4, product_max_tokens=6
)


def small_logs():
    return [
        LogRecord("red shoe", "P1", "red shoe sale", "purchased", 2),
        LogRecord("red shoe", "P1", "red shoe sale", "purchased", 1),
        LogRecord("red shoe", "P2", "blue shoe", "impressed", 1),
        LogRecord("blue hat", "P3", "blue hat warm", "purchased", 1),
        LogRecord("blue hat", "P2", "blue shoe", "impressed", 3),
    ]


def small_vocab():
    rows = []
    for r in small_logs():
        rows.append(("query", r.query))
        rows.append(("product", r.product_text))
    return build_vocabulary(rows, TC)


class TestRecordFile:
    def test_roundtrip(self, tmp_path):
        dt = record_dtype(4, 6)
        recs = np.zeros(3, dtype=dt)
        recs["label"] = [0, 1, 0]
        recs["weight"] = [2.0, 1.0, 0.5]
        recs["query"][0] = [1, 2, 0, 0]
        recs["product"][1] = [3, 4, 5, 0, 0, 0]
        path = str(tmp_path / "recs.bin")
        write_records(path, 4, 6, recs)
        qmax, pmax, loaded = read_records(path)
        assert (qmax, pmax) == (4, 6)
        assert loaded.tobytes() == recs.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTRECSX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_truncated(self, tmp_path):
        dt = record_dtype(4, 6)
        recs = np.zeros(5, dtype=dt)
        path = str(tmp_path / "recs.bin")
        write_records(path, 4, 6, recs)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-10])
        with pytest.raises(ValueError):
            read_records(path)


    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "recs.bin")
        write_records(path, 4, 6, np.zeros(2, dtype=record_dtype(4, 6)))
        data = open(path, "rb").read()
        for cut in (10, 20, 27):  # the header is bytes 8..28
            with open(path, "wb") as f:
                f.write(data[:cut])
            with pytest.raises(ValueError, match="truncated"):
                read_records(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "recs.bin"
        write_records(str(path), 4, 6, np.zeros(2, dtype=record_dtype(4, 6)))
        data = path.read_bytes()
        huge = bytearray(data)
        huge[20:28] = struct.pack("<Q", 2**63)  # the record-count field
        path.write_bytes(bytes(huge))
        with pytest.raises(ValueError, match="truncated"):
            read_records(str(path))
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="size"):
            read_records(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("label", 7, "label 7 is neither purchased (0) nor impressed (1)"),
        ("label", int(Label3.RANDOM), "label 2 is neither purchased (0) nor impressed (1)"),
        ("weight", -5.0, "weight -5.0 is not finite and positive"),
        ("weight", 0.0, "weight 0.0 is not finite and positive"),
        ("weight", math.nan, "weight nan is not finite and positive"),
        ("weight", math.inf, "weight inf is not finite and positive"),
    ])
    def test_corrupt_payload_rejected(self, tmp_path, field, value, message):
        """A label other than the two codes preprocess writes, or a weight
        that is not finite and positive: the first such record is named."""
        recs = np.zeros(4, dtype=record_dtype(4, 6))
        recs["label"] = [0, 1, 0, 1]
        recs["weight"] = [1.0, 2.0, 3.0, 4.0]
        recs[field][1] = value
        recs["label"][3] = 9
        path = str(tmp_path / "recs.bin")
        write_records(path, 4, 6, recs)
        with pytest.raises(ValueError, match=re.escape(f"record file record 1: {message}")):
            read_records(path)


class TestPreprocess:
    def test_aggregation_sums_counts(self, tmp_path):
        vocab = small_vocab()
        path = str(tmp_path / "recs.bin")
        stats = preprocess_logs(small_logs(), vocab, TC, path)
        assert stats == {"purchased": 2, "impressed": 2}
        _, _, recs = read_records(path)
        assert len(recs) == 4
        # The duplicated (red shoe, P1, purchased) rows merged to weight 3.
        weights = sorted(recs["weight"].tolist())
        assert weights == [1.0, 1.0, 3.0, 3.0]

    def test_deterministic_output(self, tmp_path):
        vocab = small_vocab()
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        preprocess_logs(small_logs(), vocab, TC, p1)
        preprocess_logs(list(reversed(small_logs())), vocab, TC, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_ids_up_to_the_limit_stored_as_encoded(self, tmp_path):
        # Two in-vocabulary tokens and MAX_ID - 2 bins: hashed ids reach
        # above 2^31, and the uint32 records hold each as encoded.
        rows = [row for r in small_logs() for row in (("query", r.query), ("product", r.product_text))]
        cfg = TokenizerConfig(budget_per_class={UNIGRAM: 2}, oov_bins=MAX_ID - 2,
                              query_max_tokens=4, product_max_tokens=6)
        vocab = build_vocabulary(rows, cfg)
        path = str(tmp_path / "recs.bin")
        preprocess_logs(small_logs(), vocab, cfg, path)
        _, _, recs = read_records(path)
        products = {r.product_id: r.product_text for r in small_logs()}
        keys = sorted({(r.query, r.product_id, r.label) for r in small_logs()})
        query_ids = encode_batch([q for q, _, _ in keys], "query", vocab, cfg)
        product_ids = encode_batch([products[pid] for _, pid, _ in keys], "product", vocab, cfg)
        assert max(query_ids.max(), product_ids.max()) > 2**31
        np.testing.assert_array_equal(recs["query"], query_ids)
        np.testing.assert_array_equal(recs["product"], product_ids)

    def test_empty_logs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            preprocess_logs([], small_vocab(), TC, str(tmp_path / "x.bin"))

    def test_product_logged_with_two_texts_rejected(self, tmp_path):
        """Keeping one text would give the other rows' queries a bag their
        product was not logged with."""
        logs = [
            LogRecord("red shoe", "P1", "red shoe leather", "purchased", 1),
            LogRecord("blue hat", "P1", "blue hat wool", "impressed", 1),
        ]
        path = tmp_path / "x.bin"
        message = "product 'P1' logged with two texts: 'red shoe leather' and 'blue hat wool'"
        with pytest.raises(ValueError, match=re.escape(message)):
            preprocess_logs(logs, small_vocab(), TC, str(path))
        assert not path.exists()


class TestSampleEpoch:
    def _records(self, tmp_path):
        vocab = small_vocab()
        path = str(tmp_path / "recs.bin")
        preprocess_logs(small_logs(), vocab, TC, path)
        return read_records(path)[2]

    def test_ratio_per_purchase(self, tmp_path):
        recs = self._records(tmp_path)
        cfg = TrainConfig(batch_size=4, impressed_per_purchase=6, random_per_purchase=7)
        sample = sample_epoch(group_records(recs), cfg, np.random.default_rng(0))
        purchases = int((sample.labels == int(Label3.PURCHASED)).sum())
        assert purchases == 2
        assert len(sample.labels) == purchases * (1 + 6 + 7)

    def test_random_weight_is_one(self, tmp_path):
        recs = self._records(tmp_path)
        cfg = TrainConfig(batch_size=4)
        sample = sample_epoch(group_records(recs), cfg, np.random.default_rng(0))
        rand = sample.labels == int(Label3.RANDOM)
        np.testing.assert_array_equal(sample.weights[rand], 1.0)
        pos = sample.labels == int(Label3.PURCHASED)
        assert set(sample.weights[pos].tolist()) == {3.0, 1.0}

    def test_randoms_exclude_interacted_products(self, tmp_path):
        recs = self._records(tmp_path)
        cfg = TrainConfig(batch_size=4, shuffle=False)
        groups = group_records(recs)
        sample = sample_epoch(groups, cfg, np.random.default_rng(0))
        # For each random example, its product bag must differ from the
        # purchased/impressed bags of the same query.
        by_query = {}
        for i in range(len(recs)):
            by_query.setdefault(recs["query"][i].tobytes(), set()).add(
                recs["product"][i].tobytes()
            )
        rand = sample.labels == int(Label3.RANDOM)
        query_bags = groups.query_bags[sample.query_code[rand]]
        product_bags = groups.product_bags[sample.product_code[rand]]
        for qids, pids in zip(query_bags, product_bags):
            interacted = by_query[qids.astype(np.uint32).tobytes()]
            assert pids.astype(np.uint32).tobytes() not in interacted

    def test_seeded_determinism(self, tmp_path):
        recs = self._records(tmp_path)
        cfg = TrainConfig(batch_size=4)
        g1, g2 = group_records(recs), group_records(recs)
        s1 = sample_epoch(g1, cfg, np.random.default_rng(5))
        s2 = sample_epoch(g2, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(s1.labels, s2.labels)
        np.testing.assert_array_equal(g1.query_bags[s1.query_code], g2.query_bags[s2.query_code])
        np.testing.assert_array_equal(g1.product_bags[s1.product_code], g2.product_bags[s2.product_code])

    @pytest.mark.parametrize(
        "name, bad, good, message",
        [
            ("alpha", [0.0, -0.001, float("nan"), float("inf")], 1e-9, "alpha must be finite and positive"),
            ("beta1", [1.0, 1.5, -0.1, float("nan")], 0.0, r"beta1 must be in \[0, 1\)"),
            ("beta2", [1.0, 1.5, -0.1, float("nan")], 0.0, r"beta2 must be in \[0, 1\)"),
            ("epsilon", [0.0, -1e-8, float("nan"), float("inf")], 1e-300, "epsilon must be finite and positive"),
        ],
    )
    def test_degenerate_optimizer_setting_rejected(self, name, bad, good, message):
        # A rate of 1, eps = 0 or a NaN alpha each trained a checkpoint of NaN rows.
        for value in bad:
            with pytest.raises(ValueError, match=message):
                TrainConfig(**{name: value})
        TrainConfig(**{name: good})

    @pytest.mark.parametrize("name", ["impressed_per_purchase", "random_per_purchase"])
    def test_negative_per_purchase_count_rejected(self, name):
        # A negative count would draw no picks but still repeat the query
        # row, leaving query and product rows of different lengths.
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            TrainConfig(**{name: -1})
        TrainConfig(**{name: 0})

    def test_no_purchases_rejected(self, tmp_path):
        dt = record_dtype(4, 6)
        recs = np.zeros(2, dtype=dt)
        recs["label"] = [1, 1]
        with pytest.raises(ValueError):
            group_records(recs)


class TestInit:
    def test_xavier_bounds_and_moments(self):
        n = 64
        m = xavier_init(2000, n, np.random.default_rng(0))
        bound = np.sqrt(3.0 / n)
        body = m[1:]
        assert np.abs(body).max() <= bound
        assert abs(body.mean()) < 0.005
        # Uniform(-b, b) variance is b^2/3 = 1/n.
        assert body.var() == pytest.approx(1.0 / n, rel=0.05)

    def test_row_zero_is_zero(self):
        m = xavier_init(10, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(m[0], 0.0)

    def test_shared_init_identical_object(self):
        cfg = ModelConfig(embedding_dim=4, shared_embeddings=True, normalization="none")
        model = init_model(5, 0, cfg, np.random.default_rng(0))
        assert model.query_matrix is model.product_matrix

    def test_decoupled_arms_differ(self):
        cfg = ModelConfig(embedding_dim=4, shared_embeddings=False, normalization="none")
        model = init_model(5, 0, cfg, np.random.default_rng(0))
        assert not np.array_equal(model.query_matrix[1:], model.product_matrix[1:])


class TestAdam:
    def test_first_dense_step_is_signed_alpha(self):
        cfg = TrainConfig(batch_size=4, alpha=0.01)
        param = np.zeros((3, 2))
        grad = np.array([[1.0, -2.0], [0.5, 0.0], [-3.0, 4.0]])
        state = AdamState.for_param(param)
        adam_step(param, grad, state, cfg)
        # After bias correction, |step| ~= alpha wherever grad != 0.
        expected = -cfg.alpha * np.sign(grad) * (np.abs(grad) > 0)
        np.testing.assert_allclose(param, expected, rtol=1e-6)

    def test_sparse_step_touches_only_rows(self):
        cfg = TrainConfig(batch_size=4, alpha=0.01)
        param = np.ones((5, 2))
        state = AdamState.for_param(param)
        grad = SparseRowGrad(rows=np.array([1, 3]), values=np.array([[1.0, 1.0], [2.0, 2.0]]))
        adam_step(param, grad, state, cfg)
        np.testing.assert_array_equal(param[[0, 2, 4]], 1.0)
        assert np.all(param[[1, 3]] < 1.0)

    def test_sparse_and_dense_agree_on_touched_rows(self):
        cfg = TrainConfig(batch_size=4, alpha=0.01)
        dense_p = np.ones((4, 3))
        sparse_p = np.ones((4, 3))
        values = np.random.default_rng(0).normal(size=(2, 3))
        dense_g = np.zeros((4, 3))
        dense_g[[1, 2]] = values
        sd, ss = AdamState.for_param(dense_p), AdamState.for_param(sparse_p)
        adam_step(dense_p, dense_g, sd, cfg)
        adam_step(sparse_p, SparseRowGrad(rows=np.array([1, 2]), values=values), ss, cfg)
        np.testing.assert_allclose(dense_p[[1, 2]], sparse_p[[1, 2]])

    def test_empty_sparse_grad_is_noop(self):
        cfg = TrainConfig(batch_size=4)
        param = np.ones((3, 2))
        state = AdamState.for_param(param)
        g = SparseRowGrad(rows=np.empty(0, dtype=np.int64), values=np.empty((0, 2)))
        adam_step(param, g, state, cfg)
        np.testing.assert_array_equal(param, 1.0)
        assert state.t == 1

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig(batch_size=4)
        param = np.ones((3, 2))
        with pytest.raises(ValueError):
            adam_step(param, np.ones((2, 2)), AdamState.for_param(param), cfg)


class TestTrainLoop:
    def _setup(self, tmp_path, norm="batch"):
        vocab = small_vocab()
        path = str(tmp_path / "recs.bin")
        preprocess_logs(small_logs(), vocab, TC, path)
        _, _, recs = read_records(path)
        cfg = ModelConfig(embedding_dim=16, shared_embeddings=True, normalization=norm)
        model = init_model(vocab.v, vocab.oov_bins, cfg, np.random.default_rng(0))
        return recs, model

    def test_loss_decreases(self, tmp_path):
        recs, model = self._setup(tmp_path, norm="none")
        spec = LossSpec(kind="hinge3", m=2)
        hist = train(recs, model, spec, TrainConfig(batch_size=8, epochs=30, seed=0))
        assert hist.epoch_loss[-1] < hist.epoch_loss[0]

    def test_overfits_tiny_dataset(self, tmp_path):
        recs, model = self._setup(tmp_path, norm="none")
        spec = LossSpec(kind="hinge3", m=2)
        hist = train(recs, model, spec, TrainConfig(batch_size=8, epochs=200, seed=0))
        assert hist.epoch_loss[-1] < 1e-3

    def test_row_zero_stays_zero(self, tmp_path):
        recs, model = self._setup(tmp_path)
        train(recs, model, LossSpec(), TrainConfig(batch_size=8, epochs=5, seed=0))
        np.testing.assert_array_equal(model.query_matrix[0], 0.0)

    def test_bitwise_determinism(self, tmp_path):
        fps = []
        for _ in range(2):
            recs, model = self._setup(tmp_path)
            train(recs, model, LossSpec(), TrainConfig(batch_size=8, epochs=5, seed=3))
            fps.append(model_fingerprint(model))
        assert fps[0] == fps[1]

    def test_epoch_memory_does_not_scale_with_bag_width(self):
        """Four copies of a record set make an epoch of 4 E examples; the
        peak of train may grow by far less than the 3 E examples' bags,
        (40 + 80) ids of 8 bytes each, held once."""
        qmax, pmax = 40, 80
        rng = np.random.default_rng(0)
        queries = rng.integers(1, 30, size=(12, qmax))
        products = rng.integers(1, 30, size=(40, pmax))
        recs = np.zeros(150, dtype=record_dtype(qmax, pmax))
        recs["query"] = queries[rng.integers(len(queries), size=len(recs))]
        recs["product"] = products[rng.integers(len(products), size=len(recs))]
        recs["label"] = np.where(rng.random(len(recs)) < 0.4, Label3.PURCHASED, Label3.IMPRESSED)
        recs["weight"] = 1.0
        train_cfg = TrainConfig(batch_size=64, epochs=2, seed=0)

        def peak(records):
            model = init_model(30, 0, ModelConfig(embedding_dim=4), np.random.default_rng(0))
            tracemalloc.start()
            try:
                train(records, model, LossSpec(), train_cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        examples = len(sample_epoch(group_records(recs), train_cfg, np.random.default_rng(0)).labels)
        one_epoch_of_bags = 3 * examples * (qmax + pmax) * 8
        growth = peak(np.concatenate([recs] * 4)) - peak(recs)
        assert growth < one_epoch_of_bags / 4, (growth, one_epoch_of_bags)

    def test_zero_epochs_leaves_model_unchanged(self, tmp_path):
        recs, model = self._setup(tmp_path)
        fp = model_fingerprint(model)
        hist = train(recs, model, LossSpec(), TrainConfig(batch_size=8, epochs=0, seed=0))
        assert hist.epoch_loss == []
        assert model_fingerprint(model) == fp
