"""Sharded-cosine decomposition tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharding_oracle
from semmatch import model as model_mod
from semmatch import sharding
from semmatch.model import ModelConfig, forward_batch, pool_batch
from semmatch.sharding import CommLedger, ShardPlan, shard_partials, simulate
from semmatch.training import init_model
from sharding_oracle import aggregate, split_model
from single_item import cosine, normalize


def make_model(n, norm="none", v=50, bins=10, seed=0):
    cfg = ModelConfig(embedding_dim=n, shared_embeddings=True, normalization=norm)
    return init_model(v, bins, cfg, np.random.default_rng(seed))


class TestShardPlan:
    def test_owned_slices_partition_dimension(self):
        plan = ShardPlan(n=4, k=16)
        assert plan.r == 4
        covered = []
        for s in range(4):
            sl = plan.owned(s)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(16))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(n=3, k=16)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(n=0, k=4)


class TestAggregate:
    def test_matches_direct_cosine(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=12), rng.normal(size=12)
        plan = ShardPlan(n=4, k=12)
        partials = [
            sharding_oracle.shard_partials(a[plan.owned(s)], b[plan.owned(s)]) for s in range(4)
        ]
        assert aggregate(partials) == pytest.approx(cosine(a, b), abs=1e-15)

    def test_zero_vector_scores_zero(self):
        partials = [sharding_oracle.shard_partials(np.zeros(3), np.ones(3))]
        assert aggregate(partials) == 0.0

    def test_empty_partials_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mismatched_slices_rejected(self):
        with pytest.raises(ValueError):
            sharding_oracle.shard_partials(np.ones(3), np.ones(4))


class TestSplitModel:
    def test_columns_partition(self):
        model = make_model(8, norm="batch")
        shards = split_model(model, 4)
        rebuilt = np.concatenate([s.query_cols for s in shards], axis=1)
        np.testing.assert_array_equal(rebuilt, model.query_matrix)
        rebuilt_mean = np.concatenate([s.norm_query.running_mean for s in shards])
        np.testing.assert_array_equal(rebuilt_mean, model.norm_query.running_mean)

    def test_layer_norm_rejected(self):
        model = make_model(8, norm="layer")
        with pytest.raises(ValueError):
            split_model(model, 2)

    def test_shards_are_copies(self):
        model = make_model(8)
        shards = split_model(model, 2)
        shards[0].query_cols[1, 0] += 1.0
        assert model.query_matrix[1, 0] != shards[0].query_cols[1, 0]


class TestSimulate:
    @pytest.mark.parametrize("norm", ["none", "batch"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_direct_forward(self, norm, n):
        model = make_model(16, norm=norm)
        model.norm_query.running_mean[:] = np.random.default_rng(1).normal(size=16)
        model.norm_query.running_var[:] = 1.0 + np.random.default_rng(2).random(16)
        rng = np.random.default_rng(3)
        q = rng.integers(0, 61, size=(40, 6))
        p = rng.integers(0, 61, size=(40, 9))
        direct, _ = forward_batch(q, p, model, "infer")
        sharded, _ = simulate(ShardPlan(n=n, k=16), q, p, model)
        np.testing.assert_allclose(sharded, direct, atol=1e-12, rtol=0)

    def test_ledger_counts(self):
        model = make_model(16)
        rng = np.random.default_rng(0)
        q = rng.integers(1, 61, size=(25, 4))
        p = rng.integers(1, 61, size=(25, 4))
        _, ledger = simulate(ShardPlan(n=4, k=16), q, p, model)
        assert ledger.pairs == 25
        assert ledger.input_broadcasts == 25 * 4
        assert ledger.scalars_returned == 25 * 3 * 4
        assert ledger.scalars_per_pair() == 12.0

    def test_naive_ledger_counts(self):
        """Shipping full embedding slices (the oracle's naive mode) costs 2k
        scalars per pair against the decomposed 3n, for the same scores."""
        model = make_model(16)
        rng = np.random.default_rng(0)
        q = rng.integers(1, 61, size=(10, 4))
        p = rng.integers(1, 61, size=(10, 4))
        plan = ShardPlan(n=4, k=16)
        scores, ledger = sharding_oracle.simulate(plan, q, p, model, naive=True)
        assert ledger.scalars_returned == 10 * 2 * 16
        direct, _ = forward_batch(q, p, model, "infer")
        np.testing.assert_allclose(scores, direct, atol=1e-12, rtol=0)
        decomposed, _ = simulate(plan, q, p, model)
        np.testing.assert_allclose(decomposed, scores, atol=1e-12, rtol=0)

    def test_empty_bags_score_zero(self):
        model = make_model(8, norm="batch")
        q = np.array([[0, 0], [1, 2]])
        p = np.array([[3, 4], [0, 0]])
        scores, _ = simulate(ShardPlan(n=2, k=8), q, p, model)
        np.testing.assert_array_equal(scores, 0.0)

    def test_dimension_mismatch_rejected(self):
        model = make_model(8)
        with pytest.raises(ValueError):
            simulate(ShardPlan(n=2, k=16), np.ones((1, 2), dtype=int),
                     np.ones((1, 2), dtype=int), model)

    def test_empty_ledger_rate(self):
        assert CommLedger().scalars_per_pair() == 0.0

    def test_mismatched_pair_counts_rejected(self):
        model = make_model(8)
        three = np.ones((3, 2), dtype=int)
        five = np.ones((5, 2), dtype=int)
        with pytest.raises(ValueError, match="3 query bags but 5 product bags"):
            simulate(ShardPlan(n=2, k=8), three, five, model)
        with pytest.raises(ValueError, match="5 query bags but 3 product bags"):
            simulate(ShardPlan(n=2, k=8), five, three, model)

    def test_layer_norm_rejected(self):
        model = make_model(8, norm="layer")
        with pytest.raises(ValueError):
            simulate(ShardPlan(n=2, k=8), np.ones((1, 2), dtype=int),
                     np.ones((1, 2), dtype=int), model)


class TestBatchPartials:
    def test_rows_are_shard_replies(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        got = shard_partials(a, b)
        assert got.shape == (5, 3)
        for i in range(5):
            want = sharding_oracle.shard_partials(a[i], b[i])
            np.testing.assert_allclose(
                got[i], [want.partial_dot, want.partial_sq_a, want.partial_sq_b],
                rtol=1e-15, atol=1e-15)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            shard_partials(np.ones((2, 3)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            shard_partials(np.ones(3), np.ones(3))

    def test_shards_reply_in_order_from_their_own_columns(self, monkeypatch):
        """Shard s sees columns plan.owned(s) of the normalized embeddings,
        and the scores are its replies summed in shard order, to the bit."""
        model = make_model(16, norm="batch")
        model.norm_query.running_mean[:] = np.random.default_rng(1).normal(size=16)
        rng = np.random.default_rng(5)
        q = rng.integers(1, 61, size=(7, 3))
        p = rng.integers(1, 61, size=(7, 5))
        seen = []

        def spy(a, b):
            seen.append((a.copy(), b.copy()))
            return shard_partials(a, b)

        monkeypatch.setattr(sharding, "shard_partials", spy)
        plan = ShardPlan(n=4, k=16)
        scores, _ = simulate(plan, q, p, model)
        a = normalize(pool_batch(q, model.query_matrix)[0], "query", model, "infer")
        b = normalize(pool_batch(p, model.product_matrix)[0], "product", model, "infer")
        blocks = [plan.owned(s) for s in range(4)]
        assert len(seen) == len(blocks)
        for (got_a, got_b), dims in zip(seen, blocks):
            assert got_a.tobytes() == a[:, dims].tobytes()
            assert got_b.tobytes() == b[:, dims].tobytes()
        totals = shard_partials(a[:, blocks[0]], b[:, blocks[0]])
        for dims in blocks[1:]:
            totals += shard_partials(a[:, dims], b[:, dims])
        want = totals[:, 0] / (np.sqrt(totals[:, 1]) * np.sqrt(totals[:, 2]))
        assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pairs", [0, 1, 7, 8, 9, 41, 300])
    def test_each_arm_pools_in_one_call(self, monkeypatch, pairs):
        model = make_model(16)
        rng = np.random.default_rng(6)
        q = rng.integers(1, 61, size=(pairs, 3))
        p = rng.integers(1, 61, size=(pairs, 5))
        calls = []

        def spy(ids, matrix):
            calls.append(len(ids))
            return pool_batch(ids, matrix)

        monkeypatch.setattr(model_mod, "pool_batch", spy)
        simulate(ShardPlan(n=4, k=16), q, p, model)
        assert calls == [pairs, pairs]


@st.composite
def sharded_cases(draw):
    """A model, a plan and a batch of bag pairs, with empty bags, zero
    embedding rows and zero-pair batches among the draws."""
    n = draw(st.sampled_from([1, 2, 4, 8]))
    k = n * draw(st.integers(1, 4))
    norm = draw(st.sampled_from(["none", "batch"]))
    shared = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    pairs = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(embedding_dim=k, shared_embeddings=shared, normalization=norm)
    model = init_model(20, 4, cfg, rng)
    rows = model.query_matrix.shape[0]
    for matrix in [model.query_matrix] + ([] if shared else [model.product_matrix]):
        zero_rows = draw(st.lists(st.integers(1, rows - 1), max_size=rows // 2))
        matrix[zero_rows] = 0.0
    for state in (model.norm_query, model.norm_product):
        state.running_mean[:] = rng.normal(size=k)
        state.running_var[:] = 0.5 + rng.random(k)
        state.gamma[:] = 1.0 + rng.normal(size=k) * 0.3
        state.beta[:] = rng.normal(size=k) * 0.1
        if draw(st.booleans()):  # a normalized arm of all zeros
            state.gamma[:] = 0.0
            state.beta[:] = 0.0
    q = rng.integers(0, rows, size=(pairs, draw(st.integers(1, 10))))
    p = rng.integers(0, rows, size=(pairs, draw(st.integers(1, 10))))
    q[draw(st.lists(st.integers(0, max(pairs - 1, 0)), max_size=pairs))] = 0
    p[draw(st.lists(st.integers(0, max(pairs - 1, 0)), max_size=pairs))] = 0
    return ShardPlan(n=n, k=k), q, p, model


class TestAgainstOracle:
    @given(sharded_cases())
    @settings(max_examples=300, deadline=None)
    def test_batch_path_matches_per_pair_oracle(self, case):
        plan, q, p, model = case
        scores, ledger = simulate(plan, q, p, model)
        want, want_ledger = sharding_oracle.simulate(plan, q, p, model)
        assert scores.shape == want.shape == (len(q),)
        np.testing.assert_allclose(scores, want, atol=1e-12, rtol=0)
        assert ledger == want_ledger

    def test_zero_pair_batch(self):
        model = make_model(8, norm="batch")
        empty = np.zeros((0, 3), dtype=np.int64)
        scores, ledger = simulate(ShardPlan(n=4, k=8), empty, empty, model)
        assert scores.shape == (0,)
        assert ledger == CommLedger()


class TestPoolingPerColumnBlock:
    """simulate pools each arm's full rows in one call and hands each shard
    its columns; that is exact, because pooling the column block alone gives
    the same bytes: pool_batch sums every column in slot order, a one-column
    block (k = n) too. Pooling a block of rows alone, as index._embed_texts
    does, gives their bytes of the whole call as well."""

    @given(st.sampled_from([3, 8, 12, 40, 80]), st.sampled_from([8, 64, 256]),
           st.sampled_from([1, 2, 4, 8]), st.integers(1, 24), st.integers(1, 24),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_column_block_and_row_block_pool_bytes_equal(self, length, k, n, bags, block, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(60, k))
        matrix[0] = 0.0
        ids = rng.integers(0, 60, size=(bags, length))
        ids[rng.random(size=ids.shape) < 0.3] = 0
        full, _ = pool_batch(ids, matrix)
        plan = ShardPlan(n=n, k=k)
        for s in range(n):
            dims = plan.owned(s)
            alone, _ = pool_batch(ids, np.ascontiguousarray(matrix[:, dims]))
            assert full[:, dims].tobytes() == alone.tobytes()
        blocked = np.concatenate(
            [pool_batch(ids[i : i + block], matrix)[0] for i in range(0, bags, block)])
        assert blocked.tobytes() == full.tobytes()
