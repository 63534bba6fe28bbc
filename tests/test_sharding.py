"""Sharded-cosine decomposition tests."""

import numpy as np
import pytest

from semmatch.model import ModelConfig, forward_batch
from semmatch.sharding import (
    CommLedger,
    ShardPlan,
    aggregate,
    shard_partials,
    simulate,
    split_model,
)
from semmatch.training import init_model
from single_item import cosine


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
            shard_partials(a[plan.owned(s)], b[plan.owned(s)]) for s in range(4)
        ]
        assert aggregate(partials) == pytest.approx(cosine(a, b), abs=1e-15)

    def test_zero_vector_scores_zero(self):
        partials = [shard_partials(np.zeros(3), np.ones(3))]
        assert aggregate(partials) == 0.0

    def test_empty_partials_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mismatched_slices_rejected(self):
        with pytest.raises(ValueError):
            shard_partials(np.ones(3), np.ones(4))


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
        model = make_model(16)
        rng = np.random.default_rng(0)
        q = rng.integers(1, 61, size=(10, 4))
        p = rng.integers(1, 61, size=(10, 4))
        scores, ledger = simulate(ShardPlan(n=4, k=16), q, p, model, naive=True)
        assert ledger.scalars_returned == 10 * 2 * 16
        direct, _ = forward_batch(q, p, model, "infer")
        np.testing.assert_allclose(scores, direct, atol=1e-12, rtol=0)

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
