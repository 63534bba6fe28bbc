"""Model forward/backward tests: pooling, normalization, cosine, gradients
against finite differences, and checkpoint round-trips."""

import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norm_oracle import oracle_norm_backward, oracle_normalize
from pool_oracle import oracle_pool_batch
from semmatch.model import (
    _POOL_BAGS,
    EmbeddingModel,
    ModelConfig,
    NormState,
    backward_batch,
    cosine_batch,
    embed_batch,
    forward_batch,
    _norm_backward,
    load_model,
    model_fingerprint,
    normalize_batch,
    pool_batch,
    save_model,
)
from semmatch.tokenizer import TokenBag
from semmatch.training import init_model, xavier_init
from single_item import cosine, embed_bag, forward, normalize, serialize_model


def make_model(v=20, bins=5, n=8, shared=True, norm="none", seed=0):
    cfg = ModelConfig(embedding_dim=n, shared_embeddings=shared, normalization=norm)
    return init_model(v, bins, cfg, np.random.default_rng(seed))


class TestPooling:
    def test_mean_of_nonzero_rows(self):
        model = make_model()
        ids = np.array([[1, 2, 0, 0]])
        pooled, counts = pool_batch(ids, model.query_matrix)
        expected = (model.query_matrix[1] + model.query_matrix[2]) / 2
        np.testing.assert_allclose(pooled[0], expected)
        assert counts[0] == 2

    def test_padding_position_irrelevant(self):
        model = make_model()
        a, _ = pool_batch(np.array([[1, 0, 2, 0]]), model.query_matrix)
        b, _ = pool_batch(np.array([[1, 2, 0, 0]]), model.query_matrix)
        np.testing.assert_array_equal(a, b)

    def test_empty_bag_pools_to_zero(self):
        model = make_model()
        pooled, counts = pool_batch(np.zeros((1, 4), dtype=np.int64), model.query_matrix)
        assert counts[0] == 0
        np.testing.assert_array_equal(pooled[0], 0.0)

    def test_repeated_ids_count(self):
        model = make_model()
        pooled, counts = pool_batch(np.array([[3, 3, 0]]), model.query_matrix)
        assert counts[0] == 2
        np.testing.assert_allclose(pooled[0], model.query_matrix[3])

    def test_out_of_range_rejected(self):
        model = make_model(v=5, bins=0)
        with pytest.raises(ValueError):
            pool_batch(np.array([[99]]), model.query_matrix)
        with pytest.raises(ValueError):
            pool_batch(np.array([[-1]]), model.query_matrix)

    def test_embed_bag_matches_pool(self):
        model = make_model()
        bag = TokenBag(ids=np.array([4, 7, 0]))
        vec = embed_bag(bag, "query", model)
        pooled, _ = pool_batch(bag.ids[None, :], model.query_matrix)
        np.testing.assert_array_equal(vec, pooled[0])


def draw_call(data, dims=(2, 3, 64, 65)):
    """A (B, L) call of ids and an N-column matrix for it: bags of random
    length up to the call's drawn width, some with padding mid-bag, some all
    padding (and every one when the width is 0). Row 0 is +0.0 or -0.0 and
    row 1 is -0.0, so the sign of a zero sum shows whether the sum started
    from +0.0; rows span twelve orders of magnitude, so the order of the
    adds shows in the bits."""
    bags = data.draw(st.integers(1, 300), label="bags")
    slots = data.draw(st.integers(1, 130), label="slots")
    n = data.draw(st.sampled_from(dims), label="n")
    width = data.draw(st.integers(0, slots), label="width")
    mid = data.draw(st.sampled_from([0.0, 0.3]), label="mid-bag padding share")
    high = data.draw(st.sampled_from([2, 3, 50]), label="ids below")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    matrix = rng.normal(size=(50, n)) * 10.0 ** rng.integers(-6, 7, size=(50, 1))
    matrix[0] = data.draw(st.sampled_from([0.0, -0.0]), label="padding row")
    matrix[1] = -0.0
    ids = rng.integers(1, high, size=(bags, slots))
    ids[np.arange(slots) >= rng.integers(0, width + 1, size=(bags, 1))] = 0
    ids[rng.random(ids.shape) < mid] = 0
    return ids, matrix


class TestPoolingOracle:
    """pool_batch reads a call's slots only up to its last non-padding
    column, one column at a time from _POOL_BAGS bags up; it matches the
    full gather in tests/pool_oracle.py to the byte. With one column the
    full gather sums pairwise and pool_batch in slot order, so there only
    the agreement between calls is tested."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_full_gather(self, data):
        ids, matrix = draw_call(data)
        pooled, counts = pool_batch(ids, matrix)
        expected, expected_counts = oracle_pool_batch(ids, matrix)
        assert pooled.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(counts, expected_counts)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bag_pools_alike_alone_and_in_any_call(self, data):
        ids, matrix = draw_call(data, dims=(1, 2, 3, 64, 65))
        bag = data.draw(st.integers(0, len(ids) - 1), label="bag")
        start = data.draw(st.integers(0, bag), label="start")
        stop = data.draw(st.integers(bag + 1, len(ids)), label="stop")
        extra = data.draw(st.integers(0, 3), label="extra padding columns")
        alone = pool_batch(ids[bag : bag + 1], matrix)[0][0].tobytes()
        assert pool_batch(ids, matrix)[0][bag].tobytes() == alone
        assert pool_batch(ids[start:stop], matrix)[0][bag - start].tobytes() == alone
        wider = np.pad(ids[start:stop], ((0, 0), (0, extra)))
        assert pool_batch(wider, matrix)[0][bag - start].tobytes() == alone

    @pytest.mark.parametrize("bags", [1, _POOL_BAGS - 1, _POOL_BAGS, 300])
    def test_trailing_padding_columns_not_read(self, bags):
        """With every bag full up to the call's width, a NaN row 0 is never
        read: only the skipped columns hold padding."""
        rng = np.random.default_rng(bags)
        matrix = rng.normal(size=(30, 8))
        matrix[0] = 0.0
        ids = np.zeros((bags, 12), dtype=np.int64)
        ids[:, :5] = rng.integers(1, 30, size=(bags, 5))
        expected, _ = oracle_pool_batch(ids, matrix)
        matrix[0] = np.nan
        assert pool_batch(ids, matrix)[0].tobytes() == expected.tobytes()


class TestCosine:
    def test_known_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            1 / np.sqrt(2)
        )

    def test_bounds_and_self_similarity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            c = cosine(a, b)
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        a = rng.normal(size=6)
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert cosine(3.7 * a, 0.2 * b) == pytest.approx(cosine(a, b))

    def test_zero_norm_scores_zero(self):
        z = np.zeros(4)
        assert cosine(z, np.ones(4)) == 0.0
        assert cosine(np.ones(4), z) == 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 5))
        b = rng.normal(size=(10, 5))
        a[3] = 0.0
        got = cosine_batch(a, b)
        want = [cosine(a[i], b[i]) for i in range(10)]
        np.testing.assert_allclose(got, want)


class TestNormalization:
    def test_none_is_identity(self):
        model = make_model(norm="none")
        x = np.random.default_rng(0).normal(size=(4, 8))
        np.testing.assert_array_equal(normalize(x, "query", model, "train"), x)

    def test_batch_train_standardizes(self):
        model = make_model(norm="batch")
        x = np.random.default_rng(0).normal(loc=3.0, scale=2.0, size=(64, 8))
        out = normalize(x, "query", model, "train")
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_batch_updates_running_stats(self):
        model = make_model(norm="batch")
        x = np.random.default_rng(0).normal(loc=5.0, size=(32, 8))
        before = model.norm_query.running_mean.copy()
        normalize(x, "query", model, "train")
        assert not np.array_equal(model.norm_query.running_mean, before)
        mom = model.config.bn_momentum
        np.testing.assert_allclose(
            model.norm_query.running_mean,
            mom * before + (1 - mom) * x.mean(axis=0),
        )

    def test_batch_infer_uses_running_stats(self):
        model = make_model(norm="batch")
        model.norm_query.running_mean[:] = 2.0
        model.norm_query.running_var[:] = 4.0
        x = np.full((1, 8), 4.0)
        out = normalize(x, "query", model, "infer")
        expected = (4.0 - 2.0) / np.sqrt(4.0 + model.config.bn_epsilon)
        np.testing.assert_allclose(out, expected)

    def test_batch_infer_deterministic_per_row(self):
        # Inference must not depend on batch composition.
        model = make_model(norm="batch")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 8))
        full = normalize(x, "query", model, "infer")
        one = normalize(x[2:3], "query", model, "infer")
        np.testing.assert_allclose(full[2], one[0])

    def test_batch_train_rejects_singleton(self):
        model = make_model(norm="batch")
        with pytest.raises(ValueError):
            normalize(np.ones((1, 8)), "query", model, "train")

    def test_layer_norm_per_row(self):
        model = make_model(norm="layer")
        x = np.random.default_rng(0).normal(size=(3, 8))
        out = normalize(x, "query", model, "infer")
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)

    def test_arms_keep_separate_stats(self):
        model = make_model(norm="batch")
        x = np.random.default_rng(0).normal(loc=7.0, size=(16, 8))
        normalize(x, "query", model, "train")
        np.testing.assert_array_equal(model.norm_product.running_mean, 0.0)

    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    def test_unknown_arm_rejected(self, norm):
        model = make_model(norm=norm)
        with pytest.raises(ValueError, match="'qurey'"):
            normalize_batch(np.ones((4, 8)), "qurey", model, "infer")

    @settings(max_examples=300, deadline=None)
    @given(
        b=st.integers(2, 64),
        n=st.integers(1, 32),
        scale=st.floats(1e-3, 1e3),
        norm=st.sampled_from(["none", "batch", "layer"]),
        phase=st.sampled_from(["train", "infer"]),
        arm=st.sampled_from(["query", "product"]),
        constant=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_mode_oracle(self, b, n, scale, norm, phase, arm, constant, seed):
        """Output, running statistics after the step and (dx, dgamma, dbeta)
        equal the per-mode formulas to the byte. `constant` makes one
        column of x and one row of dout constant (a zero variance)."""
        rng = np.random.default_rng(seed)
        model = make_model(n=n, shared=False, norm=norm, seed=seed % 1000)
        for state in (model.norm_query, model.norm_product):
            state.gamma[:] = rng.normal(1.0, 0.5, size=n)
            state.beta[:] = rng.normal(size=n)
            state.running_mean[:] = rng.normal(size=n) * scale
            state.running_var[:] = rng.uniform(0.1, 2.0, size=n) * scale**2
        x = rng.normal(rng.normal(), 1.0, size=(b, n)) * scale
        dout = rng.normal(size=(b, n))
        if constant:
            x[:, 0] = x[0, 0]
            dout[0] = dout[0, 0]
        state, other = (model.norm_query, model.norm_product)[:: 1 if arm == "query" else -1]
        want_state = NormState(*(a.copy() for a in vars(state).values()))
        other_bytes = [a.tobytes() for a in vars(other).values()]
        want, want_cache = oracle_normalize(
            x, want_state, norm, phase, model.config.bn_momentum, model.config.bn_epsilon
        )
        got, cache = normalize_batch(x, arm, model, phase)
        assert got.tobytes() == want.tobytes()
        assert [a.tobytes() for a in vars(state).values()] == [a.tobytes() for a in vars(want_state).values()]
        assert [a.tobytes() for a in vars(other).values()] == other_bytes
        for g, w in zip(_norm_backward(dout, cache), oracle_norm_backward(dout, want_cache)):
            assert (g is None and w is None) or g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("nan"), float("inf")])
    def test_degenerate_epsilon_rejected(self, epsilon):
        # NaN trained a checkpoint of NaN rows, inf one embedding for every bag.
        with pytest.raises(ValueError, match="bn_epsilon must be finite and positive"):
            ModelConfig(bn_epsilon=epsilon)


class TestForward:
    def test_scores_in_range(self):
        model = make_model(norm="batch")
        rng = np.random.default_rng(0)
        q = rng.integers(0, 26, size=(16, 5))
        p = rng.integers(0, 26, size=(16, 7))
        scores, _ = forward_batch(q, p, model, "train")
        assert np.all(scores >= -1.0 - 1e-12)
        assert np.all(scores <= 1.0 + 1e-12)

    def test_empty_bag_scores_zero(self):
        for norm in ("none", "batch", "layer"):
            model = make_model(norm=norm)
            q = np.array([[0, 0, 0], [1, 2, 0]])
            p = np.array([[3, 0, 0], [0, 0, 0]])
            scores, _ = forward_batch(q, p, model, "infer")
            np.testing.assert_array_equal(scores, 0.0)

    def test_single_pair_wrapper(self):
        model = make_model(norm="none")
        qb = TokenBag(ids=np.array([1, 2, 0]))
        pb = TokenBag(ids=np.array([3, 4, 5]))
        s, _ = forward(qb, pb, model)
        a = embed_bag(qb, "query", model)
        b = embed_bag(pb, "product", model)
        assert s == pytest.approx(cosine(a, b))

    def test_shared_model_symmetric_without_norm(self):
        model = make_model(shared=True, norm="none")
        q = np.array([[1, 2, 0, 0]])
        p = np.array([[3, 4, 5, 0]])
        s1, _ = forward_batch(q, p, model, "infer")
        s2, _ = forward_batch(p, q, model, "infer")
        np.testing.assert_allclose(s1, s2)

    def test_shared_requires_same_object(self):
        cfg = ModelConfig(embedding_dim=4, shared_embeddings=True, normalization="none")
        m = xavier_init(6, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            EmbeddingModel(cfg, m, m.copy(), NormState.fresh(4), NormState.fresh(4), 5, 0)


class TestOneEmbedding:
    """forward_batch embeds each arm as embed_batch does, so at inference it
    scores the cosine of embed_batch's rows to the byte, empty bags and
    all-padding calls included."""

    @settings(max_examples=150, deadline=None)
    @given(
        norm=st.sampled_from(["none", "batch", "layer"]),
        shared=st.booleans(),
        b=st.integers(1, 12),
        widths=st.tuples(st.integers(1, 6), st.integers(1, 9)),
        empty=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_infer_scores_are_cosine_of_embed_batch(self, norm, shared, b, widths, empty, seed):
        rng = np.random.default_rng(seed)
        model = make_model(v=20, bins=5, n=6, shared=shared, norm=norm, seed=seed % 1000)
        for state in (model.norm_query, model.norm_product):
            state.gamma[:] = rng.normal(1.0, 0.5, size=6)
            state.beta[:] = rng.normal(size=6)
            state.running_mean[:] = rng.normal(size=6)
            state.running_var[:] = rng.uniform(0.1, 2.0, size=6)
        q, p = (rng.integers(0, 26, size=(b, w)) for w in widths)
        for ids in (q, p):
            ids[rng.random(b) < empty] = 0
        scores, cache = forward_batch(q, p, model, "infer")
        a, c = embed_batch(q, "query", model), embed_batch(p, "product", model)
        assert scores.tobytes() == cosine_batch(a, c).tobytes()
        assert cache.query.rows.tobytes() == a.tobytes()
        assert cache.product.rows.tobytes() == c.tobytes()
        empty_pair = ~q.any(axis=1) | ~p.any(axis=1)
        assert scores[empty_pair].tobytes() == np.zeros(empty_pair.sum()).tobytes()


def fd_gradient_check(model, q, p, dscores, phase="train", h=1e-6):
    """Central finite differences over every trainable parameter entry,
    skipping the frozen padding row 0 of embedding matrices."""
    _, cache = forward_batch(q, p, model, phase)
    grads = backward_batch(cache, dscores)
    params = model.parameters()
    max_rel = 0.0
    for name, param in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if hasattr(g, "rows"):
            dense = np.zeros_like(param)
            dense[g.rows] = g.values
        else:
            dense = g
        it = np.ndindex(param.shape)
        for idx in it:
            if name.startswith("emb") and idx[0] == 0:
                continue
            orig = param[idx]
            param[idx] = orig + h
            s_plus, _ = forward_batch(q, p, model, phase)
            param[idx] = orig - h
            s_minus, _ = forward_batch(q, p, model, phase)
            param[idx] = orig
            fd = float((dscores * (s_plus - s_minus)).sum() / (2 * h))
            an = float(dense[idx])
            denom = max(abs(fd), abs(an), 1e-8)
            max_rel = max(max_rel, abs(fd - an) / denom)
    return max_rel


class TestBackward:
    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_gradients_match_finite_differences(self, norm, shared):
        rng = np.random.default_rng(42)
        model = make_model(v=8, bins=2, n=3, shared=shared, norm=norm, seed=7)
        q = rng.integers(0, 11, size=(4, 3))
        p = rng.integers(0, 11, size=(4, 4))
        q[0, 0] = 1  # keep at least one non-empty pair
        p[0, 0] = 2
        dscores = rng.normal(size=4)
        # Freeze running-stat updates out of the check by using a model copy
        # per FD probe: batch-norm train mutates running stats, which do not
        # affect train-phase outputs, so the check stays valid.
        assert fd_gradient_check(model, q, p, dscores) < 1e-6

    def test_row_zero_never_in_gradient(self):
        model = make_model(norm="batch")
        rng = np.random.default_rng(0)
        q = rng.integers(0, 26, size=(6, 5))
        p = rng.integers(0, 26, size=(6, 5))
        _, cache = forward_batch(q, p, model, "train")
        grads = backward_batch(cache, rng.normal(size=6))
        assert 0 not in grads["emb"].rows

    def test_empty_pair_contributes_no_gradient(self):
        model = make_model(norm="none")
        q = np.array([[0, 0], [1, 2]])
        p = np.array([[3, 4], [5, 6]])
        _, cache = forward_batch(q, p, model, "infer")
        grads = backward_batch(cache, np.array([1.0, 0.0]))
        # Only the empty pair got weight; nothing should flow.
        np.testing.assert_array_equal(grads["emb"].values, 0.0)

    def test_shared_merges_both_sides(self):
        model = make_model(shared=True, norm="none")
        q = np.array([[1, 0]])
        p = np.array([[2, 0]])
        _, cache = forward_batch(q, p, model, "infer")
        grads = backward_batch(cache, np.array([1.0]))
        assert set(grads["emb"].rows.tolist()) == {1, 2}


def pinned_pass_model(shared, norm):
    """A model whose normalization arrays are all drawn away from their
    fresh values, so an empty bag normalizes to a row that is not zero
    before it is written as one."""
    model = make_model(v=20, bins=5, n=8, shared=shared, norm=norm, seed=5)
    rng = np.random.default_rng(6)
    for state in (model.norm_query, model.norm_product):
        state.gamma[:] = rng.uniform(0.5, 1.5, 8)
        state.beta[:] = rng.normal(0.0, 0.3, 8)
        state.running_mean[:] = rng.normal(0.0, 0.1, 8)
        state.running_var[:] = rng.uniform(0.5, 2.0, 8)
    return model


# (query ids, product ids, dscores) of each pinned batch. In the first, pairs
# 1-3 hold an empty query bag, an empty product bag and both, the others
# none; pair 5's ids follow padding and two are OOV bins. In the second,
# every query bag is empty.
PASS_BATCHES = [
    (
        np.array([[1, 4, 0, 0], [0, 0, 0, 0], [7, 0, 0, 0], [0, 0, 0, 0], [3, 3, 9, 21], [0, 0, 2, 25]]),
        np.array([[2, 5, 8, 0, 0], [6, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                  [11, 12, 13, 14, 15], [0, 1, 0, 24, 0]]),
        np.array([0.7, -1.3, 0.4, 2.0, -0.6, 1.1]),
    ),
    (np.zeros((2, 3), dtype=np.int64), np.array([[1, 2, 0], [3, 0, 0]]), np.array([1.0, -1.0])),
]

# sha256 of each batch's forward_batch scores and of every array its
# backward_batch returns (rows, then values, of a sparse gradient), batch by
# batch and gradients in name order, pinned before forward and backward
# shared the inference embedding.
PINNED_PASSES = [
    ("none", True, "train", "e8fa9ffec0f9916af66ce5244e733198b9ed9337dd4470d6a0338411c915aaeb"),
    ("none", True, "infer", "e8fa9ffec0f9916af66ce5244e733198b9ed9337dd4470d6a0338411c915aaeb"),
    ("none", False, "train", "642e6b8a6e88f0cfab7b22438984b6a0a8a7d36f55edd14a179c827c1862c487"),
    ("none", False, "infer", "642e6b8a6e88f0cfab7b22438984b6a0a8a7d36f55edd14a179c827c1862c487"),
    ("batch", True, "train", "8e72d6b494fdfb06bb6c6f928c4028502b91c1fa1cc930fec3a63f9cc87983c4"),
    ("batch", True, "infer", "5a25ef6702f25cbe31f66090d812094ec6a31331b2109a8b0ef17b21cf91c313"),
    ("batch", False, "train", "a914de43780c3409b7f47306e846c9b0daacabda767c8b9aaa08f3c468308dce"),
    ("batch", False, "infer", "47e82ad9bf263f2677841479fed4c5f933e47fb78610399bc0d7c714d3d9b34f"),
    ("layer", True, "train", "246e9ca1d8626031bedfed0334e39da57ff612e3fb82d395942f7cdb0ff19dd5"),
    ("layer", True, "infer", "246e9ca1d8626031bedfed0334e39da57ff612e3fb82d395942f7cdb0ff19dd5"),
    ("layer", False, "train", "56203f07c1974b48de2aa75eb1656b42075898829b5a13213bea59052573bcc1"),
    ("layer", False, "infer", "56203f07c1974b48de2aa75eb1656b42075898829b5a13213bea59052573bcc1"),
]


def pass_digest(norm, shared, phase):
    model = pinned_pass_model(shared, norm)
    digest = hashlib.sha256()
    for q, p, dscores in PASS_BATCHES:
        scores, cache = forward_batch(q, p, model, phase)
        digest.update(scores.tobytes())
        grads = backward_batch(cache, dscores)
        for name in sorted(grads):
            g = grads[name]
            digest.update(name.encode())
            for array in (g.rows, g.values) if hasattr(g, "rows") else (g,):
                digest.update(array.tobytes())
    return digest.hexdigest()


class TestPinnedPasses:
    """Forward scores and backward gradients over batches holding empty
    bags, pinned by digest: the bits of the pairs around an empty one must
    not move, nor depend on the vector width numpy runs at."""

    @pytest.mark.parametrize("norm, shared, phase, digest", PINNED_PASSES)
    def test_matches_pinned_digest(self, norm, shared, phase, digest):
        assert pass_digest(norm, shared, phase) == digest


class TestCheckpoint:
    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_roundtrip_bit_exact(self, norm, shared):
        model = make_model(v=12, bins=4, n=6, shared=shared, norm=norm, seed=3)
        model.norm_query.running_mean[:] = np.random.default_rng(5).normal(size=6)
        blob = serialize_model(model)
        loaded = load_model(io.BytesIO(blob))
        assert serialize_model(loaded) == blob
        np.testing.assert_array_equal(loaded.query_matrix, model.query_matrix)
        assert loaded.config == model.config
        assert (loaded.query_matrix is loaded.product_matrix) == shared

    def test_fingerprint_tracks_parameters(self):
        model = make_model(seed=1)
        fp1 = model_fingerprint(model)
        assert len(fp1) == 32
        model.query_matrix[1, 0] += 1e-9
        assert model_fingerprint(model) != fp1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_model(io.BytesIO(b"NOTMODEL" + b"\x00" * 64))

    def test_truncated_rejected(self):
        blob = serialize_model(make_model())
        for cut in range(len(blob)):  # the header is bytes 8..52, the digest the last 32
            with pytest.raises(ValueError):
                load_model(io.BytesIO(blob[:cut]))
        huge = bytearray(blob)
        huge[12:20] = struct.pack("<Q", 2**63)  # the vocabulary-size field
        with pytest.raises(ValueError, match="truncated"):
            load_model(io.BytesIO(bytes(huge)))

    def test_trailing_byte_rejected(self):
        blob = serialize_model(make_model())
        with pytest.raises(ValueError, match="size"):
            load_model(io.BytesIO(blob + b"\x00"))

    def test_unknown_norm_code_rejected(self):
        blob = bytearray(serialize_model(make_model()))
        for flags in (3 << 1, 1 << 3):  # normalization code 3, or a bit above the code
            blob[32:36] = struct.pack("<I", flags)
            with pytest.raises(ValueError, match="normalization"):
                load_model(io.BytesIO(bytes(blob)))

    def test_non_finite_epsilon_rejected(self):
        blob = bytearray(serialize_model(make_model(norm="batch")))
        blob[44:52] = struct.pack("<d", float("nan"))  # the header's bn_epsilon
        with pytest.raises(ValueError, match="bn_epsilon must be finite and positive"):
            load_model(io.BytesIO(bytes(blob)))

    def test_header_bit_flips_rejected(self):
        blob = serialize_model(make_model())
        for bit in range(32 * 8):  # magic, version, V, B and n
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                load_model(io.BytesIO(bytes(damaged)))

    def test_version_1_rejected(self):
        blob = bytearray(serialize_model(make_model()))
        blob[:8] = b"SMMODEL1"
        with pytest.raises(ValueError, match="version-2"):
            load_model(io.BytesIO(bytes(blob)))

    @pytest.mark.parametrize("norm", ["none", "batch"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_stored_digest_is_fingerprint(self, norm, shared):
        model = make_model(shared=shared, norm=norm, seed=4)
        assert model.checkpoint_digest is None
        blob = serialize_model(model)
        loaded = load_model(io.BytesIO(blob))
        assert loaded.checkpoint_digest == blob[-32:] == model_fingerprint(model)
        assert model_fingerprint(loaded) == loaded.checkpoint_digest

    @pytest.mark.parametrize("shared,arm", [(True, "shared"), (False, "query"), (False, "product")])
    @pytest.mark.parametrize("value", [1e-300, float("-inf"), float("nan")])
    def test_padding_row_not_zero_rejected(self, shared, arm, value):
        """Pooling skips trailing padding slots, which is exact only while
        row 0 is all zeros. A -0.0 adds nothing either and loads."""
        model = make_model(shared=shared)
        arm_name = "product" if arm == "product" else "query"
        matrix = model.arm(arm_name)[0]
        matrix[0, -1] = value
        with pytest.raises(ValueError, match=rf"^checkpoint {arm} embedding row 0 \(padding\) is not all zeros$"):
            load_model(io.BytesIO(serialize_model(model)))
        matrix[0, -1] = -0.0
        assert load_model(io.BytesIO(serialize_model(model))).arm(arm_name)[0][0, -1] == 0.0

    def test_loaded_arrays_owned_and_writable(self):
        loaded = load_model(io.BytesIO(serialize_model(make_model(shared=False, norm="batch"))))
        for a in (loaded.query_matrix, loaded.product_matrix, loaded.norm_query.gamma,
                  loaded.norm_product.running_var):
            assert a.flags.owndata and a.flags.writeable

    def test_save_load_file_roundtrip(self, tmp_path):
        model = make_model(norm="batch", seed=9)
        path = tmp_path / "model.bin"
        with open(path, "wb") as f:
            save_model(model, f)
        with open(path, "rb") as f:
            loaded = load_model(f)
        assert model_fingerprint(loaded) == model_fingerprint(model)


class TestMappedCheckpoint:
    """A checkpoint file is mapped copy-on-write; a BytesIO is read."""

    @staticmethod
    def write(tmp_path, model, prefix=b""):
        path = tmp_path / "model.bin"
        path.write_bytes(prefix + serialize_model(model))
        return path

    @pytest.mark.parametrize("norm", ["none", "batch", "layer"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_file_load_equals_bytes_load(self, tmp_path, norm, shared):
        model = make_model(v=12, bins=4, n=6, shared=shared, norm=norm, seed=3)
        model.norm_product.running_var[:] = np.random.default_rng(6).uniform(0.5, 2.0, size=6)
        path = self.write(tmp_path, model)
        with open(path, "rb") as f:
            mapped = load_model(f)
            assert f.tell() == path.stat().st_size
        read = load_model(io.BytesIO(path.read_bytes()))
        assert serialize_model(mapped) == serialize_model(read) == path.read_bytes()
        assert mapped.config == read.config
        assert mapped.checkpoint_digest == read.checkpoint_digest
        for arm in ("query", "product"):
            assert mapped.arm(arm)[0].tobytes() == read.arm(arm)[0].tobytes()
            assert mapped.arm(arm)[0].flags.writeable
        assert (mapped.query_matrix is mapped.product_matrix) == shared

    @pytest.mark.parametrize("shared", [True, False])
    def test_loads_after_a_prefix(self, tmp_path, shared):
        model = make_model(shared=shared, norm="batch", seed=8)
        path = self.write(tmp_path, model, prefix=b"12345")
        with open(path, "rb") as f:
            f.seek(5)
            loaded = load_model(f)
        assert serialize_model(loaded) == serialize_model(model)
        assert model_fingerprint(loaded) == loaded.checkpoint_digest

    @pytest.mark.parametrize("shared", [True, False])
    def test_padding_row_not_zero_rejected(self, tmp_path, shared):
        model = make_model(shared=shared, seed=5)
        model.product_matrix[0, 0] = 1.0
        with open(self.write(tmp_path, model), "rb") as f, pytest.raises(ValueError, match="row 0"):
            load_model(f)

    @pytest.mark.parametrize("shared", [True, False])
    def test_writes_stay_private(self, tmp_path, shared):
        path = self.write(tmp_path, make_model(shared=shared, norm="layer", seed=2))
        before = hashlib.sha256(path.read_bytes()).digest()
        with open(path, "rb") as f:
            loaded = load_model(f)
        loaded.query_matrix[:] = 1.5
        loaded.product_matrix[1:] += 2.0
        assert hashlib.sha256(path.read_bytes()).digest() == before
        with open(path, "rb") as f:
            again = load_model(f)
        assert model_fingerprint(again) == again.checkpoint_digest != model_fingerprint(loaded)
