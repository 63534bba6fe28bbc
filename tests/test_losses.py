"""Loss value and gradient tests against closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loss_oracle import hinge2, hinge3, loss_grad, loss_value, pointwise
from semmatch.losses import Label3, LossSpec, loss_batch, loss_grad_batch

scores = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
labels = st.sampled_from([Label3.PURCHASED, Label3.IMPRESSED, Label3.RANDOM])
# The hinge kinks at the default thresholds and the ends of the BCE clamp.
kink_scores = st.one_of(st.sampled_from([0.9, 0.55, 0.2, 1.0, -1.0]), scores)


class TestHinge3:
    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_inside_margins(self, m):
        spec = LossSpec(kind="hinge3", m=m)
        assert hinge3(0.95, Label3.PURCHASED, spec) == 0.0
        assert hinge3(0.9, Label3.PURCHASED, spec) == 0.0
        assert hinge3(0.5, Label3.IMPRESSED, spec) == 0.0
        assert hinge3(0.1, Label3.RANDOM, spec) == 0.0

    def test_known_values_m2(self):
        spec = LossSpec(kind="hinge3", m=2)
        assert hinge3(0.7, Label3.PURCHASED, spec) == pytest.approx(0.04)
        assert hinge3(0.75, Label3.IMPRESSED, spec) == pytest.approx(0.04)
        assert hinge3(0.4, Label3.RANDOM, spec) == pytest.approx(0.04)

    def test_known_values_m1(self):
        spec = LossSpec(kind="hinge3", m=1)
        assert hinge3(0.6, Label3.PURCHASED, spec) == pytest.approx(0.3)
        assert hinge3(0.8, Label3.IMPRESSED, spec) == pytest.approx(0.25)
        assert hinge3(0.5, Label3.RANDOM, spec) == pytest.approx(0.3)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            LossSpec(kind="hinge3", eps_minus=0.6, eps_zero=0.55, eps_plus=0.9)
        with pytest.raises(ValueError):
            LossSpec(kind="hinge3", eps_plus=1.5)

    @given(scores, labels, st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, s, label, m):
        spec = LossSpec(kind="hinge3", m=m)
        assert hinge3(s, label, spec) >= 0.0


class TestHinge2:
    def test_impressed_treated_as_negative(self):
        spec = LossSpec(kind="hinge2", m=2)
        assert loss_value(0.5, Label3.IMPRESSED, spec) == pytest.approx(
            hinge2(0.5, 0, spec)
        )

    def test_known_values(self):
        spec = LossSpec(kind="hinge2", m=2)
        assert hinge2(0.8, 1, spec) == pytest.approx(0.01)
        assert hinge2(0.3, 0, spec) == pytest.approx(0.01)
        assert hinge2(1.0, 1, spec) == 0.0
        assert hinge2(0.2, 0, spec) == 0.0


class TestPointwise:
    def test_mse(self):
        spec = LossSpec(kind="mse")
        assert pointwise(0.8, 1, spec) == pytest.approx(0.04)
        assert pointwise(-0.5, 0, spec) == pytest.approx(0.25)

    def test_mae(self):
        spec = LossSpec(kind="mae")
        assert pointwise(0.8, 1, spec) == pytest.approx(0.2)

    def test_bce_affine_link(self):
        spec = LossSpec(kind="bce")
        # score 0 maps to p = 0.5 -> loss = ln 2 for either target.
        assert pointwise(0.0, 1, spec) == pytest.approx(np.log(2.0))
        assert pointwise(0.0, 0, spec) == pytest.approx(np.log(2.0))

    def test_bce_clamped_at_boundaries(self):
        spec = LossSpec(kind="bce")
        assert np.isfinite(pointwise(-1.0, 1, spec))
        assert np.isfinite(pointwise(1.0, 0, spec))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LossSpec(kind="huber")
        with pytest.raises(ValueError):
            LossSpec(kind="hinge3", m=3)


class TestBatchConsistency:
    @given(
        st.lists(st.tuples(scores, labels), min_size=1, max_size=20),
        st.sampled_from(["mse", "mae", "bce", "hinge2", "hinge3"]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_scalar(self, pairs, kind, m):
        spec = LossSpec(kind=kind, m=m)
        s = np.array([p[0] for p in pairs])
        l = np.array([int(p[1]) for p in pairs])
        batch = loss_batch(s, l, spec)
        scalar = [loss_value(si, Label3(li), spec) for si, li in zip(s, l)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)

    @given(
        st.lists(st.tuples(kink_scores, labels), min_size=1, max_size=20),
        st.sampled_from(["mse", "mae", "bce", "hinge2", "hinge3"]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_grad_batch_matches_scalar(self, pairs, kind, m):
        spec = LossSpec(kind=kind, m=m)
        s = np.array([p[0] for p in pairs])
        l = np.array([int(p[1]) for p in pairs])
        batch = loss_grad_batch(s, l, spec)
        scalar = [loss_grad(si, Label3(li), spec) for si, li in zip(s, l)]
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)


class TestGradientsFiniteDifference:
    KINKS = {0.9, 0.55, 0.2, 0.0, 1.0, -1.0}

    @given(scores, labels,
           st.sampled_from(["mse", "bce", "hinge2", "hinge3"]),
           st.sampled_from([2]))
    @settings(max_examples=300, deadline=None)
    def test_smooth_losses_match_fd(self, s, label, kind, m):
        # Keep clear of kinks and clamp boundaries.
        if any(abs(s - k) < 1e-3 for k in self.KINKS) or abs(s) > 0.995:
            return
        spec = LossSpec(kind=kind, m=m)
        h = 1e-6
        fd = (loss_value(s + h, label, spec) - loss_value(s - h, label, spec)) / (2 * h)
        g = loss_grad(s, label, spec)
        assert g == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_subgradient_zero_at_kinks(self):
        spec = LossSpec(kind="hinge3", m=1)
        assert loss_grad(0.9, Label3.PURCHASED, spec) == 0.0
        assert loss_grad(0.55, Label3.IMPRESSED, spec) == 0.0
        assert loss_grad(0.2, Label3.RANDOM, spec) == 0.0

    @pytest.mark.parametrize("kind", ["hinge2", "hinge3"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_batch_subgradient_zero_at_kinks(self, kind, m):
        spec = LossSpec(kind=kind, m=m)
        eps_imp = spec.eps_zero if kind == "hinge3" else spec.eps_minus
        grad = loss_grad_batch(np.array([0.9, eps_imp, 0.2]), np.array([0, 1, 2]), spec)
        np.testing.assert_array_equal(grad, 0.0)

    def test_hinge_grad_signs(self):
        spec = LossSpec(kind="hinge3", m=2)
        assert loss_grad(0.5, Label3.PURCHASED, spec) < 0
        assert loss_grad(0.8, Label3.IMPRESSED, spec) > 0
        assert loss_grad(0.5, Label3.RANDOM, spec) > 0
