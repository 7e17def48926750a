"""Tests for loss functions and their analytic gradients."""

import numpy as np

from reference.scalar import bce_loss_and_grad, bpr_loss_and_grad
from repro.models.losses import sigmoid
from tests.conftest import numeric_gradient


class TestSigmoid:
    def test_matches_definition(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x), 1 / (1 + np.exp(-x)), rtol=1e-12)

    def test_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0
        assert not np.isnan(out).any()



class TestBCE:
    def test_loss_matches_manual(self):
        logits = np.array([0.5, -1.0, 2.0])
        labels = np.array([1.0, 0.0, 1.0])
        loss, _ = bce_loss_and_grad(logits, labels)
        probs = sigmoid(logits)
        manual = -np.mean(
            labels * np.log(probs) + (1 - labels) * np.log(1 - probs)
        )
        np.testing.assert_allclose(loss, manual, rtol=1e-10)

    def test_gradient_numerically(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=6)
        labels = rng.integers(0, 2, size=6).astype(float)
        _, grad = bce_loss_and_grad(logits, labels)
        numeric = numeric_gradient(
            lambda x: bce_loss_and_grad(x, labels)[0], logits.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_perfect_prediction_small_grad(self):
        logits = np.array([30.0, -30.0])
        labels = np.array([1.0, 0.0])
        loss, grad = bce_loss_and_grad(logits, labels)
        assert loss < 1e-8
        assert np.abs(grad).max() < 1e-8

    def test_shape_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            bce_loss_and_grad(np.zeros(3), np.zeros(2))


class TestBPR:
    def test_gradients_numerically(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=5)
        neg = rng.normal(size=5)
        _, dpos, dneg = bpr_loss_and_grad(pos, neg)
        num_pos = numeric_gradient(
            lambda x: bpr_loss_and_grad(x, neg)[0], pos.copy()
        )
        num_neg = numeric_gradient(
            lambda x: bpr_loss_and_grad(pos, x)[0], neg.copy()
        )
        np.testing.assert_allclose(dpos, num_pos, atol=1e-6)
        np.testing.assert_allclose(dneg, num_neg, atol=1e-6)

    def test_antisymmetric_gradients(self):
        pos = np.array([1.0, 0.0])
        neg = np.array([0.0, 1.0])
        _, dpos, dneg = bpr_loss_and_grad(pos, neg)
        np.testing.assert_allclose(dpos, -dneg)

    def test_correct_ranking_low_loss(self):
        loss_good, _, _ = bpr_loss_and_grad(np.array([10.0]), np.array([-10.0]))
        loss_bad, _, _ = bpr_loss_and_grad(np.array([-10.0]), np.array([10.0]))
        assert loss_good < 1e-6 < loss_bad

    def test_unpaired_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="paired"):
            bpr_loss_and_grad(np.zeros(3), np.zeros(4))
