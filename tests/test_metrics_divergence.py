"""Tests for softmax-KL, PKL and UCR metrics."""

import numpy as np
import pytest

from reference.scalar import softmax_kl
from repro.datasets.base import InteractionDataset
from repro.metrics.divergence import pairwise_kl, softmax, user_coverage_ratio
from repro.rng import make_rng
from tests.conftest import numeric_gradient


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = make_rng(0).normal(size=(4, 6))
        np.testing.assert_allclose(softmax(x).sum(axis=1), np.ones(4))

    def test_shift_invariance(self):
        x = make_rng(1).normal(size=5)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_extreme_values_stable(self):
        out = softmax(np.array([1000.0, -1000.0]))
        assert not np.isnan(out).any()


class TestSoftmaxKL:
    def test_identical_vectors_zero(self):
        v = make_rng(2).normal(size=8)
        assert softmax_kl(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative(self):
        rng = make_rng(3)
        for _ in range(10):
            assert softmax_kl(rng.normal(size=6), rng.normal(size=6)) >= 0.0

    def test_asymmetric(self):
        p = np.array([3.0, 0.0, 0.0])
        q = np.array([1.0, 1.0, 0.0])
        assert softmax_kl(p, q) != pytest.approx(softmax_kl(q, p))

    def test_grad_q_closed_form_matches_numeric(self):
        """The identity the defense's Re2 term backpropagates:
        d KL(softmax(p) || softmax(q)) / dq = softmax(q) - softmax(p)."""
        rng = make_rng(4)
        p = rng.normal(size=5)
        q = rng.normal(size=5)
        grad = softmax(q) - softmax(p)
        numeric = numeric_gradient(lambda x: softmax_kl(p, x), q.copy())
        np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestPairwiseKL:
    def test_matches_explicit_loop(self):
        rng = make_rng(5)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(2, 4))
        explicit = np.mean(
            [[softmax_kl(x, y) for y in b] for x in a]
        )
        np.testing.assert_allclose(pairwise_kl(a, b), explicit, rtol=1e-10)

    def test_identical_sets_small(self):
        a = make_rng(6).normal(size=(4, 5))
        self_kl = pairwise_kl(a, a)
        other = pairwise_kl(a, make_rng(7).normal(scale=3.0, size=(4, 5)))
        assert self_kl < other

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            pairwise_kl(np.zeros((0, 3)), np.zeros((2, 3)))


class TestUCR:
    def make_dataset(self):
        train_pos = [np.array([0]), np.array([1]), np.array([2, 3])]
        return InteractionDataset("u", 3, 5, train_pos, np.array([4, 4, 4]))

    def test_full_coverage(self):
        data = self.make_dataset()
        assert user_coverage_ratio(data, np.array([0, 1, 2])) == 1.0

    def test_partial_coverage(self):
        data = self.make_dataset()
        assert user_coverage_ratio(data, np.array([0])) == pytest.approx(1 / 3)

    def test_empty_popular_set(self):
        data = self.make_dataset()
        assert user_coverage_ratio(data, np.array([], dtype=np.int64)) == 0.0
