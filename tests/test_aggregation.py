"""Tests for the sum aggregator and the robust defense aggregators."""

import numpy as np
import pytest

from reference import ClientUpdate, filter_updates
from repro.defenses.robust import (
    BulyanAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormBoundFilter,
    TrimmedMeanAggregator,
)
from repro.federated.aggregation import SumAggregator
from repro.rng import make_rng


def benign_stack(n=9, dim=4, seed=0):
    """Benign gradients clustered near a common mean."""
    rng = make_rng(seed)
    centre = rng.normal(size=dim)
    return centre, centre + 0.01 * rng.normal(size=(n, dim))


class TestSum:
    def test_sums(self):
        grads = np.arange(12, dtype=float).reshape(3, 4)
        np.testing.assert_allclose(SumAggregator().aggregate(grads), grads.sum(axis=0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SumAggregator().aggregate(np.zeros((0, 3)))

    def test_single_gradient(self):
        grads = np.ones((1, 3))
        np.testing.assert_allclose(SumAggregator().aggregate(grads), grads[0])


class TestMedian:
    def test_coordinate_median_times_n(self):
        grads = np.array([[1.0], [2.0], [100.0]])
        np.testing.assert_allclose(MedianAggregator().aggregate(grads), [2.0 * 3])

    def test_outlier_resistant(self):
        centre, grads = benign_stack()
        poisoned = np.vstack([grads, 1000.0 * np.ones((1, 4))])
        agg = MedianAggregator().aggregate(poisoned) / len(poisoned)
        np.testing.assert_allclose(agg, centre, atol=0.05)


class TestTrimmedMean:
    def test_trims_extremes(self):
        grads = np.array([[0.0], [1.0], [2.0], [3.0], [1000.0]])
        agg = TrimmedMeanAggregator(0.2).aggregate(grads)
        np.testing.assert_allclose(agg, [2.0 * 5])  # mean of 1,2,3 times n

    def test_no_trim_when_ratio_zero(self):
        grads = np.array([[1.0], [5.0]])
        agg = TrimmedMeanAggregator(0.0).aggregate(grads)
        np.testing.assert_allclose(agg, [6.0])

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            TrimmedMeanAggregator(0.6)


class TestKrum:
    def test_picks_central_gradient(self):
        centre, grads = benign_stack(n=8)
        poisoned = np.vstack([grads, 50.0 * np.ones((2, 4))])
        agg = KrumAggregator(0.2).aggregate(poisoned) / len(poisoned)
        np.testing.assert_allclose(agg, centre, atol=0.05)

    def test_small_stack_falls_back_to_sum(self):
        grads = np.array([[1.0], [2.0]])
        np.testing.assert_allclose(KrumAggregator().aggregate(grads), [3.0])

    def test_selects_actual_member(self):
        _, grads = benign_stack(n=6)
        agg = KrumAggregator(0.1).aggregate(grads) / len(grads)
        assert any(np.allclose(agg, g) for g in grads)


class TestMultiKrumAndBulyan:
    def test_multikrum_excludes_outliers(self):
        centre, grads = benign_stack(n=10)
        poisoned = np.vstack([grads, 100.0 * np.ones((1, 4))])
        agg = MultiKrumAggregator(0.1).aggregate(poisoned) / len(poisoned)
        np.testing.assert_allclose(agg, centre, atol=0.05)

    def test_bulyan_excludes_outliers(self):
        centre, grads = benign_stack(n=12)
        poisoned = np.vstack([grads, 100.0 * np.ones((2, 4))])
        agg = BulyanAggregator(0.1).aggregate(poisoned) / len(poisoned)
        np.testing.assert_allclose(agg, centre, atol=0.05)

    def test_bulyan_small_stack_sums(self):
        grads = np.ones((2, 3))
        np.testing.assert_allclose(BulyanAggregator().aggregate(grads), 2 * np.ones(3))


class TestNormBound:
    def test_clips_to_threshold(self):
        big = ClientUpdate(0, np.array([0]), np.full((1, 4), 10.0))
        small = ClientUpdate(1, np.array([0]), np.full((1, 4), 0.01))
        out = filter_updates(NormBoundFilter(1.0), [big, small])
        assert out[0].total_norm == pytest.approx(1.0)
        assert out[1].total_norm == small.total_norm

    def test_adaptive_threshold_uses_median(self):
        updates = [
            ClientUpdate(i, np.array([0]), np.full((1, 2), float(v)))
            for i, v in enumerate([1, 1, 1, 100])
        ]
        out = filter_updates(NormBoundFilter(0.0), updates)
        median_norm = updates[0].total_norm
        assert out[3].total_norm == pytest.approx(median_norm)

    def test_empty_passthrough(self):
        assert filter_updates(NormBoundFilter(1.0), []) == []


class TestSumScaleConvention:
    """All robust aggregators return values on the sum scale."""

    @pytest.mark.parametrize(
        "aggregator",
        [
            MedianAggregator(),
            TrimmedMeanAggregator(0.1),
            KrumAggregator(0.1),
            MultiKrumAggregator(0.1),
            BulyanAggregator(0.1),
        ],
    )
    def test_identical_gradients_equal_sum(self, aggregator):
        grads = np.tile(np.array([1.0, -2.0, 0.5]), (8, 1))
        np.testing.assert_allclose(
            aggregator.aggregate(grads), grads.sum(axis=0), atol=1e-9
        )
