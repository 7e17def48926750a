"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import ReferenceMiner
from repro.analysis.poison_proportion import expected_poison_proportion
from repro.attacks.base import bounded_step_gradient
from repro.datasets.sampling import sample_negatives
from repro.defenses.robust import (
    MedianAggregator,
    TrimmedMeanAggregator,
)
from repro.federated.aggregation import SumAggregator
from repro.metrics.divergence import softmax, softmax_kl
from repro.metrics.ranking import top_k_items
from repro.models.losses import bce_loss_and_grad, sigmoid
from repro.rng import make_rng

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def grad_stacks(min_rows=1, max_rows=8, dim=3):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_rows, max_rows), st.just(dim)),
        elements=finite_floats,
    )


class TestAggregatorProperties:
    @given(grad_stacks())
    @settings(max_examples=50, deadline=None)
    def test_sum_permutation_invariant(self, grads):
        rng = make_rng(0)
        perm = rng.permutation(len(grads))
        a = SumAggregator().aggregate(grads)
        b = SumAggregator().aggregate(grads[perm])
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(grad_stacks())
    @settings(max_examples=50, deadline=None)
    def test_median_permutation_invariant(self, grads):
        rng = make_rng(1)
        perm = rng.permutation(len(grads))
        a = MedianAggregator().aggregate(grads)
        b = MedianAggregator().aggregate(grads[perm])
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(grad_stacks(min_rows=2))
    @settings(max_examples=50, deadline=None)
    def test_median_within_coordinate_bounds(self, grads):
        agg = MedianAggregator().aggregate(grads) / len(grads)
        assert (agg >= grads.min(axis=0) - 1e-9).all()
        assert (agg <= grads.max(axis=0) + 1e-9).all()

    @given(grad_stacks(min_rows=3))
    @settings(max_examples=50, deadline=None)
    def test_trimmed_mean_within_bounds(self, grads):
        agg = TrimmedMeanAggregator(0.2).aggregate(grads) / len(grads)
        assert (agg >= grads.min(axis=0) - 1e-9).all()
        assert (agg <= grads.max(axis=0) + 1e-9).all()


class TestLossProperties:
    @given(arrays(np.float64, st.integers(1, 20), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_range(self, x):
        out = sigmoid(x)
        assert ((out >= 0.0) & (out <= 1.0)).all()

    @given(arrays(np.float64, st.integers(1, 10), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_bce_loss_non_negative(self, logits):
        labels = (logits > 0).astype(float)
        loss, _ = bce_loss_and_grad(logits, labels)
        assert loss >= 0.0

    @given(
        arrays(np.float64, st.integers(1, 10), elements=finite_floats),
        st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bce_grad_bounded(self, logits, positive):
        labels = np.full(len(logits), 1.0 if positive else 0.0)
        _, grad = bce_loss_and_grad(logits, labels)
        # Per-element gradient magnitude can never exceed 1/n.
        assert np.abs(grad).max() <= 1.0 / len(logits) + 1e-12


class TestDivergenceProperties:
    @given(
        arrays(np.float64, st.just(6), elements=finite_floats),
        arrays(np.float64, st.just(6), elements=finite_floats),
    )
    @settings(max_examples=80, deadline=None)
    def test_kl_non_negative(self, p, q):
        assert softmax_kl(p, q) >= -1e-10

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.just(4)), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, x):
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert (out >= 0.0).all()


class TestSamplingProperties:
    @given(
        st.integers(0, 30),
        st.integers(1, 20),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_negatives_always_disjoint_and_unique(self, num_pos, count, seed):
        num_items = 50
        rng = make_rng(seed)
        positives = rng.choice(num_items, size=num_pos, replace=False)
        negs = sample_negatives(make_rng(seed + 1), positives, num_items, count)
        assert len(set(negs.tolist())) == len(negs)
        assert not set(negs.tolist()) & set(positives.tolist())
        assert len(negs) == min(count, num_items - num_pos)


class TestRankingProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(5, 20)),
            elements=finite_floats,
        ),
        st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_k_never_returns_train_items(self, scores, k):
        rng = make_rng(3)
        mask = rng.random(scores.shape) < 0.3
        # Keep at least one recommendable item per user.
        mask[:, 0] = False
        tops = top_k_items(scores, mask, k)
        for user in range(scores.shape[0]):
            recommended = tops[user]
            valid = recommended[recommended >= 0]
            assert not mask[user, valid].any()


class TestAttackStepProperties:
    @given(
        arrays(np.float64, st.just(4), elements=finite_floats),
        arrays(np.float64, st.just(4), elements=finite_floats),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_step_never_exceeds_cap(self, old, new, cap):
        grad = bounded_step_gradient(old, new, server_lr=1.0, max_step=cap)
        moved = old - grad
        assert np.linalg.norm(moved - old) <= cap + 1e-9

    @given(
        arrays(np.float64, st.just(4), elements=finite_floats),
        arrays(np.float64, st.just(4), elements=finite_floats),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_step_moves_towards_target(self, old, new):
        grad = bounded_step_gradient(old, new, server_lr=1.0, max_step=1.0)
        moved = old - grad
        assert np.linalg.norm(moved - new) <= np.linalg.norm(old - new) + 1e-9


class TestPoisonProportionProperties:
    @given(st.floats(1e-6, 1.0), st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_eq11_in_unit_interval(self, pj, ratio):
        value = expected_poison_proportion(pj, ratio)
        assert 0.0 <= value <= 1.0

    @given(st.floats(1e-6, 1.0), st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_eq11_at_least_malicious_ratio(self, pj, ratio):
        assert expected_poison_proportion(pj, ratio) >= ratio - 1e-12


class TestTrackerProperties:
    @given(
        st.lists(
            arrays(np.float64, st.tuples(st.just(6), st.just(3)), elements=finite_floats),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_accumulated_non_negative_and_monotone(self, matrices):
        # A window longer than the run: the accumulator never freezes.
        tracker = ReferenceMiner(6, mining_rounds=len(matrices), num_popular=1)
        previous = np.zeros(6)
        for matrix in matrices:
            tracker.observe(matrix, matrix.copy())
            assert (tracker.accumulated >= previous - 1e-12).all()
            previous = tracker.accumulated.copy()
        assert tracker.observations == len(matrices)
        assert tracker.mined is None
