"""Tests for ER@K and HR@K ranking metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference.scalar import (
    exposure_ratio_at_k,
    hit_ratio_at_k,
    pack_eval_negatives,
    sample_eval_negatives,
    top_k_items,
)
from repro.datasets.base import InteractionDataset
from repro.metrics import ranking
from repro.metrics.ranking import (
    exposure_counts_at_k,
    hit_counts_at_k,
    sample_packed_eval_negatives,
)
from repro.rng import spawn


def small_dataset():
    train_pos = [np.array([0, 1]), np.array([2, 3])]
    test_items = np.array([4, 5])
    return InteractionDataset("m", 2, 6, train_pos, test_items)


class TestTopK:
    def test_excludes_train_items(self):
        scores = np.array([[9.0, 8.0, 1.0, 2.0, 3.0, 0.0]])
        mask = np.zeros((1, 6), dtype=bool)
        mask[0, [0, 1]] = True
        top = top_k_items(scores, mask, 3)
        assert set(top[0].tolist()) == {2, 3, 4}

    def test_ordering_descending(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        mask = np.zeros((1, 4), dtype=bool)
        np.testing.assert_array_equal(top_k_items(scores, mask, 3)[0], [1, 3, 2])

    def test_k_larger_than_items(self):
        scores = np.array([[1.0, 2.0]])
        mask = np.zeros((1, 2), dtype=bool)
        assert top_k_items(scores, mask, 10).shape == (1, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            top_k_items(np.zeros((1, 3)), np.zeros((1, 4), dtype=bool), 2)


class TestExposureRatio:
    def test_full_exposure(self):
        scores = np.zeros((3, 10))
        scores[:, 7] = 10.0
        mask = np.zeros((3, 10), dtype=bool)
        assert exposure_ratio_at_k(scores, mask, np.array([7]), 1) == 1.0

    def test_zero_exposure(self):
        scores = np.zeros((3, 10))
        scores[:, 7] = -10.0
        mask = np.zeros((3, 10), dtype=bool)
        assert exposure_ratio_at_k(scores, mask, np.array([7]), 3) == 0.0

    def test_interacted_users_excluded(self):
        # Both users would rank the target first, but user 0 already
        # interacted with it, so only user 1 counts (Eq. 3's U_j').
        scores = np.zeros((2, 5))
        scores[:, 3] = 10.0
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 3] = True
        assert exposure_ratio_at_k(scores, mask, np.array([3]), 2) == 1.0

    def test_averaged_over_targets(self):
        scores = np.zeros((2, 6))
        scores[:, 1] = 10.0  # target 1 always exposed
        scores[:, 2] = -10.0  # target 2 never exposed
        mask = np.zeros((2, 6), dtype=bool)
        value = exposure_ratio_at_k(scores, mask, np.array([1, 2]), 1)
        assert value == pytest.approx(0.5)

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError, match="target"):
            exposure_ratio_at_k(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool), np.array([]), 1)


class TestEvalNegatives:
    def test_negatives_avoid_train_and_test(self):
        data = small_dataset()
        negatives = sample_eval_negatives(data, 3, seed=0)
        for user in range(2):
            banned = data.train_set(user) | {int(data.test_items[user])}
            assert not set(negatives[user].tolist()) & banned

    def test_deterministic(self):
        data = small_dataset()
        a = sample_eval_negatives(data, 3, seed=1)
        b = sample_eval_negatives(data, 3, seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_count_capped_by_pool(self):
        data = small_dataset()
        negatives = sample_eval_negatives(data, 99, seed=0)
        assert all(len(n) == 3 for n in negatives)  # 6 items - 2 train - 1 test

    @pytest.mark.parametrize("num_negatives", [-1, 0, 2, 99])
    def test_packed_sampler_equals_packed_lists(self, num_negatives):
        data = small_dataset()
        packed, lengths = sample_packed_eval_negatives(data, num_negatives, seed=4)
        want_packed, want_lengths = pack_eval_negatives(
            sample_eval_negatives(data, num_negatives, seed=4)
        )
        # Six items: the ids fit one byte.
        assert packed.dtype == np.uint8 and lengths.dtype == np.int64
        np.testing.assert_array_equal(packed, want_packed)
        np.testing.assert_array_equal(lengths, want_lengths)
        if num_negatives <= 0:
            assert packed.shape == (data.num_users, 0) and not lengths.any()

    @pytest.mark.parametrize(
        "num_items, dtype",
        [(256, np.uint8), (257, np.uint16), (6000, np.uint16), (65536, np.uint16),
         (65537, np.uint32)],
    )
    def test_packed_sampler_takes_the_narrowest_id_dtype(self, num_items, dtype):
        rng = np.random.default_rng(num_items)
        train_pos = [
            np.sort(rng.choice(num_items, size=size, replace=False))
            for size in (0, 3, 40, 1)
        ]
        # The top id is a positive, a test item, or free to be drawn.
        train_pos[1][-1] = num_items - 1
        test_items = np.array([num_items - 1, 5, -1, num_items - 2])
        data = InteractionDataset("wide", 4, num_items, train_pos, test_items)
        packed, lengths = sample_packed_eval_negatives(data, 99, seed=2)
        want_packed, want_lengths = pack_eval_negatives(
            sample_eval_negatives(data, 99, seed=2)
        )
        assert packed.dtype == dtype and packed.shape == want_packed.shape
        np.testing.assert_array_equal(packed, want_packed)
        np.testing.assert_array_equal(lengths, want_lengths)


@st.composite
def eval_datasets(draw):
    """Tiny datasets: empty users, absent (-1) test items, test items
    among the user's positives, catalogues the count can exhaust."""
    num_users = draw(st.integers(1, 12))
    num_items = draw(st.integers(2, 30))
    items = st.integers(0, num_items - 1)
    train_pos = [
        np.array(sorted(draw(st.sets(items, max_size=num_items))), dtype=np.int64)
        for _ in range(num_users)
    ]
    test_items = np.array(
        draw(st.lists(st.one_of(st.just(-1), items), min_size=num_users, max_size=num_users)),
        dtype=np.int64,
    )
    return InteractionDataset("m", num_users, num_items, train_pos, test_items)


class TestEvalNegativesEqualPerUserOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        data=eval_datasets(),
        num_negatives=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
        block=st.sampled_from([1, 3, 256]),
    )
    def test_per_user_draws(self, data, num_negatives, seed, block):
        saved = ranking._EVAL_NEGATIVES_BLOCK
        ranking._EVAL_NEGATIVES_BLOCK = block
        try:
            got = sample_eval_negatives(data, num_negatives, seed)
        finally:
            ranking._EVAL_NEGATIVES_BLOCK = saved
        for user in range(data.num_users):
            positives, test_item = data.train_pos[user], int(data.test_items[user])
            banned = positives
            if test_item >= 0 and test_item not in positives.tolist():
                banned = np.append(positives, test_item)
            pool = data.num_items - len(banned) - (test_item < 0)
            expected = ranking._redraw_eval_negatives(
                spawn(seed, "eval-neg", user),
                banned,
                data.num_items,
                min(max(pool, 0), num_negatives),
            )
            assert got[user].dtype == np.int64
            assert got[user].tolist() == expected.tolist()


class TestHitRatio:
    def test_perfect_model(self):
        data = small_dataset()
        negatives = sample_eval_negatives(data, 3, seed=0)
        scores = np.zeros((2, 6))
        scores[0, 4] = 5.0
        scores[1, 5] = 5.0
        assert hit_ratio_at_k(scores, data, negatives, 1) == 1.0

    def test_worst_model(self):
        data = small_dataset()
        negatives = sample_eval_negatives(data, 3, seed=0)
        scores = np.zeros((2, 6))
        scores[0, 4] = -5.0
        scores[1, 5] = -5.0
        assert hit_ratio_at_k(scores, data, negatives, 3) == 0.0

    def test_constant_scores_not_spuriously_perfect(self):
        # A degenerate constant-output model must not get HR = 1.0;
        # ties count half a loss each.
        data = small_dataset()
        negatives = sample_eval_negatives(data, 3, seed=0)
        scores = np.zeros((2, 6))
        assert hit_ratio_at_k(scores, data, negatives, 1) == 0.0

    def test_users_without_test_item_skipped(self):
        train_pos = [np.array([0]), np.array([1])]
        test_items = np.array([2, -1])
        data = InteractionDataset("m", 2, 4, train_pos, test_items)
        negatives = sample_eval_negatives(data, 2, seed=0)
        scores = np.zeros((2, 4))
        scores[0, 2] = 1.0
        assert hit_ratio_at_k(scores, data, negatives, 1) == 1.0


def stable_sort_exposure_counts(scores, mask, targets, k):
    """ER@K counts read off a stable descending sort (the oracle).

    Masked items sort as ``-inf``; a target is exposed to a user iff it
    is unmasked, has a finite score and sits in the first ``k`` places.
    """
    masked = np.where(mask, -np.inf, scores)
    top = np.argsort(-masked, axis=1, kind="stable")[:, :k]
    hits, eligible = [], []
    for target in targets:
        open_users = ~mask[:, target]
        exposed = (top == target).any(axis=1) & np.isfinite(scores[:, target])
        hits.append(int((open_users & exposed).sum()))
        eligible.append(int(open_users.sum()))
    return np.array(hits), np.array(eligible)


@st.composite
def exposure_cases(draw):
    """Score blocks built to tie: few distinct values, copied columns."""
    num_users = draw(st.integers(1, 7))
    num_items = draw(st.integers(1, 9))
    if draw(st.booleans()):
        values = st.integers(-2, 2).map(float)
    else:
        values = st.one_of(
            st.floats(-3.0, 3.0),
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
        )
    scores = draw(arrays(np.float64, (num_users, num_items), elements=values))
    mask = draw(arrays(np.bool_, (num_users, num_items)))
    items = st.integers(0, num_items - 1)
    # one_then_copy: some columns are exact copies of another column.
    for _ in range(draw(st.integers(0, 2))):
        scores[:, draw(items)] = scores[:, draw(items)]
    for row in draw(st.lists(st.integers(0, num_users - 1), max_size=2)):
        mask[row] = True
    targets = draw(st.lists(items, min_size=1, max_size=5, unique=True))
    k = draw(st.integers(1, num_items + 2))
    cuts = draw(st.lists(st.integers(0, num_users), max_size=3))
    return scores, mask, np.array(targets), k, sorted({0, num_users, *cuts})


class TestExposureCounts:
    @given(exposure_cases())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_stable_sort_membership(self, case):
        scores, mask, targets, k, bounds = case
        hits, eligible = exposure_counts_at_k(scores, mask, targets, k)
        want_hits, want_eligible = stable_sort_exposure_counts(scores, mask, targets, k)
        np.testing.assert_array_equal(hits, want_hits)
        np.testing.assert_array_equal(eligible, want_eligible)
        # Streaming the rows in blocks accumulates to the same counts.
        streamed = [
            exposure_counts_at_k(scores[lo:hi], mask[lo:hi], targets, k)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        np.testing.assert_array_equal(sum(part[0] for part in streamed), hits)
        np.testing.assert_array_equal(sum(part[1] for part in streamed), eligible)

    def test_boundary_tie_goes_to_the_smaller_id(self):
        # Items 1 and 3 tie for the second and last place of a top-2.
        scores = np.array([[9.0, 5.0, 1.0, 5.0]])
        mask = np.zeros((1, 4), dtype=bool)
        hits, _ = exposure_counts_at_k(scores, mask, np.array([1, 3]), 2)
        assert hits.tolist() == [1, 0]

    def test_masked_items_do_not_push_the_target_out(self):
        scores = np.array([[9.0, 8.0, 7.0, 1.0]])
        mask = np.array([[True, True, False, False]])
        hits, eligible = exposure_counts_at_k(scores, mask, np.array([3]), 2)
        assert (hits.tolist(), eligible.tolist()) == ([1], [1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_score_is_a_miss(self, bad):
        scores = np.array([[bad, 1.0, 2.0]])
        mask = np.zeros((1, 3), dtype=bool)
        hits, eligible = exposure_counts_at_k(scores, mask, np.array([0]), 3)
        assert (hits.tolist(), eligible.tolist()) == ([0], [1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            exposure_counts_at_k(
                np.zeros((1, 3)), np.zeros((1, 4), dtype=bool), np.array([0]), 1
            )


def loop_hit_counts(scores, test_items, eval_negatives, k):
    """HR@K counts by the per-user list loop (the oracle)."""
    hits = total = 0
    for user, negs in enumerate(eval_negatives):
        if test_items[user] < 0 or len(negs) == 0:
            continue
        test_score = scores[user, test_items[user]]
        rank = np.sum(scores[user, negs] > test_score) + 0.5 * np.sum(
            scores[user, negs] == test_score
        )
        hits += bool(rank < k)
        total += 1
    return hits, total


@st.composite
def hit_cases(draw):
    """Ragged negative lists, some empty, some users with no test item."""
    num_users = draw(st.integers(1, 7))
    num_items = draw(st.integers(2, 9))
    items = st.integers(0, num_items - 1)
    scores = draw(
        arrays(
            np.float64, (num_users, num_items), elements=st.integers(-2, 2).map(float)
        )
    )
    test_items = np.array(
        draw(
            st.lists(
                st.one_of(st.just(-1), items), min_size=num_users, max_size=num_users
            )
        )
    )
    negatives = [
        np.array(draw(st.lists(items, max_size=6, unique=True)), dtype=np.int64)
        for _ in range(num_users)
    ]
    k = draw(st.integers(1, 7))
    cuts = draw(st.lists(st.integers(0, num_users), max_size=3))
    return scores, test_items, negatives, k, sorted({0, num_users, *cuts})


class TestPackedHitCounts:
    @given(hit_cases())
    @settings(max_examples=200, deadline=None)
    def test_packed_counts_equal_list_loop(self, case):
        scores, test_items, negatives, k, bounds = case
        packed, lengths = pack_eval_negatives(negatives)
        assert lengths.tolist() == [len(negs) for negs in negatives]
        for row, negs in enumerate(negatives):
            np.testing.assert_array_equal(packed[row, : len(negs)], negs)
        want = loop_hit_counts(scores, test_items, negatives, k)
        assert hit_counts_at_k(scores, test_items, packed, lengths, k) == want
        streamed = [
            hit_counts_at_k(
                scores[lo:hi], test_items[lo:hi], packed[lo:hi], lengths[lo:hi], k
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert tuple(map(sum, zip(*streamed))) == want

    def test_no_negatives_at_all(self):
        empty = np.empty(0, dtype=np.int64)
        packed, lengths = pack_eval_negatives([empty, empty])
        assert packed.shape == (2, 0) and lengths.tolist() == [0, 0]
        assert hit_counts_at_k(np.zeros((2, 3)), np.array([1, 2]), packed, lengths, 1) == (0, 0)

