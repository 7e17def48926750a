"""Tests for negative sampling and local batch construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.scalar import ragged_csr, sample_local_batch
from repro.datasets.sampling import (
    sample_local_batches,
    sample_negatives,
    sample_negatives_batch,
)
from repro.rng import StreamBatch, make_rng, spawn, spawn_batch


class TestSampleNegatives:
    def test_disjoint_from_positives(self):
        rng = make_rng(0)
        positives = np.array([1, 3, 5])
        for _ in range(20):
            negs = sample_negatives(rng, positives, 20, 5)
            assert not set(negs.tolist()) & {1, 3, 5}

    def test_count_and_uniqueness(self):
        rng = make_rng(1)
        negs = sample_negatives(rng, np.array([0]), 100, 30)
        assert len(negs) == 30
        assert len(np.unique(negs)) == 30

    def test_zero_count(self):
        rng = make_rng(2)
        assert len(sample_negatives(rng, np.array([0]), 10, 0)) == 0

    def test_exhausted_pool_returns_complement(self):
        rng = make_rng(3)
        positives = np.array([0, 1, 2])
        negs = sample_negatives(rng, positives, 5, 10)
        assert set(negs.tolist()) == {3, 4}

    def test_no_negatives_available(self):
        rng = make_rng(4)
        positives = np.arange(5)
        assert len(sample_negatives(rng, positives, 5, 3)) == 0

    def test_scarce_pool_partial_sample(self):
        rng = make_rng(5)
        positives = np.arange(8)
        negs = sample_negatives(rng, positives, 10, 1)
        assert len(negs) == 1
        assert negs[0] in (8, 9)


class TestSampleLocalBatch:
    def test_labels_align_with_items(self):
        rng = make_rng(6)
        positives = np.array([2, 4])
        items, labels = sample_local_batch(rng, positives, 50, negative_ratio=2)
        assert len(items) == len(labels) == 6
        np.testing.assert_array_equal(labels[:2], [1.0, 1.0])
        np.testing.assert_array_equal(labels[2:], np.zeros(4))
        np.testing.assert_array_equal(items[:2], positives)

    def test_q_ratio_respected(self):
        rng = make_rng(7)
        positives = np.arange(5)
        for q in (1, 3):
            items, labels = sample_local_batch(rng, positives, 200, negative_ratio=q)
            assert int(labels.sum()) == 5
            assert len(items) == 5 * (q + 1)

    def test_batch_items_unique(self):
        rng = make_rng(8)
        items, _ = sample_local_batch(rng, np.array([1, 2, 3]), 30, 1)
        assert len(np.unique(items)) == len(items)


# ----------------------------------------------------------------------
# Cohort-wide sampler == per-client oracle on a fresh stream
# ----------------------------------------------------------------------

#: 2**32 % LEMIRE_HEAVY == 2**31 - 1: every 32-bit half is rejected with
#: probability ~1/2, so practically every client takes the slow path.
LEMIRE_HEAVY = 2**31 + 1


def lemire_reference(raw: np.ndarray, num_items: int, size: int) -> np.ndarray:
    """NumPy's bounded-uint32 rule, one half at a time, over raw words."""
    halves = iter(
        half for word in raw.tolist() for half in (word & 0xFFFFFFFF, word >> 32)
    )
    threshold = 2**32 % num_items
    out = []
    while len(out) < size:
        scaled = next(halves) * num_items
        if (scaled & 0xFFFFFFFF) >= threshold:
            out.append(scaled >> 32)
    return np.array(out, dtype=np.int64)


class TestBoundedIntegersCanary:
    """``Generator.integers`` is the raw-word mapping the sampler assumes.

    A NumPy that changes its bounded-integer algorithm fails here by
    name, before any model digest drifts.
    """

    @pytest.mark.parametrize("num_items", [2, 40, 300, 6000, 2**16, 10**6, 2**32])
    def test_even_draw_is_low_then_high_half_scaled(self, num_items):
        for seed in range(20):
            raw = np.random.PCG64(seed).random_raw(8)
            halves = np.empty(16, dtype=np.uint64)
            halves[0::2] = raw & np.uint64(0xFFFFFFFF)
            halves[1::2] = raw >> np.uint64(32)
            scaled = halves * np.uint64(num_items)
            if ((scaled & np.uint64(0xFFFFFFFF)) < 2**32 % num_items).any():
                continue  # a Lemire rejection: the slow path's business
            got = np.random.Generator(np.random.PCG64(seed)).integers(
                0, num_items, size=16
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, (scaled >> np.uint64(32)).astype(np.int64))

    def test_pinned_stream(self):
        # Literal values: the loop above skips streams with a Lemire
        # rejection and must not be able to skip its way to a pass.
        raw = np.random.PCG64(0).random_raw(4)
        assert raw.tolist() == [
            11749869230777074271,
            4976686463289251617,
            755828109848996024,
            304881062738325533,
        ]
        pinned = [5103, 3821, 3066, 1618, 1846, 245, 451, 99]
        got = np.random.Generator(np.random.PCG64(0)).integers(0, 6000, size=8)
        assert got.tolist() == pinned
        assert lemire_reference(raw, 6000, 8).tolist() == pinned

    @pytest.mark.parametrize("num_items", [LEMIRE_HEAVY, 3 * 2**30 + 7])
    def test_rejection_threshold_is_two_pow_32_mod_n(self, num_items):
        for seed in range(20):
            got = np.random.Generator(np.random.PCG64(seed)).integers(
                0, num_items, size=16
            )
            raw = np.random.PCG64(seed).random_raw(64)
            assert np.array_equal(got, lemire_reference(raw, num_items, 16))

    def test_generator_consumes_size_over_two_words(self):
        gen = np.random.Generator(np.random.PCG64(5))
        gen.integers(0, 6000, size=10)
        follower = np.random.PCG64(5)
        follower.random_raw(5)
        assert gen.bit_generator.random_raw() == follower.random_raw()


def oracle(seed, ids, positives, num_items, counts):
    return [
        sample_negatives(spawn(seed, "t", int(i)), p, num_items, int(c))
        for i, p, c in zip(ids, positives, counts)
    ]


def run_cohort(seed, ids, positives, num_items, counts):
    """``(flat, num_neg, redone)``: ``redone`` are the slow-path rows."""
    redone = []

    def spying_oracle(rng, client_positives, items, count):
        redone.append(count)
        return sample_negatives(rng, client_positives, items, count)

    flat, num_neg = sample_negatives_batch(
        spawn_batch(seed, ("t",), np.asarray(ids, dtype=np.int64)),
        *ragged_csr(positives),
        num_items,
        np.asarray(counts, dtype=np.int64),
        fallback=spying_oracle,
    )
    return flat, num_neg, redone


def assert_cohort_equals_oracle(seed, ids, positives, num_items, counts):
    flat, num_neg, redone = run_cohort(seed, ids, positives, num_items, counts)
    expected = oracle(seed, ids, positives, num_items, counts)
    assert flat.dtype == np.int64 and num_neg.dtype == np.int64
    assert num_neg.tolist() == [len(e) for e in expected]
    assert flat.tolist() == [j for e in expected for j in e.tolist()]
    return redone


@st.composite
def cohorts(draw, num_items_strategy, density):
    """``(seed, ids, positives, num_items, counts)`` for one cohort.

    ``density`` bounds each client's share of the catalogue; counts run
    from 0 past ``available`` so the scarce branch is always in reach.
    """
    num_items = draw(num_items_strategy)
    num_clients = draw(st.integers(0, 6))
    ids = draw(
        st.lists(
            st.integers(0, 10**6),
            min_size=num_clients,
            max_size=num_clients,
            unique=True,
        )
    )
    positives, counts = [], []
    for _ in range(num_clients):
        most = min(int(density * num_items), 40)
        chosen = draw(
            st.sets(st.integers(0, num_items - 1), min_size=0, max_size=most)
        )
        positives.append(np.array(sorted(chosen), dtype=np.int64))
        counts.append(draw(st.integers(0, min(num_items, 60) + 2)))
    return draw(st.integers(0, 2**31 - 1)), ids, positives, num_items, counts


class TestCohortSamplerEqualsOracle:
    @settings(max_examples=60, deadline=None)
    @given(cohorts(st.sampled_from([2, 7, 40, 300, 6000]), density=0.3))
    def test_sparse_positives(self, cohort):
        assert_cohort_equals_oracle(*cohort)

    @settings(max_examples=60, deadline=None)
    @given(cohorts(st.integers(1, 24), density=1.0))
    def test_dense_positives_short_first_draw_and_scarce(self, cohort):
        assert_cohort_equals_oracle(*cohort)

    @settings(max_examples=40, deadline=None)
    @given(cohorts(st.sampled_from([LEMIRE_HEAVY, 3 * 2**30 + 7]), density=1e-8))
    def test_lemire_rejections(self, cohort):
        assert_cohort_equals_oracle(*cohort)

    @settings(max_examples=15, deadline=None)
    @given(cohorts(st.sampled_from([2**32, 2**32 + 1, 2**40]), density=1e-9))
    def test_edge_of_the_uint32_regime(self, cohort):
        assert_cohort_equals_oracle(*cohort)

    def test_fast_path_serves_a_sparse_cohort_alone(self):
        rng = np.random.default_rng(0)
        positives = [
            np.sort(rng.choice(6000, size=s, replace=False)) for s in (0, 1, 3, 12, 90)
        ]
        counts = [4, 1, 3, 48, 90]
        redone = assert_cohort_equals_oracle(1, range(5), positives, 6000, counts)
        assert redone == []

    def test_each_slow_path_class_is_redone(self):
        empty = np.empty(0, dtype=np.int64)
        # Lemire rejection: 8 halves, each rejected with probability 1/2.
        assert assert_cohort_equals_oracle(2, [0, 1, 2], [empty] * 3, LEMIRE_HEAVY, [4] * 3)
        # Scarce negatives (count >= available, down to none available):
        # the oracle enumerates, nothing is drawn.
        redone = assert_cohort_equals_oracle(
            3, [0, 1, 2], [np.arange(8), np.arange(8), np.arange(10)], 10, [2, 5, 3]
        )
        assert redone == [2, 5, 3]
        # Outside the uint32 regime everybody is redone.
        assert assert_cohort_equals_oracle(4, [0, 1], [empty] * 2, 2**32 + 1, [2, 2]) == [2, 2]

    def test_short_first_draw_tops_up_on_the_same_stream(self):
        # 3 of 24 ids free, count 2: the 8-id first draw misses often
        # enough that some seed needs the top-up; it must then continue
        # the client's own stream exactly like the oracle.
        positives = [np.arange(21, dtype=np.int64)] * 6
        seen_redo = False
        for seed in range(40):
            redone = assert_cohort_equals_oracle(seed, range(6), positives, 24, [2] * 6)
            seen_redo |= bool(redone)
        assert seen_redo

    def test_empty_and_single_client_cohorts(self):
        flat, num_neg, redone = run_cohort(0, [], [], 50, [])
        assert flat.shape == num_neg.shape == (0,) and redone == []
        assert assert_cohort_equals_oracle(0, [9], [np.array([1, 2])], 50, [2]) == []
        item_ids, labels, lengths = sample_local_batches(
            spawn_batch(0, ("t",), np.empty(0, dtype=np.int64)), *ragged_csr([]), 50, 1
        )
        assert item_ids.shape == labels.shape == lengths.shape == (0,)

    def test_zero_count_clients_take_no_rows(self):
        positives = [np.array([1]), np.array([2, 3]), np.array([4])]
        flat, num_neg, redone = run_cohort(0, [0, 1, 2], positives, 50, [0, 2, 0])
        assert num_neg.tolist() == [0, 2, 0] and redone == []
        assert flat.tolist() == oracle(0, [1], [positives[1]], 50, [2])[0].tolist()

    @pytest.mark.parametrize("negative_ratio", [1, 4])
    def test_local_batches_rows_equal_scalar_batches(self, negative_ratio):
        rng = np.random.default_rng(3)
        sizes = [0, 1, 2, 9, 30, 58]
        positives = [np.sort(rng.choice(60, size=s, replace=False)) for s in sizes]
        ids = np.arange(len(sizes))
        item_ids, labels, lengths = sample_local_batches(
            spawn_batch(8, ("t",), ids), *ragged_csr(positives), 60, negative_ratio
        )
        scalar = [
            sample_local_batch(spawn(8, "t", int(i)), p, 60, negative_ratio)
            for i, p in zip(ids, positives)
        ]
        assert lengths.tolist() == [len(items) for items, _ in scalar]
        assert item_ids.tolist() == [j for items, _ in scalar for j in items.tolist()]
        assert labels.tolist() == [x for _, lab in scalar for x in lab.tolist()]


class TestStreamBatch:
    def test_sized_indexable_and_lazy(self):
        ids = np.array([3, 1, 4])
        streams = spawn_batch(5, ("t",), ids, (2,))
        assert isinstance(streams, StreamBatch) and len(streams) == 3
        assert streams.words.shape == (3, 4)
        for k, gen in enumerate(streams):
            reference = spawn(5, "t", int(ids[k]), 2)
            assert gen.integers(0, 99, 9).tolist() == reference.integers(0, 99, 9).tolist()
        # Indexing restarts the stream: a batch hands out fresh generators.
        assert streams[1].random() == streams[1].random()

    def test_first_raw_is_the_head_of_each_stream(self):
        ids = np.arange(5)
        streams = spawn_batch(5, ("t",), ids)
        raw = streams.first_raw(np.array([4, 0, 2]), np.array([3, 0, 2]))
        expected = [
            spawn(5, "t", i).bit_generator.random_raw(n) for i, n in ((4, 3), (2, 2))
        ]
        assert raw.dtype == np.uint64
        assert raw.tolist() == np.concatenate(expected).tolist()
