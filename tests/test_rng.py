"""Tests for the deterministic RNG utilities."""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rng as rng_module
from repro.rng import (
    _JUMP_CHUNK,
    _seed_sequence_states,
    derive_seed,
    make_rng,
    spawn,
    spawn_batch,
    spawn_first_uniform,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).normal(size=10)
        b = make_rng(42).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).normal(size=10)
        b = make_rng(2).normal(size=10)
        assert not np.allclose(a, b)

    def test_none_seed_returns_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "x", 3) == derive_seed(5, "x", 3)

    def test_label_order_matters(self):
        assert derive_seed(5, "a", "b") != derive_seed(5, "b", "a")

    def test_int_and_string_labels_mix(self):
        assert derive_seed(0, 1, "one") != derive_seed(0, "one", 1)

    def test_distinct_parent_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_result_is_valid_seed(self):
        for labels in [(), ("a",), (1, 2, 3), ("long-label", 99)]:
            seed = derive_seed(123, *labels)
            assert 0 <= seed < 2**31

    def test_extra_label_changes_seed(self):
        assert derive_seed(7, "a") != derive_seed(7, "a", 0)


class TestSpawn:
    def test_spawn_reproducible(self):
        a = spawn(9, "client", 4).integers(0, 1000, size=5)
        b = spawn(9, "client", 4).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_streams_independent(self):
        a = spawn(9, "client", 4).normal(size=8)
        b = spawn(9, "client", 5).normal(size=8)
        assert not np.allclose(a, b)


@contextlib.contextmanager
def jump_table_cut_to(columns: int):
    """Run with the module's jump-ahead table cut to its first ``columns``.

    Any prefix of the table is a valid state, which growth must extend
    exactly; the full table is put back afterwards.
    """
    saved = rng_module._jump_table(columns)
    rng_module._jump = saved[..., :columns]
    try:
        yield
    finally:
        rng_module._jump = saved


class TestFirstRawJumpAhead:
    """``StreamBatch.first_raw`` against one ``PCG64`` per stream."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ids=st.lists(st.integers(0, 10**9), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_words_equal_random_raw(self, seed, ids, data):
        rows = data.draw(
            st.lists(st.integers(0, len(ids) - 1), max_size=10), label="rows"
        )
        counts = data.draw(
            st.lists(
                st.one_of(st.integers(0, 12), st.integers(0, 2000)),
                min_size=len(rows),
                max_size=len(rows),
            ),
            label="counts",
        )
        streams = spawn_batch(seed, ("t",), np.asarray(ids, dtype=np.int64), (3,))
        with jump_table_cut_to(data.draw(st.integers(1, 2100), label="table")):
            got = streams.first_raw(
                np.asarray(rows, dtype=np.int64), np.asarray(counts, dtype=np.int64)
            )
        expected = [
            spawn(seed, "t", ids[row], 3).bit_generator.random_raw(count)
            for row, count in zip(rows, counts)
        ]
        assert got.dtype == np.uint64
        assert got.tolist() == [int(w) for words in expected for w in words]

    def test_chunk_and_table_boundaries(self):
        seeds = np.array([0, 1, 2**31 - 1, 977])
        counts = np.array([_JUMP_CHUNK - 1, 1, _JUMP_CHUNK + 2, 2049])
        streams = rng_module.StreamBatch(_seed_sequence_states(seeds))
        with jump_table_cut_to(1):
            got = streams.first_raw(np.arange(4), counts)
            grown = rng_module._jump.shape[-1]
        expected = np.concatenate(
            [np.random.PCG64(int(s)).random_raw(int(c)) for s, c in zip(seeds, counts)]
        )
        assert np.array_equal(got, expected)
        assert grown >= _JUMP_CHUNK + 4

    def test_no_rows_and_zero_counts(self):
        streams = spawn_batch(1, ("t",), np.arange(3))
        none = np.empty(0, dtype=np.int64)
        for rows, counts in ((none, none), (np.array([2, 0]), np.array([0, 0]))):
            raw = streams.first_raw(rows, counts)
            assert raw.dtype == np.uint64 and raw.shape == (0,)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ids=st.lists(st.integers(0, 10**9), max_size=20),
    )
    def test_first_uniform_is_the_one_word_case(self, seed, ids):
        got = spawn_first_uniform(seed, ("u",), np.asarray(ids, dtype=np.int64), -1.0, 3.0)
        expected = [spawn(seed, "u", i).uniform(-1.0, 3.0) for i in ids]
        assert got.tolist() == expected
