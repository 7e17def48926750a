"""Tests for the deterministic RNG utilities."""

import contextlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _ziggurat_tables
from repro import rng as rng_module
from repro.rng import (
    _JUMP_CHUNK,
    _seed_sequence_states,
    derive_seed,
    derive_seed_batch,
    make_rng,
    spawn,
    spawn_batch,
    spawn_first_uniform,
    spawn_normal_rows,
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

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
        suffix=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=3),
    )
    def test_batch_folds_any_int_suffix_like_scalar(self, seed, ids, suffix):
        # Negative and wider-than-64-bit suffix labels fold as the
        # scalar ``acc ^ label`` does, modulo 2**64.
        batch = derive_seed_batch(seed, ("x",), np.array(ids), tuple(suffix))
        assert batch.tolist() == [derive_seed(seed, "x", i, *suffix) for i in ids]


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


_PCG_MULT = rng_module._PCG_MULT
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_RABS_MAX = (1 << 52) - 1


def _state_outputting(word: int, k: int) -> int:
    """A PCG64 state whose output ``rotr64(high ^ low, high >> 58)`` is ``word``."""
    rot = k % 64
    high = (rot << 58) | (0x9E3779B97F4A7 * (k + 1) & ((1 << 58) - 1))
    rotl = ((word << rot) | (word >> (64 - rot))) & _MASK64 if rot else word
    return (high << 64) | (high ^ rotl)


def states_starting_with(first_words, second_words=None):
    """``SeedSequence`` words of streams whose leading raw words are given.

    The state of the first word is any one that outputs it, and the
    seed lands there by inverting the two seeding steps.  A second word
    pins the increment too: ``inc = s' - M * s``, made odd by flipping
    the low bit of both halves of ``s'`` (which keeps its output).
    """
    second_words = second_words or [None] * len(first_words)
    rows = []
    for k, (word, after) in enumerate(zip(first_words, second_words)):
        state = _state_outputting(word, k)
        inc = (0x5DEECE66D << 1) | 1
        if after is not None:
            following = _state_outputting(after, k + 1)
            inc = (following - _PCG_MULT * state) & _MASK128
            if not inc & 1:
                following ^= 1 << 64 | 1
                inc = (following - _PCG_MULT * state) & _MASK128
        for _ in range(2):
            state = ((state - inc) * _PCG_MULT_INV) & _MASK128
        seed = (state - inc) & _MASK128
        initseq = inc >> 1
        rows.append([seed >> 64, seed & _MASK64, initseq >> 64, initseq & _MASK64])
    return np.array(rows, dtype=np.uint64)


def wedge_flip(idx: int, x: float) -> int:
    """The least 53-bit ``u`` numerator whose wedge test rejects ``x``.

    NumPy keeps a strip-``idx`` try iff ``(fi[idx-1] - fi[idx]) * u +
    fi[idx] < exp(-x*x/2)``, which is monotone in ``u``.
    """
    fi = _ziggurat_tables.FI
    bound = math.exp((-0.5 * x) * x)

    def rejects(j: int) -> bool:
        return (fi[idx - 1] - fi[idx]) * (j * 2.0**-53) + fi[idx] >= bound

    low, high = 0, 1 << 53
    while low < high:
        mid = (low + high) // 2
        if rejects(mid):
            high = mid
        else:
            low = mid + 1
    return low


def normal_block(states, columns, scale):
    out = np.empty((len(states), columns))
    rng_module._normal_block(states, out, scale)
    return out


def reference_normals(states, columns, scale):
    streams = rng_module.StreamBatch(states)
    return np.array([gen.normal(scale=scale, size=columns) for gen in streams])


LABELS = st.one_of(st.text(max_size=4), st.integers(0, 2**31))


class TestZigguratNormals:
    """``spawn_normal_rows`` against one ``Generator.normal`` per id."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ids=st.lists(st.integers(0, 10**9), min_size=1, max_size=12),
        columns=st.integers(1, 64),
        scale=st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
        prefix=st.lists(LABELS, max_size=2),
        suffix=st.lists(LABELS, max_size=2),
    )
    def test_rows_equal_generator_normal(
        self, seed, ids, columns, scale, prefix, suffix
    ):
        prefix, suffix = tuple(prefix), tuple(suffix)
        got = spawn_normal_rows(seed, prefix, np.asarray(ids), columns, scale, suffix)
        expected = np.array(
            [
                spawn(seed, *prefix, i, *suffix).normal(scale=scale, size=columns)
                for i in ids
            ]
        )
        assert got.shape == (len(ids), columns)
        assert got.tobytes() == expected.tobytes()

    def test_many_rows_reach_the_wedge_and_the_tail(self):
        ids = np.arange(20_000) * 7 + 3
        got = spawn_normal_rows(11, ("client-init",), ids, 16, scale=0.1)
        expected = np.array(
            [spawn(11, "client-init", i).normal(scale=0.1, size=16) for i in ids]
        )
        assert got.tobytes() == expected.tobytes()
        # Before a stream's first rejected word every word is a draw, so
        # that word is a real try: strip 0 sends it to the tail, any
        # other strip to the wedge test.
        words = spawn_batch(11, ("client-init",), ids).first_raw(
            np.arange(len(ids)), np.full(len(ids), 16)
        ).reshape(len(ids), 16)
        idx = (words & np.uint64(0xFF)).astype(np.int64)
        rabs = (words >> np.uint64(9)) & np.uint64(_RABS_MAX)
        rejected = rabs >= np.array(_ziggurat_tables.KI, dtype=np.uint64)[idx]
        rows = np.flatnonzero(rejected.any(axis=1))
        first = idx[rows, rejected[rows].argmax(axis=1)]
        assert (first == 0).sum() >= 20 and (first != 0).sum() >= 1000

    def test_every_strip_at_its_bounds(self):
        """Every table entry, at the bound where it decides the draw.

        ``ki[idx]`` and ``wi[idx]``: magnitudes either side of the
        acceptance bound, both signs.  ``fi[idx - 1]`` and ``fi[idx]``:
        rejected tries (at the bound and at the widest magnitude) whose
        wedge uniform sits one step either side of where the committed
        tables flip the test, so a table NumPy does not share flips one
        of the pair.
        """
        ki, wi = _ziggurat_tables.KI, _ziggurat_tables.WI
        first, second = [], []
        for idx in range(256):
            bound = min(ki[idx], _RABS_MAX)
            for rabs in sorted({0, max(bound - 1, 0), bound, _RABS_MAX}):
                for sign in (0, 1):
                    first.append((5 << 61) | (rabs << 9) | (sign << 8) | idx)
                    second.append(None)
            for rabs in sorted({bound, _RABS_MAX} if idx else ()):
                flip = wedge_flip(idx, rabs * wi[idx])
                for numerator in {max(flip - 1, 0), min(flip, (1 << 53) - 1)}:
                    first.append((rabs << 9) | idx)
                    second.append((numerator << 11) | 0x5A5)
        states = states_starting_with(first, second)
        streams = rng_module.StreamBatch(states)
        assert int(streams[0].bit_generator.random_raw()) == first[0]
        last = streams[len(first) - 1].bit_generator.random_raw(2)
        assert [int(w) for w in last] == [first[-1], second[-1]]
        for scale in (1.0, 0.25):
            got = normal_block(states, 3, scale)
            assert got.tobytes() == reference_normals(states, 3, scale).tobytes()

    def test_minus_zero_draw_scales_like_generator_normal(self):
        # rabs == 0 with the sign bit set draws -0.0 (strip 2 accepts 0);
        # Generator.normal returns 0.0 + scale * z, which is +0.0.
        states = states_starting_with([(1 << 8) | 2])
        z = rng_module.StreamBatch(states)[0].standard_normal(size=2)
        assert z[0] == 0.0 and np.signbit(z[0])
        for scale in (1.0, 3.0):
            got = normal_block(states, 2, scale)
            assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
            assert got.tobytes() == reference_normals(states, 2, scale).tobytes()

    def test_empty_shapes(self):
        assert spawn_normal_rows(1, ("x",), np.arange(0), 4).shape == (0, 4)
        assert spawn_normal_rows(1, ("x",), np.arange(3), 0).shape == (3, 0)
