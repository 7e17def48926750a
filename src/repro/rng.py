"""Deterministic random-number utilities.

Every stochastic component in the library (dataset generation, user
sampling, negative sampling, attack initialisation) draws from a
``numpy.random.Generator`` seeded through this module, so that a whole
federated simulation is reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "derive_seed",
    "derive_seed_batch",
    "StreamBatch",
    "spawn_batch",
    "spawn_first_uniform",
    "spawn_normal_rows",
]

#: Large prime used to mix stream labels into seeds.
_MIX = 0x9E3779B97F4A7C15


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a ``numpy.random.Generator`` from an integer seed.

    ``None`` produces a non-deterministic generator (fresh OS entropy);
    any integer produces a reproducible PCG64 stream.
    """
    return np.random.default_rng(seed)


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of labels.

    Labels may be integers (e.g. a user id, a round number) or strings
    (e.g. ``"negatives"``). The derivation is a simple splitmix-style
    hash: stable across processes and Python versions, unlike ``hash()``.
    """
    acc = (seed * _MIX) & 0xFFFFFFFFFFFFFFFF
    for label in labels:
        if isinstance(label, str):
            for ch in label.encode("utf-8"):
                acc = ((acc ^ ch) * _MIX) & 0xFFFFFFFFFFFFFFFF
        else:
            acc = ((acc ^ int(label)) * _MIX) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 31
    return acc & 0x7FFFFFFF


def spawn(seed: int, *labels: int | str) -> np.random.Generator:
    """Create an independent generator for a labelled sub-stream."""
    return make_rng(derive_seed(seed, *labels))


def derive_seed_batch(
    seed: int,
    prefix: tuple[int | str, ...],
    ids: np.ndarray,
    suffix: tuple[int | str, ...] = (),
) -> np.ndarray:
    """Vectorised :func:`derive_seed` over one integer label position.

    Returns ``derive_seed(seed, *prefix, id, *suffix)`` for every entry
    of ``ids`` as an int64 array, bit-identical to the scalar function.
    The batch engine uses this to derive all sampled clients' per-round
    seeds in one shot instead of hashing label tuples client by client.
    """
    mix = np.uint64(_MIX)
    shift = np.uint64(31)

    def _mix_label(acc: np.ndarray, label: int | str) -> np.ndarray:
        if isinstance(label, str):
            for ch in label.encode("utf-8"):
                acc = (acc ^ np.uint64(ch)) * mix
        else:
            acc = (acc ^ np.uint64(int(label))) * mix
        return acc ^ (acc >> shift)

    with np.errstate(over="ignore"):
        acc = np.full(len(ids), (seed * _MIX) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        for label in prefix:
            acc = _mix_label(acc, label)
        acc = (acc ^ np.asarray(ids, dtype=np.uint64)) * mix
        acc = acc ^ (acc >> shift)
        for label in suffix:
            acc = _mix_label(acc, label)
    return (acc & np.uint64(0x7FFFFFFF)).astype(np.int64)


#: Constants of NumPy's ``SeedSequence`` entropy-mixing hash
#: (O'Neill's seed_seq algorithm); used to vectorise seeding below.
_SS_XSHIFT = np.uint32(16)
_SS_INIT_A = np.uint32(0x43B0D7E5)
_SS_MULT_A = np.uint32(0x931E8875)
_SS_INIT_B = np.uint32(0x8B51F9DD)
_SS_MULT_B = np.uint32(0x58F38DED)
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_SS_POOL_SIZE = 4


def _seed_sequence_states(seeds: np.ndarray, n_words64: int = 4) -> np.ndarray:
    """Vectorised ``SeedSequence(seed).generate_state(n_words64, uint64)``.

    Replicates NumPy's entropy-pool hash bit for bit for scalar 32-bit
    entropy (which :func:`derive_seed` always produces), for *all*
    seeds at once — the per-seed Python cost of constructing thousands
    of ``SeedSequence`` objects is what this avoids.  Exactness is
    asserted against ``np.random.SeedSequence`` in the test suite.
    """
    seeds = np.asarray(seeds, dtype=np.uint32)
    count = len(seeds)
    with np.errstate(over="ignore"):
        hash_const = np.full(count, _SS_INIT_A, dtype=np.uint32)

        def hashmix(value: np.ndarray) -> np.ndarray:
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _SS_MULT_A
            value = value * hash_const
            return value ^ (value >> _SS_XSHIFT)

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            result = x * _SS_MIX_L - y * _SS_MIX_R
            return result ^ (result >> _SS_XSHIFT)

        pool = np.empty((count, _SS_POOL_SIZE), dtype=np.uint32)
        pool[:, 0] = hashmix(seeds)
        for index in range(1, _SS_POOL_SIZE):
            pool[:, index] = hashmix(np.zeros(count, dtype=np.uint32))
        for src in range(_SS_POOL_SIZE):
            for dst in range(_SS_POOL_SIZE):
                if src != dst:
                    pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src]))

        n32 = 2 * n_words64
        out = np.empty((count, n32), dtype=np.uint32)
        hash_const = np.full(count, _SS_INIT_B, dtype=np.uint32)
        for dst in range(n32):
            value = pool[:, dst % _SS_POOL_SIZE] ^ hash_const
            hash_const = hash_const * _SS_MULT_B
            value = value * hash_const
            out[:, dst] = value ^ (value >> _SS_XSHIFT)
    out64 = out.astype(np.uint64)
    return out64[:, 0::2] | (out64[:, 1::2] << np.uint64(32))


class _PrecomputedSeedSequence(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator pre-hashed ``SeedSequence`` state words.

    Constructing ``PCG64(seed)`` spends ~10us hashing the seed through
    a Python ``SeedSequence``; with the hash vectorised over a whole
    round's clients (:func:`_seed_sequence_states`) this shim feeds
    each ``PCG64`` its precomputed words in ~1us instead.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


class StreamBatch:
    """One private PCG64 stream per id, held as ``SeedSequence`` words.

    What :func:`spawn_batch` returns: a sized, indexable batch over the
    ``(n, 4)`` state words.  No ``Generator`` exists until a caller
    indexes or iterates the batch — the cohort sampler reads each
    stream's leading raw words through :meth:`first_raw` and never
    builds one for the clients it serves.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index: int) -> np.random.Generator:
        """A fresh generator at the start of stream ``index``."""
        return np.random.Generator(
            np.random.PCG64(_PrecomputedSeedSequence(self.words[index]))
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))

    def first_raw(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The first ``counts[j]`` raw 64-bit outputs of stream ``rows[j]``.

        Concatenated in ``rows`` order — the words a ``Generator`` on
        that stream would consume first.
        """
        pcg = np.random.PCG64
        shim = _PrecomputedSeedSequence(None)
        chunks = []
        for state, count in zip(self.words[rows], counts.tolist()):
            shim._state = state
            chunks.append(pcg(shim).random_raw(count))
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)


def spawn_batch(
    seed: int,
    prefix: tuple[int | str, ...],
    ids: np.ndarray,
    suffix: tuple[int | str, ...] = (),
) -> StreamBatch:
    """One independent stream per id, matching per-id :func:`spawn`.

    ``spawn_batch(s, ("client-round",), ids, (r,))[k]`` produces the
    exact stream of ``spawn(s, "client-round", ids[k], r)``.
    """
    seeds = derive_seed_batch(seed, prefix, ids, suffix)
    return StreamBatch(_seed_sequence_states(seeds))


def spawn_normal_rows(
    seed: int,
    prefix: tuple[int | str, ...],
    ids: np.ndarray,
    columns: int,
    scale: float = 1.0,
    suffix: tuple[int | str, ...] = (),
) -> np.ndarray:
    """Stack of per-stream normal draws: one ``(columns,)`` row per id.

    Row ``k`` equals ``spawn(seed, *prefix, ids[k], *suffix).normal(
    scale=scale, size=columns)`` bit for bit: the seed hashing and
    ``SeedSequence`` entropy pools are fully vectorised, each stream's
    ziggurat draws fill its preallocated row directly, and the scale is
    applied as one whole-matrix multiply (``scale * z`` is the exact
    per-element arithmetic of ``Generator.normal`` with ``loc=0``).
    The per-user cost is one ``PCG64`` construction plus one
    ``standard_normal`` fill — several times cheaper than the
    ``spawn`` + ``normal`` pair, which is what makes struct-of-arrays
    client-state construction fast at production user counts.
    """
    states = _seed_sequence_states(derive_seed_batch(seed, prefix, ids, suffix))
    out = np.empty((len(ids), columns))
    pcg = np.random.PCG64
    gen = np.random.Generator
    shim = _PrecomputedSeedSequence(None)
    f64 = np.float64
    for row, state in zip(out, states):
        shim._state = state
        gen(pcg(shim)).standard_normal(None, f64, row)
    if scale != 1.0:
        out *= scale
    return out


# ----------------------------------------------------------------------
# Vectorised PCG64 (XSL-RR 128/64) for single-draw streams
# ----------------------------------------------------------------------

#: The 128-bit LCG multiplier of PCG64, split into 64-bit halves.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_U64_LOW32 = np.uint64(0xFFFFFFFF)
_U64_32 = np.uint64(32)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128-bit product as ``(high, low)`` uint64 arrays."""
    a_lo = a & _U64_LOW32
    a_hi = a >> _U64_32
    b_lo = b & _U64_LOW32
    b_hi = b >> _U64_32
    with np.errstate(over="ignore"):
        ll = a_lo * b_lo
        lh = a_lo * b_hi
        hl = a_hi * b_lo
        hh = a_hi * b_hi
        mid = (ll >> _U64_32) + (lh & _U64_LOW32) + (hl & _U64_LOW32)
        low = (mid << _U64_32) | (ll & _U64_LOW32)
        high = hh + (lh >> _U64_32) + (hl >> _U64_32) + (mid >> _U64_32)
    return high, low


def _pcg64_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 128-bit LCG step: ``state = state * MULT + inc (mod 2**128)``."""
    with np.errstate(over="ignore"):
        prod_hi, prod_lo = _mul64(lo, _PCG_MULT_LO)
        prod_hi = prod_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        new_lo = prod_lo + inc_lo
        carry = (new_lo < prod_lo).astype(np.uint64)
        new_hi = prod_hi + inc_hi + carry
    return new_hi, new_lo


def _pcg64_first_raw(words: np.ndarray) -> np.ndarray:
    """First ``next_uint64`` output of ``PCG64`` seeded from state words.

    ``words`` is the ``(count, 4)`` array of ``SeedSequence`` words that
    :func:`_seed_sequence_states` produces (the exact input NumPy's
    ``PCG64(seed)`` consumes: seed high/low then increment high/low).
    Replicates ``pcg64_srandom`` plus one generate step of the XSL-RR
    output function, vectorised over all streams; exactness against
    ``PCG64.random_raw`` is asserted in the test suite.
    """
    s_hi, s_lo = words[:, 0].copy(), words[:, 1].copy()
    i_hi, i_lo = words[:, 2], words[:, 3]
    one = np.uint64(1)
    with np.errstate(over="ignore"):
        inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
        inc_lo = (i_lo << one) | one
        # srandom: state = 0; step (-> inc); state += seed; step.
        acc_lo = inc_lo + s_lo
        carry = (acc_lo < inc_lo).astype(np.uint64)
        acc_hi = inc_hi + s_hi + carry
        hi, lo = _pcg64_step(acc_hi, acc_lo, inc_hi, inc_lo)
        # next64: step again, then output XSL-RR: rotr64(hi ^ lo, hi >> 58).
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        value = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def spawn_first_uniform(
    seed: int,
    prefix: tuple[int | str, ...],
    ids: np.ndarray,
    low: float = 0.0,
    high: float = 1.0,
    suffix: tuple[int | str, ...] = (),
) -> np.ndarray:
    """Vectorised first ``uniform(low, high)`` draw of every stream.

    Entry ``k`` equals ``spawn(seed, *prefix, ids[k], *suffix).uniform(
    low, high)`` bit for bit: ``Generator.uniform`` maps one raw PCG64
    word to ``low + (high - low) * ((raw >> 11) * 2**-53)``, and the raw
    word itself comes from the vectorised PCG64 above — no per-stream
    ``Generator`` objects at all, which is what makes per-client scalar
    draws (e.g. the inconsistent-learning-rate scenario) O(vector ops)
    instead of O(users) Python calls.
    """
    words = _seed_sequence_states(derive_seed_batch(seed, prefix, ids, suffix))
    raw = _pcg64_first_raw(words)
    doubles = (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return low + (high - low) * doubles
