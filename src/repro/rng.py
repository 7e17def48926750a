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
        that stream would consume first.  No ``PCG64`` is built: every
        word is one closed-form jump ahead of its stream's seeded state
        (:func:`_pcg64_words`).
        """
        return _pcg64_words(self.words[rows], np.asarray(counts, dtype=np.int64))


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
# Vectorised PCG64 (XSL-RR 128/64) by LCG jump-ahead
# ----------------------------------------------------------------------

#: The 128-bit LCG multiplier of PCG64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64_LOW32 = np.uint64(0xFFFFFFFF)
_U64_32 = np.uint64(32)
_U64_MASK = (1 << 64) - 1

#: Words per vectorised pass of :func:`_pcg64_words`.  Its stacked
#: temporaries (two products per word) stay 64 KiB however many words a
#: call asks for: under glibc's default 128 KiB mmap threshold, so they
#: are recycled heap blocks instead of fresh mapped pages every pass.
_JUMP_CHUNK = 4096

#: Jump-ahead table, grown on demand: ``_jump[:, 0, n]`` holds ``M**n``
#: and ``_jump[:, 1, n]`` holds ``G_n = sum(M**i for i < n)`` (mod
#: ``2**128``), each as its (high, low) uint64 halves on axis 0, so
#: ``n`` LCG steps take a state ``x`` to ``M**n * x + G_n * inc``.
#: A pure function of ``n``: growth swaps in a longer copy and never
#: writes a table a caller may still hold, so threads may share it.
_jump = np.array([[[0], [0]], [[1], [0]]], dtype=np.uint64)


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128-bit product as ``(high, low)`` uint64 arrays.

    Schoolbook on 32-bit halves, each partial product written over a
    half it no longer needs, so a pass holds few temporaries.
    """
    a_lo = a & _U64_LOW32
    a_hi = a >> _U64_32
    b_lo = b & _U64_LOW32
    b_hi = b >> _U64_32
    lh = a_lo * b_hi
    ll = a_lo
    ll *= b_lo
    hl = b_lo
    hl *= a_hi
    hh = a_hi
    hh *= b_hi
    mid = ll >> _U64_32
    mid += lh & _U64_LOW32
    mid += hl & _U64_LOW32
    ll &= _U64_LOW32
    low = mid << _U64_32
    low |= ll
    high = hh
    high += lh >> _U64_32
    high += hl >> _U64_32
    high += mid >> _U64_32
    return high, low


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on ``(high, low)`` uint64 halves."""
    high, low = _mul64(a_lo, b_lo)
    high += a_lo * b_hi
    high += a_hi * b_lo
    return high, low


def _jump_table(size: int) -> np.ndarray:
    """:data:`_jump` with at least ``size`` columns, doubling as needed.

    Columns ``L + j`` follow from ``M**(L+j) = M**L * M**j`` and
    ``G_(L+j) = G_L + M**L * G_j``: one vectorised 128-bit product
    over the whole table.
    """
    global _jump
    table = _jump
    while table.shape[2] < size:
        last_m = (int(table[0, 0, -1]) << 64) | int(table[1, 0, -1])
        last_g = (int(table[0, 1, -1]) << 64) | int(table[1, 1, -1])
        power = last_m * _PCG_MULT % (1 << 128)  # M**L
        base = (last_g + last_m) % (1 << 128)  # G_L
        hi, lo = _mul128(
            np.uint64(power >> 64), np.uint64(power & _U64_MASK), table[0], table[1]
        )
        base_lo = np.uint64(base & _U64_MASK)
        lo[1] += base_lo
        hi[1] += np.uint64(base >> 64)
        hi[1] += lo[1] < base_lo
        table = np.concatenate([table, np.stack([hi, lo])], axis=2)
    _jump = table
    return table


def _pcg64_words(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[j]`` ``next_uint64`` outputs of ``PCG64(words[j])``.

    ``words`` is a ``(streams, 4)`` array of ``SeedSequence`` words as
    :func:`_seed_sequence_states` produces them (the exact input NumPy's
    ``PCG64(seed)`` consumes: seed high/low then increment high/low).
    ``pcg64_srandom`` sets ``inc = 2 * initseq + 1`` and the state to
    ``A = seed + inc`` before its final step, and ``next_uint64`` steps
    before it outputs, so word ``k`` of a stream is the XSL-RR output
    ``rotr64(hi ^ lo, hi >> 58)`` of the state ``k + 2`` LCG steps past
    ``A``: ``M**(k+2) * A + G_(k+2) * inc (mod 2**128)``, both products
    taken as one stacked :func:`_mul128` against :func:`_jump_table`.
    The whole ``(stream, word)`` grid is flat and goes through in
    :data:`_JUMP_CHUNK`-word passes; exactness against
    ``PCG64.random_raw`` is asserted in the test suite.
    """
    total = int(counts.sum())
    out = np.empty(total, dtype=np.uint64)
    if not total:
        return out
    table = _jump_table(int(counts.max()) + 2)
    one = np.uint64(1)
    # factors[half, (A, inc), stream], matching the table's layout.
    factors = np.empty((2, 2, len(words)), dtype=np.uint64)
    inc_hi, inc_lo = factors[0, 1], factors[1, 1]
    np.bitwise_or(words[:, 2] << one, words[:, 3] >> np.uint64(63), out=inc_hi)
    np.bitwise_or(words[:, 3] << one, one, out=inc_lo)
    np.add(inc_lo, words[:, 1], out=factors[1, 0])
    np.add(inc_hi, words[:, 0], out=factors[0, 0])
    factors[0, 0] += factors[1, 0] < inc_lo
    owner = np.repeat(np.arange(len(counts)), counts)
    steps = np.arange(2, total + 2) - np.repeat(np.cumsum(counts) - counts, counts)
    for start in range(0, total, _JUMP_CHUNK):
        part = slice(start, start + _JUMP_CHUNK)
        jump = np.take(table, steps[part], axis=2)
        state = np.take(factors, owner[part], axis=2)
        hi, lo = _mul128(jump[0], jump[1], state[0], state[1])
        low = lo[0] + lo[1]
        high = hi[0] + hi[1]
        high += low < lo[1]
        value = high ^ low
        rot = high >> np.uint64(58)
        out[part] = (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))
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
    word itself is the one-word case of :func:`_pcg64_words` — no
    per-stream ``Generator`` objects at all, which is what makes
    per-client scalar draws (e.g. the inconsistent-learning-rate
    scenario) O(vector ops) instead of O(users) Python calls.
    """
    words = _seed_sequence_states(derive_seed_batch(seed, prefix, ids, suffix))
    raw = _pcg64_words(words, np.ones(len(words), dtype=np.int64))
    doubles = (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return low + (high - low) * doubles
