"""Deterministic random-number utilities.

Every stochastic component in the library (dataset generation, user
sampling, negative sampling, attack initialisation) draws from a
``numpy.random.Generator`` seeded through this module, so that a whole
federated simulation is reproducible from a single integer seed.

The per-user paths give the same numbers without a ``Generator`` per
user.  The seed hash and ``SeedSequence`` pools are vectorised, and the
PCG64 words come from the LCG in closed form (jump-ahead) or stepped in
blocks.  :func:`spawn_batch` hands them to the cohort sampler,
:func:`spawn_first_uniform` maps one word per stream, and
:func:`spawn_normal_rows` replays NumPy's ziggurat on them.  Only rows
whose draw reaches the ziggurat's tail build a ``Generator``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import _ziggurat_tables

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


def _mix_labels(acc: int, labels) -> int:
    """Fold ``labels`` into a 64-bit accumulator, as :func:`derive_seed`."""
    for label in labels:
        if isinstance(label, str):
            for ch in label.encode("utf-8"):
                acc = ((acc ^ ch) * _MIX) & 0xFFFFFFFFFFFFFFFF
        else:
            acc = ((acc ^ int(label)) * _MIX) & 0xFFFFFFFFFFFFFFFF
        acc ^= acc >> 31
    return acc


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of labels.

    Labels may be integers (e.g. a user id, a round number) or strings
    (e.g. ``"negatives"``). The derivation is a simple splitmix-style
    hash: stable across processes and Python versions, unlike ``hash()``.
    """
    return _mix_labels((seed * _MIX) & 0xFFFFFFFFFFFFFFFF, labels) & 0x7FFFFFFF


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
            # Two's complement, as the scalar ``acc ^ label`` mod 2**64.
            acc = (acc ^ np.uint64(int(label) & 0xFFFFFFFFFFFFFFFF)) * mix
        return acc ^ (acc >> shift)

    with np.errstate(over="ignore"):
        # The prefix is the same for every id: fold it once, as an int.
        acc = _mix_labels((seed * _MIX) & 0xFFFFFFFFFFFFFFFF, prefix)
        acc = (np.asarray(ids, dtype=np.uint64) ^ np.uint64(acc)) * mix
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
    # The hash constant walks the same sequence for every seed, so it is
    # one scalar, and so are the pool entries no seed has reached yet.
    hash_const = _SS_INIT_A

    def hashmix(value, mult: np.uint32):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult
        value = value * hash_const
        return value ^ (value >> _SS_XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _SS_MIX_L - y * _SS_MIX_R
        return result ^ (result >> _SS_XSHIFT)

    with np.errstate(over="ignore"):
        pool = [hashmix(seeds, _SS_MULT_A)]
        pool += [hashmix(np.uint32(0), _SS_MULT_A) for _ in range(_SS_POOL_SIZE - 1)]
        for src in range(_SS_POOL_SIZE):
            for dst in range(_SS_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src], _SS_MULT_A))
        out = np.empty((len(seeds), n_words64), dtype=np.uint64)
        hash_const = _SS_INIT_B
        for word in range(n_words64):
            low = hashmix(pool[2 * word % _SS_POOL_SIZE], _SS_MULT_B)
            high = hashmix(pool[(2 * word + 1) % _SS_POOL_SIZE], _SS_MULT_B)
            np.left_shift(high, np.uint64(32), out=out[:, word], dtype=np.uint64)
            out[:, word] |= low
    return out


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


def _pcg64_factors(words: np.ndarray) -> np.ndarray:
    """``factors[half, (A, inc), stream]`` of ``PCG64(words[stream])``.

    ``words`` is a ``(streams, 4)`` array of ``SeedSequence`` words as
    :func:`_seed_sequence_states` produces them (the exact input NumPy's
    ``PCG64(seed)`` consumes: seed high/low then increment high/low).
    ``pcg64_srandom`` sets ``inc = 2 * initseq + 1`` and the state to
    ``A = seed + inc`` before its final step; both come back as their
    (high, low) uint64 halves on axis 0, matching :data:`_jump`.
    """
    one = np.uint64(1)
    factors = np.empty((2, 2, len(words)), dtype=np.uint64)
    inc_hi, inc_lo = factors[0, 1], factors[1, 1]
    np.bitwise_or(words[:, 2] << one, words[:, 3] >> np.uint64(63), out=inc_hi)
    np.bitwise_or(words[:, 3] << one, one, out=inc_lo)
    np.add(inc_lo, words[:, 1], out=factors[1, 0])
    np.add(inc_hi, words[:, 0], out=factors[0, 0])
    factors[0, 0] += factors[1, 0] < inc_lo
    return factors


def _jumped_states(jump: np.ndarray, factors: np.ndarray):
    """``M**n * A + G_n * inc (mod 2**128)`` as ``(high, low)`` halves.

    ``jump`` holds :data:`_jump` columns and ``factors`` the matching
    :func:`_pcg64_factors` entries, in equal shapes: both products are
    one stacked :func:`_mul128`.
    """
    hi, lo = _mul128(jump[0], jump[1], factors[0], factors[1])
    low = lo[0] + lo[1]
    high = hi[0] + hi[1]
    high += low < lo[1]
    return high, low


def _xsl_rr(high: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """PCG64's output word ``rotr64(high ^ low, high >> 58)``, into ``out``."""
    np.bitwise_xor(high, low, out=out)
    rot = high >> np.uint64(58)
    left = out << ((np.uint64(64) - rot) & np.uint64(63))
    out >>= rot
    out |= left


def _pcg64_words(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[j]`` ``next_uint64`` outputs of ``PCG64(words[j])``.

    ``next_uint64`` steps before it outputs, and seeding ends one step
    past ``A`` (:func:`_pcg64_factors`), so word ``k`` of a stream is the
    XSL-RR output (:func:`_xsl_rr`) of the state ``k + 2`` LCG steps past
    ``A``: ``M**(k+2) * A + G_(k+2) * inc`` (:func:`_jumped_states`
    against :func:`_jump_table`).  The whole ``(stream, word)`` grid is
    flat and goes through in :data:`_JUMP_CHUNK`-word passes; exactness
    against ``PCG64.random_raw`` is asserted in the test suite.
    """
    total = int(counts.sum())
    out = np.empty(total, dtype=np.uint64)
    if not total:
        return out
    table = _jump_table(int(counts.max()) + 2)
    factors = _pcg64_factors(words)
    owner = np.repeat(np.arange(len(counts)), counts)
    steps = np.arange(2, total + 2) - np.repeat(np.cumsum(counts) - counts, counts)
    for start in range(0, total, _JUMP_CHUNK):
        part = slice(start, start + _JUMP_CHUNK)
        high, low = _jumped_states(
            np.take(table, steps[part], axis=2), np.take(factors, owner[part], axis=2)
        )
        _xsl_rr(high, low, out[part])
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


# ----------------------------------------------------------------------
# Vectorised ziggurat normals from stepped PCG64 words
# ----------------------------------------------------------------------

#: Strip tables indexed by a word's low nine bits (strip ``idx`` plus
#: the sign bit), so one lookup gives a draw's bound and signed scale:
#: ``-(rabs * wi)`` and ``rabs * -wi`` are the same double, -0.0 too.
_ZIG_KI = np.array(_ziggurat_tables.KI * 2, dtype=np.uint64)
_ZIG_WI = np.concatenate([_ziggurat_tables.WI, np.negative(_ziggurat_tables.WI)])
_ZIG_FI = np.array(_ziggurat_tables.FI)
#: ``fi[idx - 1] - fi[idx]``, the wedge test's slope (unused at idx 0).
_ZIG_FI_STEP = np.concatenate([[0.0], _ZIG_FI[:-1] - _ZIG_FI[1:]])
_ZIG_MAGNITUDE = np.uint64((1 << 52) - 1)

#: Streams per block of :func:`spawn_normal_rows`, and lanes x streams
#: per vectorised LCG step: the step's temporaries stay 64 KiB, the
#: size :data:`_JUMP_CHUNK` keeps below glibc's mmap threshold.
_ZIG_BLOCK = 8192


def _lcg_multiplier(n: int) -> tuple[np.uint64, ...]:
    """``M**n`` as ``(high, low, low & 0xFFFFFFFF, low >> 32)``."""
    table = _jump_table(n + 1)
    high, low = table[0, 0, n], table[1, 0, n]
    return high, low, low & _U64_LOW32, low >> _U64_32


def _lcg_step(high, low, mult, inc_high, inc_low) -> None:
    """``state = mult * state + inc (mod 2**128)`` in place.

    The high half of ``low * mult_low`` is schoolbook on 32-bit halves
    with the carries folded in as they arise; every other partial
    product only needs its wrapped low 64 bits.
    """
    m_high, m_low, m_low_lo, m_low_hi = mult
    a_lo = low & _U64_LOW32
    a_hi = low >> _U64_32
    carry = a_lo * m_low_lo
    carry >>= _U64_32
    mid = a_hi * m_low_lo
    mid += carry
    carry = mid & _U64_LOW32
    mid >>= _U64_32
    a_lo *= m_low_hi
    a_lo += carry
    a_lo >>= _U64_32
    a_hi *= m_low_hi
    a_hi += mid
    a_hi += a_lo
    high *= m_low
    high += a_hi
    high += low * m_high
    low *= m_low
    low += inc_low
    high += inc_high
    high += low < inc_low


def _lcg_words(state: tuple[np.ndarray, ...], count: int) -> np.ndarray:
    """The next ``count`` words of each stream, as a ``(count, streams)`` array.

    ``state`` is ``(high, low, inc_high, inc_low)``; the state halves
    are stepped in place, so a later call continues where this stopped.
    """
    high, low, inc_high, inc_low = state
    mult = _lcg_multiplier(1)
    words = np.empty((count, len(high)), dtype=np.uint64)
    for word in words:
        _lcg_step(high, low, mult, inc_high, inc_low)
        _xsl_rr(high, low, word)
    return words


def _ziggurat_decode(words: np.ndarray, x: np.ndarray, rejected: np.ndarray) -> None:
    """Each word's first ziggurat try, into ``x`` and ``rejected``.

    Word ``w`` is strip ``idx = w & 0xff``, sign bit 8 and the 52-bit
    magnitude ``rabs`` (bits 9-60): the draw is ``x = ±rabs * wi[idx]``,
    taken at once iff ``rabs < ki[idx]`` (about 98.5 % of words).
    """
    low9 = (words & np.uint64(0x1FF)).view(np.int64)
    rabs = words >> np.uint64(9)
    rabs &= _ZIG_MAGNITUDE
    np.greater_equal(rabs, _ZIG_KI.take(low9), out=rejected)
    np.multiply(rabs.view(np.int64), _ZIG_WI.take(low9), out=x)


def _spare_words(columns: int) -> int:
    """Words past ``columns`` each stream steps up front.

    A rejection costs a draw one or two extra words (~2 % of draws), so
    with these few most rows resolve without a second stepping pass.
    """
    return 2 + columns // 16


def _ziggurat_rows(words, x, rejected, state, out) -> np.ndarray:
    """Each stream's first ``columns`` draws from its leading words.

    ``words`` is ``(width, streams)``, ``x`` and ``rejected`` its
    :func:`_ziggurat_decode`, and ``state`` each stream's PCG64 state
    after its last word plus its increment.  NumPy's draw takes one word
    when accepted; a rejected one takes the next word as the wedge
    test's uniform ``u`` and is kept iff ``(fi[idx-1] - fi[idx]) * u +
    fi[idx] < exp(-x*x/2)`` (libm's ``exp``, as in NumPy's C), else the
    draw starts over.  So the words that yield no value (*skips*: each
    test's ``u`` and each failed try's own word) shift a stream's later
    draws along its words: row ``k`` of ``out`` gets stream ``k``'s
    words with the skips removed, cut at ``columns``.  A stream that
    runs out of words steps more from ``state`` and recurses; a stream
    whose draw reaches strip 0's tail (``idx == 0`` rejected, ~0.4 % of
    16-draw rows) is returned for the caller to draw on a ``Generator``.
    """
    width, streams = words.shape
    columns = out.shape[1]
    pos, row = np.divmod(np.flatnonzero(rejected), streams)
    if not len(pos):
        out[...] = x[:columns].T
        return pos
    order = np.argsort(row * width + pos)
    pos, row = pos[order], row[order]
    # A rejected word right after a rejected try is that try's ``u``, not
    # a try of its own: clear such runs until no try changes.
    follows = (row[1:] == row[:-1]) & (pos[1:] == pos[:-1] + 1)
    if follows.any():
        tried = np.ones(len(pos), dtype=bool)
        while True:
            again = np.ones_like(tried)
            np.logical_not(follows & tried[:-1], out=again[1:])
            if np.array_equal(again, tried):
                break
            tried = again
        pos, row = pos[tried], row[tried]
    idx = (words[pos, row] & np.uint64(0xFF)).view(np.int64)
    # A try stops its stream's walk at the tail, or when its ``u`` is
    # past the last word.
    stopped = (idx == 0) | (pos == width - 1)
    t_pos, t_row, t_idx = pos[~stopped], row[~stopped], idx[~stopped]
    u = (words[t_pos + 1, t_row] >> np.uint64(11)).view(np.int64).astype(np.float64)
    u *= 1.0 / 9007199254740992.0
    t_x = x[t_pos, t_row]
    density = np.fromiter(
        map(math.exp, ((-0.5 * t_x) * t_x).tolist()), np.float64, len(t_x)
    )
    failed = _ZIG_FI_STEP.take(t_idx) * u + _ZIG_FI.take(t_idx) >= density
    s_row, s_pos = row[stopped], pos[stopped]
    first = np.ones(len(s_row), dtype=bool)
    np.not_equal(s_row[1:], s_row[:-1], out=first[1:])
    stop = np.full(streams, width)
    stop[s_row[first]] = s_pos[first]
    skip_pos = np.concatenate([t_pos + 1, t_pos[failed]])
    skip_row = np.concatenate([t_row, t_row[failed]])
    live = skip_pos < stop[skip_row]
    skip_pos, skip_row = skip_pos[live], skip_row[live]
    made = stop - np.bincount(skip_row, minlength=streams)
    short = made < columns
    # Rows that made ``columns`` draws: keep each one's non-skipped words
    # up to its last draw, ``columns - 1`` plus the skips before it.  A
    # short row keeps its first ``columns`` words; it is redrawn below.
    live = ~short[skip_row]
    skip_pos, skip_row = skip_pos[live], skip_row[live]
    order = np.argsort(skip_row * width + skip_pos)
    skip_pos, skip_row = skip_pos[order], skip_row[order]
    rank = np.arange(len(skip_pos)) - np.searchsorted(skip_row, skip_row)
    last = np.bincount(skip_row[skip_pos - rank < columns], minlength=streams)
    last += columns - 1
    kept = np.less_equal(np.arange(width)[:, None], last)
    kept[skip_pos, skip_row] = False
    out[...] = x.T[kept.T].reshape(streams, columns)
    short = np.flatnonzero(short)
    ended = stop[short]
    tail = ended < width
    tail[tail] = (words[ended[tail], short[tail]] & np.uint64(0xFF)) == 0
    tails, more = short[tail], short[~tail]
    if not len(more):
        return tails
    state = tuple(part[more] for part in state)
    extra = _lcg_words(state, int((columns - made[more]).max()) + _spare_words(columns))
    extra_x = np.empty(extra.shape)
    extra_rejected = np.empty(extra.shape, dtype=bool)
    _ziggurat_decode(extra, extra_x, extra_rejected)
    redrawn = np.empty((len(more), columns))
    more_tails = _ziggurat_rows(
        np.concatenate([words[:, more], extra]),
        np.concatenate([x[:, more], extra_x]),
        np.concatenate([rejected[:, more], extra_rejected]),
        state,
        redrawn,
    )
    out[more] = redrawn
    return np.concatenate([tails, more[more_tails]])


def _normal_block(states: np.ndarray, out: np.ndarray, scale: float) -> None:
    """``out[k] = PCG64(states[k])``'s ``normal(scale=scale, size=columns)``.

    ``states`` are ``SeedSequence`` words (:func:`_seed_sequence_states`)
    of at most :data:`_ZIG_BLOCK` streams.  Each stream's leading words
    come from stepping its LCG.  A step yields ``lanes`` interleaved
    words per stream, so that it is a pass of about :data:`_ZIG_BLOCK`
    words however few the streams: lane ``j`` starts at word ``j`` by
    jump-ahead, and a step jumps ``lanes`` words (``M**lanes * s +
    G_lanes * inc``).  :func:`_ziggurat_rows` turns the words into
    draws; only rows that reach the ``idx == 0`` tail build a
    ``Generator``.  The scale step is ``Generator.normal``'s own
    ``0.0 + scale * z``, whose ``+ 0.0`` turns a ``-0.0`` draw into
    ``+0.0``.
    """
    streams, columns = out.shape
    need = columns + _spare_words(columns)
    steps = -(-need // min(need, max(1, _ZIG_BLOCK // streams)))
    lanes = -(-need // steps)
    table = _jump_table(lanes + 2)
    factors = _pcg64_factors(states)
    shape = (2, 2, lanes, streams)
    high, low = _jumped_states(
        np.broadcast_to(table[:, :, 2 : lanes + 2, None], shape),
        np.broadcast_to(factors[:, :, None], shape),
    )
    inc_high, inc_low = factors[0, 1], factors[1, 1]
    step_inc = (inc_high, inc_low)
    if lanes > 1 and steps > 1:
        g_high = np.full(streams, table[0, 1, lanes])
        step_inc = _mul128(g_high, np.full(streams, table[1, 1, lanes]), *step_inc)
    mult = _lcg_multiplier(lanes)
    words = np.empty((steps, lanes, streams), dtype=np.uint64)
    x = np.empty(words.shape)
    rejected = np.empty(words.shape, dtype=bool)
    for step in range(steps):
        if step:
            _lcg_step(high, low, mult, *step_inc)
        _xsl_rr(high, low, words[step])
        _ziggurat_decode(words[step], x[step], rejected[step])
    width = steps * lanes
    tails = _ziggurat_rows(
        words.reshape(width, streams),
        x.reshape(width, streams),
        rejected.reshape(width, streams),
        (high[-1], low[-1], inc_high, inc_low),
        out,
    )
    for row in tails.tolist():
        StreamBatch(states)[row].standard_normal(out=out[row])
    out *= scale
    out += 0.0


def spawn_normal_rows(
    seed: int,
    prefix: tuple[int | str, ...],
    ids: np.ndarray,
    columns: int,
    scale: float = 1.0,
    suffix: tuple[int | str, ...] = (),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stack of per-stream normal draws: one ``(columns,)`` row per id.

    Row ``k`` equals ``spawn(seed, *prefix, ids[k], *suffix).normal(
    scale=scale, size=columns)`` bit for bit, with no per-user
    ``Generator``: NumPy's ziggurat (Marsaglia & Tsang, 2000; the tables
    are :mod:`repro._ziggurat_tables`) runs vectorised over every
    stream's PCG64 words (:func:`_normal_block`), in blocks of
    :data:`_ZIG_BLOCK` ids so temporaries do not grow with the user
    count.  The seed hashing and ``SeedSequence`` pools are vectorised
    as in :func:`spawn_batch`.  This is what makes struct-of-arrays
    client-state construction fast at production user counts.  ``out``,
    a C-contiguous ``(len(ids), columns)`` float64 array, receives the
    rows in place of a new one (a store's own segment, say).
    """
    ids = np.asarray(ids)
    if out is None:
        out = np.empty((len(ids), columns))
    if columns:
        for start in range(0, len(ids), _ZIG_BLOCK):
            part = slice(start, start + _ZIG_BLOCK)
            seeds = derive_seed_batch(seed, prefix, ids[part], suffix)
            _normal_block(_seed_sequence_states(seeds), out[part], scale)
    return out
