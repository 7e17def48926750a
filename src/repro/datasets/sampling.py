"""Negative sampling and per-round local batch construction.

Each client's private training set ``D_i`` is its interacted items
``D_i+`` plus ``q`` times as many sampled uninteracted items ``D_i-``
(Section III-A; the paper uses ``q = 1`` by default and studies larger
``q`` in Section VI-G and supplementary B).

:func:`sample_negatives_batch` / :func:`sample_local_batches` are the
cohort-wide sampler every caller uses (benign BCE and BPR rounds,
evaluation negatives).  It takes the cohort's positives as one CSR
pair ``(lengths, flat)``.  Each client still owns its private RNG
stream, and its rows are bit for bit those of the scalar per-client
:func:`sample_negatives` (and of the scalar batch oracle in
``tests/reference/``, which the reference loop engine runs), but the
draw, the rejection filter and the packing into ragged row stacks
(client ``k`` owns the contiguous row segment delimited by
``lengths`` — a CSR-style layout that, unlike padding to the longest
client, wastes nothing under long-tail activity) are each one NumPy
pass over the whole cohort.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.rng import StreamBatch

__all__ = [
    "sample_negatives",
    "sample_negatives_batch",
    "sample_local_batches",
]


def sample_negatives(
    rng: np.random.Generator,
    positive_items: np.ndarray,
    num_items: int,
    count: int,
) -> np.ndarray:
    """Sample ``count`` item ids not present in ``positive_items``.

    Uses rejection sampling with a vectorised fast path, falling back
    to explicit complement enumeration when negatives are scarce
    (e.g. very active users in a small catalogue).
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    positives = set(positive_items.tolist())
    available = num_items - len(positives)
    if available <= 0:
        return np.empty(0, dtype=np.int64)
    if count >= available:
        pool = np.array(
            [j for j in range(num_items) if j not in positives], dtype=np.int64
        )
        return pool if count >= len(pool) else rng.choice(pool, size=count, replace=False)

    # Fast path: oversample, filter, top up if unlucky.
    out: list[int] = []
    seen: set[int] = set()
    need = count
    while need > 0:
        draw = rng.integers(0, num_items, size=max(2 * need, 8))
        for j in draw:
            j = int(j)
            if j in positives or j in seen:
                continue
            seen.add(j)
            out.append(j)
            need -= 1
            if need == 0:
                break
    return np.asarray(out, dtype=np.int64)


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def sample_negatives_batch(
    streams: StreamBatch,
    num_pos: np.ndarray,
    flat_positives: np.ndarray,
    num_items: int,
    counts: np.ndarray,
    fallback: Callable[
        [np.random.Generator, np.ndarray, int, int], np.ndarray
    ] = sample_negatives,
) -> tuple[np.ndarray, np.ndarray]:
    """Every client's negatives at once, each from its private stream.

    Client ``k``'s positives are the ``num_pos[k]`` ids of its segment
    of ``flat_positives`` (one CSR pair).
    Returns ``(negatives, num_neg)``: the flat negatives in client
    order and how many each client received.  Client ``k``'s slice is
    ``fallback(streams[k], positives_k, num_items, counts[k])`` bit for
    bit — by default the scalar :func:`sample_negatives` — but no
    ``Generator`` is built for the clients the cohort-wide rule can
    serve:

    1. *Draw.*  ``sample_negatives`` opens with ``rng.integers(0,
       num_items, size)``, ``size = max(2 * count, 8)``.  For a range
       that fits 32 bits NumPy cuts each raw PCG64 word into its low
       then its high half and maps a half ``x`` to ``(x * num_items)
       >> 32`` (Lemire's bounded integers).  ``size`` is even, so the
       draw is exactly the stream's first ``size // 2`` words and
       leaves no buffered half behind; the whole cohort's words are
       mapped by that rule in one pass.
    2. *Filter.*  One stable argsort over ``owner * num_items + id``
       keys of all positives followed by all draws puts each (client,
       item) group in the order positive, first draw, later draws: a
       draw is accepted iff it leads its group.  A running count,
       rebased per client, keeps each client's first ``count``.
    3. *Slow path.*  A client is handed to ``fallback`` on a real
       ``Generator`` over the same words, with its slice of
       ``flat_positives``, when the rule above is not the whole story:
       a half falls under Lemire's rejection threshold ``2**32 %
       num_items`` (NumPy then consumes an extra half), the first draw
       comes up short (the top-up continues the stream), negatives are
       scarce (``count >= available``: the oracle enumerates instead of
       drawing), or ``num_items`` leaves the 32-bit regime.

    Each client's positives must be distinct ids (true for every
    :class:`~repro.datasets.base.InteractionDataset`); a repeat only
    understates ``available`` and can send the client to the slow
    path, never to a different answer.
    """
    num_clients = len(num_pos)
    counts = np.asarray(counts, dtype=np.int64)
    wanted = counts > 0
    served = wanted & (counts < num_items - num_pos)
    if num_items > 2**32 or num_clients * num_items >= 2**63:
        served[:] = False
    rows = np.flatnonzero(served)
    draws = np.empty(0, dtype=np.int64)
    keep = np.empty(0, dtype=bool)
    if len(rows):
        row_counts = counts[rows]
        sizes = np.maximum(2 * row_counts, 8)
        raw = streams.first_raw(rows, sizes // 2)
        scaled = np.empty(2 * len(raw), dtype=np.uint64)
        scaled[0::2] = raw & _LOW32
        scaled[1::2] = raw >> _SHIFT32
        scaled *= np.uint64(num_items)
        draws = (scaled >> _SHIFT32).astype(np.int64)
        draw_owner = np.repeat(rows, sizes)
        lemire = (scaled & _LOW32) < np.uint64(2**32 % num_items)
        served[draw_owner[lemire]] = False

        pos_owner = np.repeat(np.arange(num_clients, dtype=np.int64), num_pos)
        keys = np.concatenate(
            [
                pos_owner * num_items + flat_positives,
                draw_owner * num_items + draws,
            ]
        )
        order = keys.argsort(kind="stable")
        in_order = keys[order]
        leads = np.empty(len(keys), dtype=bool)
        leads[0] = True
        np.not_equal(in_order[1:], in_order[:-1], out=leads[1:])
        leaders = order[leads] - len(pos_owner)
        fresh = np.zeros(len(draws), dtype=bool)
        fresh[leaders[leaders >= 0]] = True

        running = np.cumsum(fresh)
        ends = np.cumsum(sizes)
        before = running[ends - sizes] - fresh[ends - sizes]
        found = running[ends - 1] - before
        served[rows[found < row_counts]] = False
        rank = running - np.repeat(before, sizes)
        keep = fresh & (rank <= np.repeat(row_counts, sizes)) & served[draw_owner]

    num_neg = np.where(served, counts, 0)
    redone = []
    pos_ends = np.cumsum(num_pos)
    for k in np.flatnonzero(wanted & ~served).tolist():
        positives = flat_positives[pos_ends[k] - num_pos[k] : pos_ends[k]]
        redone.append(fallback(streams[k], positives, num_items, int(counts[k])))
        num_neg[k] = len(redone[-1])
    negatives = np.empty(int(num_neg.sum()), dtype=np.int64)
    from_draws = np.repeat(served, num_neg)
    negatives[from_draws] = draws[keep]
    if redone:
        negatives[~from_draws] = np.concatenate(redone)
    return negatives, num_neg


def sample_local_batches(
    streams: StreamBatch,
    num_pos: np.ndarray,
    flat_positives: np.ndarray,
    num_items: int,
    negative_ratio: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build every sampled client's local batch as ragged row stacks.

    Client ``k``'s positives are the ``num_pos[k]`` ids of its segment
    of ``flat_positives`` (one CSR pair).
    Returns ``(item_ids, labels, lengths)`` where ``item_ids`` and
    ``labels`` are flat ``(total_rows,)`` arrays and client ``k`` owns
    the contiguous segment ``[sum(lengths[:k]) : sum(lengths[:k+1])]``
    — positives first (label 1.0), then its freshly sampled negatives
    (label 0.0), exactly the rows of the scalar
    per-client batch oracle in ``tests/reference/``.  The
    CSR-style layout wastes no memory on padding however ragged the
    per-client interaction counts are.
    """
    negatives, num_neg = sample_negatives_batch(
        streams, num_pos, flat_positives, num_items, negative_ratio * num_pos
    )
    lengths = num_pos + num_neg
    # Within each client's segment the first num_pos rows are its
    # positives; both flat sources are already in client order.
    total = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    row_in_segment = np.arange(total) - np.repeat(starts, lengths)
    is_positive = row_in_segment < np.repeat(num_pos, lengths)
    item_ids = np.empty(total, dtype=np.int64)
    item_ids[is_positive] = flat_positives
    item_ids[~is_positive] = negatives
    return item_ids, is_positive.astype(np.float64), lengths
