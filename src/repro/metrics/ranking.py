"""Ranking metrics: ER@K (Eq. 3) and HR@K (leave-one-out protocol).

ER@K measures attack success: the fraction of eligible benign users
whose top-K recommendation list contains a target item, averaged over
targets. HR@K measures recommendation quality: whether the held-out
test item ranks in the top-K against sampled negatives (NCF protocol).

Both are counted per user block from a full score block
(:func:`exposure_counts_at_k`, :func:`hit_counts_at_k`) or by an exact
walk that scores only the pairs that can decide them: for a dot-product
model the norm-pruned walk (:func:`walk_block_counts`), for an MLP
tower the walk over interval-bounded item clusters
(:func:`walk_tower_block_counts`).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import InteractionDataset
from repro.datasets.sampling import sample_negatives_batch
from repro.rng import spawn_batch

__all__ = [
    "NormOrderedItems",
    "RankingTally",
    "walk_block_counts",
    "ClusteredItems",
    "walk_tower_block_counts",
    "exposure_counts_at_k",
    "exposure_ratio_from_counts",
    "hit_counts_at_k",
    "hit_ratio_from_counts",
    "sample_packed_eval_negatives",
]


def exposure_counts_at_k(
    scores: np.ndarray,
    train_mask: np.ndarray,
    target_items: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-target ``(hits, eligible)`` counts over one block of users.

    The streaming building block of ER@K: counts are integers, so
    accumulating them over user blocks and dividing once is
    bit-identical to evaluating the whole user matrix at once —
    ``hit.mean()`` over booleans *is* the same integer division.

    No top-K list is built.  A user who has not interacted with target
    ``t`` is a hit iff fewer than ``k`` recommendable (unmasked) items
    are *ahead* of ``t``: a strictly greater score, or an equal score
    and a smaller item id — the order of a stable descending sort, so
    a tie at the K boundary goes to the smaller id.  A NaN score is
    ahead of nothing, and a target whose own score is not finite is a
    miss.  The cost is one pass over the score block per target,
    linear in ``len(target_items)``: about 18 ms a target at 2796 users
    x 6000 items, where one partition of the block into top-K lists
    costs 170 ms whatever the number of targets — cheaper from about
    ten targets on.  The default is one target and the paper's tables
    stop at five.
    """
    target_items = np.atleast_1d(np.asarray(target_items))
    if len(target_items) == 0:
        raise ValueError("no target items given")
    if scores.shape != train_mask.shape:
        raise ValueError("scores and train_mask shapes differ")
    hits = np.empty(len(target_items), dtype=np.int64)
    eligible = np.empty(len(target_items), dtype=np.int64)
    unmasked = np.logical_not(train_mask)
    ahead = np.empty(scores.shape, dtype=bool)
    for row, target in enumerate(target_items.tolist()):
        target_scores = scores[:, target]
        open_users = unmasked[:, target]
        np.greater_equal(
            scores[:, :target], target_scores[:, None], out=ahead[:, :target]
        )
        np.greater(scores[:, target:], target_scores[:, None], out=ahead[:, target:])
        ahead &= unmasked
        exposed = np.count_nonzero(ahead, axis=1) < k
        exposed &= np.isfinite(target_scores)
        exposed &= open_users
        eligible[row] = np.count_nonzero(open_users)
        hits[row] = np.count_nonzero(exposed)
    return hits, eligible


def exposure_ratio_from_counts(
    hits: np.ndarray, eligible: np.ndarray
) -> float:
    """ER@K from accumulated per-target counts.

    A target with no eligible users contributes 0.0, matching the
    dense reference; the single place the convention lives.
    """
    ratios = np.where(eligible > 0, hits / np.maximum(eligible, 1), 0.0)
    return float(np.mean(ratios))


#: Users per cohort-sampler call in :func:`_eval_negative_blocks`.
_EVAL_NEGATIVES_BLOCK = 256


def _redraw_eval_negatives(
    rng: np.random.Generator, banned: np.ndarray, num_items: int, count: int
) -> np.ndarray:
    """One user's evaluation negatives, drawn on its ``Generator``.

    The protocol's own top-up rule: every draw is the full
    ``max(2 * count, 8)`` ids (training's top-up shrinks to what is
    still needed), and a pool of exactly ``count`` ids is drawn, not
    enumerated — so the order of the result is the draw order.
    """
    taken = set(banned.tolist())
    chosen: list[int] = []
    while len(chosen) < count:
        for j in rng.integers(0, num_items, size=max(2 * count, 8)).tolist():
            if j not in taken:
                taken.add(j)
                chosen.append(j)
                if len(chosen) == count:
                    break
    return np.asarray(chosen, dtype=np.int64)


def _banned_sets(
    indptr: np.ndarray, indices: np.ndarray, test_items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, flat)`` CSR of a user block's evaluation banned sets.

    ``indptr`` is the block's slice of the training CSR offsets.  User
    ``u``'s set is its training positives followed by its test item,
    unless the item is absent (-1) or already among them.
    """
    num_train = np.diff(indptr)
    flat = indices[indptr[0] : indptr[-1]]
    hits = np.flatnonzero(flat == np.repeat(test_items, num_train))
    appended = test_items >= 0
    appended[np.searchsorted(indptr, indptr[0] + hits, side="right") - 1] = False
    ends = indptr[1:] - indptr[0]
    return num_train + appended, np.insert(flat, ends[appended], test_items[appended])


def _eval_negative_blocks(dataset: InteractionDataset, num_negatives: int, seed: int):
    """``(lo, hi, negatives, num_neg)`` of each block of users, in order.

    Blocks of users bound the sampler's cohort-wide sort keys (~2 *
    ``num_negatives`` per user) however many users there are.
    """
    indptr, indices = dataset.train_csr()
    test_items = np.asarray(dataset.test_items, dtype=np.int64)
    for lo in range(0, dataset.num_users, _EVAL_NEGATIVES_BLOCK):
        hi = min(lo + _EVAL_NEGATIVES_BLOCK, dataset.num_users)
        tests = test_items[lo:hi]
        num_banned, banned = _banned_sets(indptr[lo : hi + 1], indices, tests)
        # An absent (-1) test item still costs the pool one slot: the
        # reference banned set is positives | {test_item}.
        pool_sizes = dataset.num_items - num_banned - (tests < 0)
        yield (lo, hi) + sample_negatives_batch(
            spawn_batch(seed, ("eval-neg",), np.arange(lo, hi)),
            num_banned,
            banned,
            dataset.num_items,
            np.clip(pool_sizes, 0, num_negatives),
            fallback=_redraw_eval_negatives,
        )


def sample_packed_eval_negatives(
    dataset: InteractionDataset, num_negatives: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed per-user negative samples for HR@K, as a padded id matrix.

    The NCF protocol ranks the held-out test item against
    ``num_negatives`` items the user has not interacted with.  Sampling
    once (deterministic in the seed) keeps HR@K comparable across rounds
    and methods.

    Each user owns its private labelled RNG stream (``spawn(seed,
    "eval-neg", user)``) and receives, in draw order, the first ids of
    it that are neither interacted with nor the test item.  All users'
    first draws go through the cohort-wide sampler
    (:func:`~repro.datasets.sampling.sample_negatives_batch`, banned
    set = positives plus the test item, a block's sets built as one CSR
    from the dataset's by :func:`_banned_sets`); a user it cannot serve
    is redrawn by :func:`_redraw_eval_negatives`.

    Returns ``(negatives, lengths)``: row ``u`` holds user ``u``'s ids
    in its first ``lengths[u]`` columns (zeros beyond), the form
    :func:`hit_counts_at_k` slices by user block.  Each block of users
    is written straight into one matrix of the narrowest unsigned dtype
    that holds every item id (``uint16`` below 65 536 items): no
    per-user list, and a quarter of int64's bytes.  With HR evaluation
    disabled (``num_negatives <= 0``, the million-user throughput runs)
    it is ``(U, 0)`` and no stream is spawned.
    """
    num_items = dataset.num_items
    # A uint64 id would not promote with the int64 test items to an index.
    dtype = np.min_scalar_type(max(num_items - 1, 0)) if num_items <= 2**32 else np.int64
    # No pool holds more than the catalogue.
    packed = np.zeros((dataset.num_users, max(min(num_negatives, num_items), 0)), dtype)
    lengths = np.zeros(dataset.num_users, dtype=np.int64)
    if packed.shape[1]:
        columns = np.arange(packed.shape[1])
        for lo, hi, negatives, num_neg in _eval_negative_blocks(dataset, num_negatives, seed):
            packed[lo:hi][columns < num_neg[:, None]] = negatives
            lengths[lo:hi] = num_neg
    width = int(lengths.max(initial=0))
    return (packed if width == packed.shape[1] else packed[:, :width].copy()), lengths


def hit_counts_at_k(
    scores: np.ndarray,
    test_items: np.ndarray,
    negatives: np.ndarray,
    lengths: np.ndarray,
    k: int,
) -> tuple[int, int]:
    """``(hits, evaluable users)`` counts over one block of users.

    The streaming building block of HR@K: ``scores`` rows,
    ``test_items`` and the packed ``negatives``/``lengths`` rows
    (:func:`sample_packed_eval_negatives`; the ids may be of any integer
    dtype) are aligned slices of the same user block.  Ranks are
    computed per row, so block boundaries cannot change them;
    accumulating the integer counts over blocks and dividing once
    reproduces the whole-matrix mean exactly.
    """
    test_items = np.asarray(test_items, dtype=np.int64)
    users = np.flatnonzero((test_items >= 0) & (lengths > 0))
    if not len(users):
        return 0, 0
    lens = lengths[users]
    padded = negatives[users, : int(lens.max())]
    mask = np.arange(padded.shape[1]) < lens[:, None]
    test_scores = scores[users, test_items[users]]
    neg_scores = scores[users[:, None], padded]
    greater = ((neg_scores > test_scores[:, None]) & mask).sum(axis=1)
    equal = ((neg_scores == test_scores[:, None]) & mask).sum(axis=1)
    ranks = greater + 0.5 * equal
    return int((ranks < k).sum()), len(users)


def hit_ratio_from_counts(hits: int, total: int) -> float:
    """HR@K from accumulated counts; no evaluable users means 0.0."""
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# The exact pruned walk (dot-product scores)
# ----------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
#: Multiply-adds per walk tile (undecided users x item block x dim).
#: OpenBLAS serves a GEMM of at most 10**6 with its single-threaded
#: small-matrix kernel; a little above that its threaded path costs
#: more than the product itself.
_WALK_TILE_MACS = 10**6
#: HR@K candidates' rows are gathered in chunks of this many bytes.
_CANDIDATE_BYTES = 2 * 2**20


class RankingTally:
    """The integer counts one evaluation divides, summed over user blocks.

    It also carries what every block is asked: the ``targets``, ``k``,
    every user's HR@K candidates (``test_items`` and the packed
    ``negatives``/``negative_counts``), ``positives(lo, hi)`` — the
    training CSR ``(lengths, flat)`` of users ``lo..hi`` — and
    ``count_scores(lo, hi, scores)``, which returns the counts of one
    full score block.  A block's counts are ``(er_hits, er_eligible,
    hr_hits, hr_total)`` and go in through :meth:`add`.
    ``fallback_blocks`` counts the blocks a pruned walk could not decide
    and handed to ``count_scores``.
    """

    def __init__(
        self, targets, k, test_items, negatives, negative_counts, positives, count_scores
    ):
        self.targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        self.k = k
        self.test_items = np.asarray(test_items, dtype=np.int64)
        self.negatives = negatives
        self.negative_counts = negative_counts
        self.positives = positives
        self.count_scores = count_scores
        self.er_hits = np.zeros(len(self.targets), dtype=np.int64)
        self.er_eligible = np.zeros(len(self.targets), dtype=np.int64)
        self.hr_hits = 0
        self.hr_total = 0
        self.fallback_blocks = 0

    def add(self, er_hits, er_eligible, hr_hits: int, hr_total: int) -> None:
        self.er_hits += er_hits
        self.er_eligible += er_eligible
        self.hr_hits += hr_hits
        self.hr_total += hr_total


def norms_rounded_up(rows: np.ndarray) -> np.ndarray:
    """Float64 row norms, each at least the exact Euclidean norm of its row.

    Squares are summed in float64 whatever the rows' type (a float32
    row converts exactly), and the sum is inflated past its rounding
    error (relative ``dim * eps``, plus the absolute error of squares
    that underflow), and the root past its own.
    """
    dim = rows.shape[1]
    squares = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    return np.sqrt(squares * (1 + (dim + 4) * _EPS) + (dim + 1) * _TINY) * (
        1 + 4 * _EPS
    )


def _margin_terms(users: np.ndarray, items: np.ndarray) -> tuple[float, float]:
    """``(scale, floor)`` of the rounding margin between two scores.

    Scores of ``users`` against ``items`` are computed in their common
    type, float32 for a reduced-precision model; ``eps`` and ``tiny``
    are that type's.  Any float evaluation of ``u . v`` over ``dim``
    terms (any summation order, with or without FMA) is within ``dim *
    eps / 2 * |u||v|`` plus a few subnormal units of the exact dot
    product.  Two scores from two evaluations each (the walk's and the
    full block's) are therefore ordered alike once they differ by more
    than ``scale * |u| * (|v_j| + |v_t|) + floor``; ``scale`` is twice
    what that needs, which also absorbs the rounding of the margin and
    of the thresholds ``s_t ± margin`` the walk compares against.
    """
    dim = users.shape[1]
    info = np.finfo(np.result_type(users, items))
    return (2 * dim + 8) * float(info.eps), (dim + 2) * float(info.tiny)


def _counts(mask: np.ndarray, axis: int = 0) -> np.ndarray:
    """True cells along ``axis`` of a 2-D bool array.

    A walk tile is held items x users, so a user's threshold broadcasts
    along the contiguous axis (NumPy's fast loop) and its counts are
    column sums; HR@K candidates are held users x candidates and
    counted along rows.
    """
    return np.add.reduce(mask.view(np.uint8), axis=axis, dtype=np.int32)


class NormOrderedItems:
    """An item table sorted by norm, descending, for the pruned walk.

    ``norms`` are rounded up (:func:`norms_rounded_up`); ``rank[j]`` is
    item ``j``'s position in the walk order, ``sorted_rows`` and
    ``sorted_norms`` the table and its norms in that order.
    ``walkable`` is false when a row or norm is not finite: then no
    block can be walked.
    """

    def __init__(self, items: np.ndarray):
        self.items = items
        self.norms = norms_rounded_up(items)
        # A NaN or infinite entry leaves its row's norm non-finite.
        self.walkable = bool(np.isfinite(self.norms).all())
        order = np.argsort(-self.norms, kind="stable")
        self.sorted_rows = items[order]
        self.sorted_norms = self.norms[order]
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))


def walk_block_counts(
    items: NormOrderedItems,
    users: np.ndarray,
    tally: RankingTally,
    lo: int,
    hi: int,
    *,
    tile_cells: int | None = None,
    chunk_bytes: int = _CANDIDATE_BYTES,
):
    """Exact ER@K and HR@K counts of users ``lo..hi`` from few scores.

    For dot-product scores ``u . v``.  Returns ``(hits, eligible,
    hr_hits, hr_total)`` equal to what :func:`exposure_counts_at_k` and
    :func:`hit_counts_at_k` count from the block's full score matrix
    ``users @ items.T`` — or ``None`` when that cannot be certified:

    * a row of ``users`` or ``items`` is not finite, a user's norm is
      zero, or a norm product is near overflow in the scores' type;
    * a decision depends on a pair whose two scores lie within the
      rounding margin (:func:`_margin_terms`) — an exact tie included.

    Every comparison carries that margin, so a pair the walk classifies
    is classified alike by any float evaluation of the full block; the
    caller resolves a ``None`` block from full scores.  The block is
    walked target by target in tiles of ``tile_cells`` scores
    (:func:`_walk_target`, default ``_WALK_TILE_MACS / dim``), and its
    HR@K candidates' rows are gathered in chunks of ``chunk_bytes``
    (:func:`_hit_counts`).
    """
    if not items.walkable:
        return None
    user_norms = norms_rounded_up(users)
    # Every score and partial sum of either path stays below |u| * |v|
    # (plus rounding), so a product this far below the type's largest
    # value cannot overflow.
    max_product = 2.0 ** (np.finfo(np.result_type(users, items.items)).maxexp - 24)
    if len(users) and (
        not np.isfinite(user_norms).all()
        or not users.any(axis=1).all()
        or user_norms.max() * items.norms.max(initial=0.0) > max_product
    ):
        return None
    if tile_cells is None:
        tile_cells = max(1, _WALK_TILE_MACS // users.shape[1])
    lengths, flat = tally.positives(lo, hi)
    rows = np.repeat(np.arange(len(users)), lengths)
    masked = (items.rank[flat], rows)  # (walk position, user row) pairs
    hits = np.empty(len(tally.targets), dtype=np.int64)
    eligible = np.empty(len(tally.targets), dtype=np.int64)
    for row, target in enumerate(tally.targets.tolist()):
        open_users = np.ones(len(users), dtype=bool)
        open_users[rows[flat == target]] = False
        exposed = _walk_target(
            items, users, user_norms, open_users, masked, target, tally.k, tile_cells
        )
        if exposed is None:
            return None
        hits[row] = exposed
        eligible[row] = np.count_nonzero(open_users)
    width = max(tally.negatives.shape[1], 1)
    hr = _hit_counts(
        items,
        users,
        user_norms,
        tally.test_items[lo:hi],
        tally.negatives[lo:hi],
        tally.negative_counts[lo:hi],
        tally.k,
        max(1, chunk_bytes // (8 * width * users.shape[1])),
    )
    return None if hr is None else (hits, eligible, *hr)


def _walk_target(items, users, user_norms, open_users, masked, target, k, tile_cells):
    """Exposed-user count of one target over one block, or ``None``.

    Items are visited in tiles of descending norm.  An open user keeps
    two counts of unmasked items: those certainly ahead of the target
    (score above ``s_t + margin``) and those that may be (score at or
    above ``s_t - margin``).  After each tile a user is settled as *not
    exposed* once ``k`` are certainly ahead, and as *exposed iff fewer
    than k may be* once ``|u| * max|v|`` of the items left falls below
    ``s_t - margin`` — no item left can reach the target.  ``masked``
    holds the block's (walk position, user row) training pairs.
    """
    scale, floor = _margin_terms(users, items.items)
    num_items = len(items.rank)
    mask_rank, mask_rows = masked
    target_rank = int(items.rank[target])
    active = np.flatnonzero(open_users)
    rows = users[active]
    norms = user_norms[active]
    target_scores = rows @ items.items[target]
    # The largest item norm bounds every pair the walk meets.
    margin = scale * norms * (items.sorted_norms[0] + items.norms[target]) + floor
    high = target_scores + margin
    low = target_scores - margin
    ahead = np.zeros(len(active), dtype=np.int32)
    within = np.zeros(len(active), dtype=np.int32)
    slot = np.full(len(users), -1, dtype=np.int64)
    exposed = 0
    start = 0
    while len(active):
        stop = min(num_items, start + max(1, tile_cells // len(active)))
        scores = _product(items.sorted_rows[start:stop], rows)
        # Masked pairs and the target itself compete with nothing.
        slot[active] = np.arange(len(active))
        in_tile = np.flatnonzero((mask_rank >= start) & (mask_rank < stop))
        who = slot[mask_rows[in_tile]]
        taken = who >= 0
        scores[mask_rank[in_tile[taken]] - start, who[taken]] = -np.inf
        slot[active] = -1
        if start <= target_rank < stop:
            scores[target_rank - start] = -np.inf
        ahead += _counts(scores > high)
        within += _counts(scores >= low)
        start = stop
        # Past the last item every user is settled: |u| * -inf < low.
        top = items.sorted_norms[start] if start < num_items else -np.inf
        unexposed = ahead >= k
        settled = (norms * top < low) & ~unexposed
        # A settled user with k or more that may be ahead hangs on a
        # pair in the margin.
        if (settled & (within >= k)).any():
            return None
        exposed += np.count_nonzero(settled)
        keep = ~(unexposed | settled)
        if not keep.all():
            active, rows, norms = active[keep], rows[keep], norms[keep]
            high, low, ahead, within = high[keep], low[keep], ahead[keep], within[keep]
    return exposed


def _product(rows: np.ndarray, users: np.ndarray) -> np.ndarray:
    """``rows @ users.T`` as an items x users array, cut into row chunks
    of at most ``_WALK_TILE_MACS`` multiply-adds.

    Each chunk is a plain ``(n, dim) @ (dim, users)`` product, the
    layout OpenBLAS's small-matrix kernel takes, in the type the full
    block is scored in.
    """
    out = np.empty((len(rows), len(users)), dtype=np.result_type(rows, users))
    user_columns = np.ascontiguousarray(users.T)
    step = max(1, _WALK_TILE_MACS // max(len(users) * users.shape[1], 1))
    for first in range(0, len(rows), step):
        np.matmul(rows[first : first + step], user_columns, out=out[first : first + step])
    return out


def _hit_counts(items, users, user_norms, test_items, negatives, lengths, k, step):
    """HR@K ``(hits, evaluable users)`` of dot-product scores
    (:func:`_ranked_hits`), each candidate's row gathered and scored
    alone, the margin taking the largest item norm for every candidate."""
    scale, floor = _margin_terms(users, items.items)
    top_norm = items.norms.max()

    def score(who, candidates):
        rows = users[who]
        tests = candidates[:, 0]
        test_scores = np.einsum("nd,nd->n", rows, items.items[tests])
        negative_rows = items.items.take(candidates[:, 1:], axis=0)
        scores = np.matmul(negative_rows, rows[:, :, None])[:, :, 0]
        margin = scale * user_norms[who] * (top_norm + items.norms[tests]) + floor
        return test_scores, scores, margin

    return _ranked_hits(test_items, negatives, lengths, k, step, score)


def _ranked_hits(test_items, negatives, lengths, k, step, score):
    """HR@K ``(hits, evaluable users)`` from the candidates' own scores.

    ``step`` evaluable users at a time, ``score(who, candidates)``
    returns the test items' scores, the negatives' scores and each
    user's margin for ``candidates``, one row a user: its test item,
    then its negatives (``negatives``' narrow ids widen to the test
    items' int64 there).  A user's rank ``greater + equal / 2`` lies
    between the negatives certainly above ``test + margin`` and those at
    or above ``test - margin``; a user whose rank cannot be placed on
    one side of ``k`` makes the result ``None``.
    """
    evaluable = np.flatnonzero((test_items >= 0) & (lengths > 0))
    if not len(evaluable):
        return 0, 0
    width = int(lengths[evaluable].max())
    ragged = bool((lengths[evaluable] < width).any())
    hits = 0
    for first in range(0, len(evaluable), step):
        who = evaluable[first : first + step]
        candidates = np.hstack([test_items[who, None], negatives[who, :width]])
        test_scores, scores, margin = score(who, candidates)
        if ragged:  # padding competes with nothing
            scores[np.arange(width) >= lengths[who, None]] = -np.inf
        greater = _counts(scores > (test_scores + margin)[:, None], axis=1)
        within = _counts(scores >= (test_scores - margin)[:, None], axis=1)
        if ((greater < k) & (within >= k)).any():
            return None
        hits += int(np.count_nonzero(within < k))
    return hits, len(evaluable)


# ----------------------------------------------------------------------
# The exact bounded walk (MLP tower scores)
# ----------------------------------------------------------------------

#: Pairs gathered per step of the tower walk: 4 MiB of first-layer
#: activations at width 32.
_TOWER_TILE_PAIRS = 2**14
#: Lloyd iterations of the item clustering.
_KMEANS_ROUNDS = 4


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


class ClusteredItems:
    """An item catalogue cut into clusters for the bounded tower walk.

    ``layers`` are the tower's affine maps ``(weight, bias)``, weights
    held ``(fan_in, fan_out)``, with a ReLU after every map but the
    last, the projection, whose ``fan_out`` is 1.  The first map acts
    on ``[u ; v]`` and splits into ``u @ weight[:dim]`` (per user) and
    the item's ``parts``, ``v @ weight[dim:] + bias``.  Items are
    clustered by their parts (:func:`_kmeans`, about ``sqrt(items)``
    clusters); ``members`` lists them cluster by cluster (cluster ``c``
    at ``starts[c]``, ``sizes[c]`` items) and ``low``/``high`` are each
    cluster's box, the per-unit minimum and maximum of its members'
    parts.  ``walkable`` is false when a part or a weight is not finite.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]], items: np.ndarray):
        dim = items.shape[1]
        weight, bias = layers[0]
        self.layers = layers
        self.items = items
        self.user_weight = weight[:dim]
        self.parts = _product(items, weight[dim:].T) + bias
        self.walkable = bool(
            np.isfinite(self.parts).all()
            and all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers)
        )
        # Rows per tower call: every GEMM within ``_WALK_TILE_MACS``,
        # off OpenBLAS's threaded path (on two cores a 16384 x 32 x 16
        # product took 7.7 ms threaded, 0.8 ms on one thread).
        widest = max([w.shape[0] * w.shape[1] for w, _ in layers[1:]], default=1)
        self.tile_rows = max(1, _WALK_TILE_MACS // widest)
        # ``W+`` and ``W-`` of every later map, for the interval bounds.
        self.signed = [(np.maximum(w, 0.0), np.minimum(w, 0.0)) for w, _ in layers[1:]]
        self.abs_layers = [
            (np.abs(w).astype(np.float64), np.abs(b).astype(np.float64))
            for w, b in layers
        ]
        # The largest item-side magnitude of each first-layer unit.
        abs_weight, abs_bias = self.abs_layers[0]
        self.item_magnitude = _product(
            np.abs(items).astype(np.float64), abs_weight[dim:].T
        ).max(axis=0, initial=0.0) + abs_bias
        num_clusters = max(1, round(len(items) ** 0.5))
        labels = _kmeans(self.parts, num_clusters) if self.walkable else np.zeros(
            len(items), dtype=np.int64
        )
        self.members = np.argsort(labels, kind="stable")
        self.sizes = np.bincount(labels)
        self.sizes = self.sizes[self.sizes > 0]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.cluster_of = np.empty(len(items), dtype=np.int64)
        self.cluster_of[self.members] = np.repeat(np.arange(len(self.sizes)), self.sizes)
        sorted_parts = self.parts[self.members]
        self.low = np.minimum.reduceat(sorted_parts, self.starts, axis=0)
        self.high = np.maximum.reduceat(sorted_parts, self.starts, axis=0)


def _kmeans(points: np.ndarray, count: int) -> np.ndarray:
    """Cluster labels of ``points`` by a deterministic k-means.

    Centres start at the points of evenly spaced ranks along the
    points' widest coordinate, and ``_KMEANS_ROUNDS`` Lloyd rounds
    follow, each one tiled GEMM of squared distances.  Any partition keeps
    the walk exact; a tighter one only prunes more.
    """
    points = np.asarray(points, dtype=np.float64)
    count = min(count, len(points))
    spread = points.max(axis=0) - points.min(axis=0)
    order = np.argsort(points[:, int(np.argmax(spread))], kind="stable")
    centres = points[order[(np.arange(count) * len(points)) // count]]
    labels = np.zeros(len(points), dtype=np.int64)
    for _ in range(_KMEANS_ROUNDS):
        # Rows per distance tile: the row chunk ``_product`` itself
        # takes, so no points x centres array spans the catalogue.
        step = max(1, _WALK_TILE_MACS // max(centres.size, 1))
        squares = (centres * centres).sum(axis=1)
        for first in range(0, len(points), step):
            tile = _product(points[first : first + step], centres)
            labels[first : first + step] = np.argmin(squares - 2.0 * tile, axis=1)
        sizes = np.bincount(labels, minlength=len(centres))
        filled = sizes > 0
        sizes = sizes[filled]
        centres = np.add.reduceat(
            points[np.argsort(labels, kind="stable")], np.cumsum(sizes) - sizes
        ) / sizes[:, None]
        labels = np.cumsum(filled)[labels] - 1
    return labels


def _tower_logits(items: ClusteredItems, act: np.ndarray) -> np.ndarray:
    """Tower logits of first-layer pre-activations ``act`` (one row a
    pair, at most ``tile_rows`` rows; overwritten)."""
    for weight, bias in items.layers[1:]:
        act = _relu(act) @ weight + bias
    return act[:, 0]


def _tower_scores(items: ClusteredItems, user_parts: np.ndarray, parts: np.ndarray):
    """Tower logits of row-aligned first-layer user and item parts
    (one item's ``parts`` broadcast over every row), ``tile_rows`` rows
    per call."""
    dtype = np.result_type(user_parts, parts, items.layers[-1][0])
    out = np.empty(len(user_parts), dtype=dtype)
    step = items.tile_rows
    for first in range(0, len(out), step):
        out[first : first + step] = _tower_logits(
            items,
            user_parts[first : first + step]
            + (parts if parts.ndim == 1 else parts[first : first + step]),
        )
    return out


def _tower_margins(items: ClusteredItems, users: np.ndarray):
    """Per-user rounding margin between two scores, or ``None``.

    Any float evaluation of the tower at ``(u, v)`` (any summation
    order, with or without FMA) and the interval bounds of any cluster
    lie within ``gamma_N * M(u) + F`` of their exact values, where
    ``M(u)`` is the tower of absolute values at ``(|u|, the largest
    item-side magnitude)`` (every bias, weight and activation taken
    ``|.|``, no ReLU: it bounds every partial sum the evaluations
    meet), ``N`` sums ``2 * fan_in + 2`` over the affine maps (the
    bounds' ``W+``/``W-`` halves double each fan-in), and ``F`` is the
    underflow floor carried through ``|W|``.  Two scores (or a score
    and a bound), each from two evaluations, are ordered alike once
    they differ by four such errors; the margin is twice that, which
    also absorbs the rounding of the margin and of the thresholds the
    walk compares against.  ``eps`` and ``tiny`` are those of the least
    precise type among the users, items and weights.  ``None`` when a
    user row is not finite or a magnitude nears overflow.
    """
    if not np.isfinite(users).all():
        return None
    types = [users.dtype, items.items.dtype] + [
        array.dtype for layer in items.layers for array in layer
    ]
    infos = [np.finfo(t) for t in types if np.issubdtype(t, np.floating)]
    eps = max(float(info.eps) for info in infos)
    tiny = max(float(info.tiny) for info in infos)
    limit = 2.0 ** (min(info.maxexp for info in infos) - 24)
    first = items.abs_layers[0][0]
    terms = 2 * first.shape[0] + 2
    floor = np.full(first.shape[1], terms * tiny)
    magnitude = _product(np.abs(users).astype(np.float64), first[: users.shape[1]].T)
    magnitude += items.item_magnitude
    largest = magnitude.max(initial=0.0)
    for weight, bias in items.abs_layers[1:]:
        terms += 2 * weight.shape[0] + 2
        floor = floor @ weight + (2 * weight.shape[0] + 2) * tiny
        magnitude = _product(magnitude, weight.T) + bias
        largest = max(largest, magnitude.max(initial=0.0))
    if not largest < limit:
        return None
    return (4 * terms + 16) * eps * magnitude[:, 0] + 8 * float(floor[0])


def _cluster_bounds(items: ClusteredItems, user_parts: np.ndarray):
    """``(upper, lower)``: interval bounds of every (user, cluster) logit.

    The cluster's box of first-layer item parts goes through the tower
    by interval arithmetic: ``[lo, hi]`` maps to ``lo @ W+ + hi @ W- +
    b`` and ``hi @ W+ + lo @ W- + b``, and the ReLU maps each end.
    """
    num_users, num_clusters = len(user_parts), len(items.sizes)
    upper = np.empty((num_users, num_clusters))
    lower = np.empty((num_users, num_clusters))
    step = max(1, items.tile_rows // num_clusters)
    for first in range(0, num_users, step):
        tile = user_parts[first : first + step, None, :]
        high = (tile + items.high).reshape(-1, items.high.shape[1])
        low = (tile + items.low).reshape(high.shape)
        for (weight, bias), (positive, negative) in zip(items.layers[1:], items.signed):
            _relu(high), _relu(low)
            high, low = (
                high @ positive + low @ negative + bias,
                low @ positive + high @ negative + bias,
            )
        upper[first : first + step] = high.reshape(-1, num_clusters)
        lower[first : first + step] = low.reshape(-1, num_clusters)
    return upper, lower


def walk_tower_block_counts(
    items: ClusteredItems,
    users: np.ndarray,
    tally: RankingTally,
    lo: int,
    hi: int,
):
    """Exact ER@K and HR@K counts of users ``lo..hi`` from few scores.

    For MLP-tower scores.  Returns ``(hits, eligible, hr_hits,
    hr_total)`` equal to what :func:`exposure_counts_at_k` and
    :func:`hit_counts_at_k` count from the block's full score matrix,
    or ``None`` when that cannot be certified: a row is not finite, a
    magnitude nears overflow, or a decision hangs on a pair (or a
    cluster bound) within the rounding margin of the target
    (:func:`_tower_margins`).  Each user's bounds over every item
    cluster (:func:`_cluster_bounds`) settle whole clusters; only the
    items of clusters that straddle the target are scored
    (:func:`_walk_tower_target`), and for HR@K only the users'
    candidates, ``_CANDIDATE_BYTES`` of first-layer activations at a time.
    """
    if not items.walkable:
        return None
    margin = _tower_margins(items, users)
    if margin is None:
        return None
    user_parts = _product(users, items.user_weight.T)
    bounds = _cluster_bounds(items, user_parts)
    lengths, flat = tally.positives(lo, hi)
    num_items = len(items.items)
    # (row, item) training pairs, each once.
    rows = np.repeat(np.arange(len(users)), lengths)
    rows, flat = np.divmod(np.unique(rows * num_items + flat), num_items)
    mask = np.zeros((len(users), num_items), dtype=bool)
    mask[rows, flat] = True
    num_clusters = len(items.sizes)
    unmasked = items.sizes - np.bincount(
        rows * num_clusters + items.cluster_of[flat],
        minlength=len(users) * num_clusters,
    ).reshape(len(users), num_clusters)
    hits = np.empty(len(tally.targets), dtype=np.int64)
    eligible = np.empty(len(tally.targets), dtype=np.int64)
    for row, target in enumerate(tally.targets.tolist()):
        open_users = ~mask[:, target]
        exposed = _walk_tower_target(
            items,
            user_parts,
            margin,
            bounds,
            unmasked,
            mask,
            open_users,
            target,
            tally.k,
        )
        if exposed is None:
            return None
        hits[row] = exposed
        eligible[row] = np.count_nonzero(open_users)
    # A user's candidates are its test item and its negatives.
    width = max(tally.negatives.shape[1], 1) + 1
    step = min(
        _CANDIDATE_BYTES // (8 * width * user_parts.shape[1]), items.tile_rows // width
    )
    hr = _tower_hit_counts(
        items,
        user_parts,
        margin,
        tally.test_items[lo:hi],
        tally.negatives[lo:hi],
        tally.negative_counts[lo:hi],
        tally.k,
        max(1, step),
    )
    return None if hr is None else (hits, eligible, *hr)


def _walk_tower_target(
    items, user_parts, margin, bounds, unmasked, mask, open_users, target, k
):
    """Exposed-user count of one target over one block, or ``None``.

    An open user's clusters whose lower bound is above ``s_t + margin``
    count all their unmasked members as certainly ahead, and those
    whose upper bound is below ``s_t - margin`` count none.  The items
    of the clusters between are scored, a cluster per user per step in
    descending order of the bounds' midpoint (the likeliest to hold
    items ahead first), each adding to two counts: certainly ahead
    (above ``s_t + margin``) and maybe ahead (at or above ``s_t -
    margin``).  A user is settled as *not exposed* once ``k`` are
    certainly ahead, and, once its straddling clusters are scored, as
    *exposed* if fewer than ``k`` may be; else the result is ``None``.
    """
    upper, lower = bounds
    active = np.flatnonzero(open_users)
    target_scores = _tower_scores(items, user_parts[active], items.parts[target])
    high = target_scores + margin[active]
    low = target_scores - margin[active]
    up = upper[active]
    above = lower[active] > high[:, None]
    straddle = ~above & (up >= low[:, None])
    # The target's own cluster is never certainly above it, so every
    # member counted here competes.
    ahead = np.where(above, unmasked[active], 0).sum(axis=1)
    within = ahead.copy()
    remaining = np.count_nonzero(straddle, axis=1)
    midpoints = np.where(straddle, -(up + lower[active]), np.inf)
    order = np.argsort(midpoints, axis=1, kind="stable")
    exposed = 0
    walking = np.flatnonzero(ahead < k)
    step = 0
    while len(walking):
        done = walking[remaining[walking] <= step]
        if (within[done] >= k).any():
            return None
        exposed += len(done)
        walking = walking[remaining[walking] > step]
        if not len(walking):
            break
        clusters = order[walking, step]
        sizes = items.sizes[clusters]
        for first, stop in _pair_tiles(np.cumsum(sizes)):
            who = walking[first:stop]
            size = sizes[first:stop]
            segments = np.cumsum(size) - size
            pair_items = items.members[
                np.arange(int(size.sum()))
                + np.repeat(items.starts[clusters[first:stop]] - segments, size)
            ]
            pair_rows = np.repeat(active[who], size)
            scores = _tower_scores(items, user_parts[pair_rows], items.parts[pair_items])
            competing = ~mask[pair_rows, pair_items] & (pair_items != target)
            above_high = competing & (scores > np.repeat(high[who], size))
            ahead[who] += np.add.reduceat(above_high, segments, dtype=np.int64)
            above_low = competing & (scores >= np.repeat(low[who], size))
            within[who] += np.add.reduceat(above_low, segments, dtype=np.int64)
        walking = walking[ahead[walking] < k]
        step += 1
    return exposed


def _pair_tiles(ends: np.ndarray):
    """``(first, stop)`` user ranges of about ``_TOWER_TILE_PAIRS`` pairs,
    ``ends`` the running pair count."""
    first = 0
    while first < len(ends):
        base = ends[first - 1] if first else 0
        stop = int(np.searchsorted(ends, base + _TOWER_TILE_PAIRS, side="right"))
        stop = max(stop, first + 1)
        yield first, stop
        first = stop


def _tower_hit_counts(
    items, user_parts, margin, test_items, negatives, lengths, k, step
):
    """HR@K ``(hits, evaluable users)`` of tower scores
    (:func:`_ranked_hits`), a user's test item and negatives through one
    tower call."""

    def score(who, candidates):
        act = items.parts.take(candidates, axis=0)
        act += user_parts[who, None, :]
        scores = _tower_logits(items, act.reshape(-1, act.shape[2]))
        scores = scores.reshape(candidates.shape)
        return scores[:, 0], scores[:, 1:], margin[who]

    return _ranked_hits(test_items, negatives, lengths, k, step, score)
