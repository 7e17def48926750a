"""The exact bounded NCF walk counts what full score blocks count.

:meth:`NCFModel.ranking_counts` bounds the tower over clusters of items
by interval arithmetic, scores only the items of clusters that straddle
a target's score and each user's HR@K candidates, and hands a block it
cannot certify to full scoring.  These tests hold it to the default
full path (:meth:`RecommenderModel.ranking_counts`), which scores every
pair.  Blocks this small are scored in full, so every test lowers
``_FULL_SCORE_BYTES`` to walk them:

* a hypothesis property over towers of 0, 1 and 2 hidden layers, float32
  and float64, exact ties (duplicated item rows), one-ulp near-ties,
  non-finite rows, masked targets, K past the catalogue, any item
  partition (the k-means one, singletons, random ones) and every tile
  and chunk size;
* on untied data every block is decided (no fallback), in float64 and,
  for towers of at most one hidden layer, in float32;
* a tie on the top-K boundary and a cancellation inside the rounding
  margin fall back;
* a scaled ``ncf-run``-shaped run evaluates with no fallback block and
  counts what the full path counts.

The walk's exactness rests on its rounding margin holding for the BLAS
and NumPy reductions of the full path, so the CI ``numpy-compat`` legs
run this file.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import (
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.simulation import FederatedSimulation
from repro.metrics import ranking
from repro.metrics.ranking import RankingTally, exposure_counts_at_k, hit_counts_at_k
from repro.models import base as model_base
from repro.models.base import RecommenderModel
from repro.models.ncf import NCFModel


@pytest.fixture(autouse=True, scope="module")
def _walk_every_block():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_base, "_FULL_SCORE_BYTES", 0)
        yield


def _tally(case) -> RankingTally:
    mask, targets, k = case["mask"], case["targets"], case["k"]
    test_items, negatives, lengths = (
        case["test_items"],
        case["negatives"],
        case["lengths"],
    )

    def positives(lo, hi):
        return mask[lo:hi].sum(axis=1), np.nonzero(mask[lo:hi])[1]

    def count_scores(lo, hi, scores):
        return (
            *exposure_counts_at_k(scores, mask[lo:hi], targets, k),
            *hit_counts_at_k(
                scores, test_items[lo:hi], negatives[lo:hi], lengths[lo:hi], k
            ),
        )

    return RankingTally(
        targets, k, test_items, negatives, lengths, positives, count_scores
    )


def _counts(tally: RankingTally):
    return (
        tally.er_hits.tolist(),
        tally.er_eligible.tolist(),
        tally.hr_hits,
        tally.hr_total,
    )


def _model(items, layers, projection) -> NCFModel:
    """An NCF model holding exactly these arrays, in their own types."""
    model = NCFModel(*items.shape, mlp_layers=tuple(len(b) for _, b in layers))
    model.item_embeddings = items
    for layer, (weight, bias) in zip(model.tower.layers, layers):
        layer.weight, layer.bias = weight, bias
    model.tower.projection = projection
    return model


def _both_paths(model, users, block_users, case):
    full = _tally(case)
    RecommenderModel.ranking_counts(model, users, block_users, full)
    walked = _tally(case)
    model.ranking_counts(users, block_users, walked)
    return full, walked


@st.composite
def tower_cases(draw):
    """Small NCF evaluations built to tie, nearly tie and overflow."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 14))
    dim = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 5), max_size=2))
    values = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -0.5]))

    def draw_array(shape):
        return draw(arrays(np.float64, shape, elements=values))

    widths = [2 * dim, *hidden]
    layers = [
        [draw_array((fan_in, fan_out)), draw_array(fan_out)]
        for fan_in, fan_out in zip(widths, hidden)
    ]
    projection = draw_array(widths[-1])
    users = draw_array((num_users, dim))
    items = draw_array((num_items, dim))
    item_ids = st.integers(0, num_items - 1)
    user_ids = st.integers(0, num_users - 1)
    # Duplicated item rows score exactly alike in exact arithmetic, and
    # a row one ulp off nearly so: ties the walk must not break itself.
    for _ in range(draw(st.integers(0, 2))):
        items[draw(item_ids)] = items[draw(item_ids)]
    for _ in range(draw(st.integers(0, 2))):
        row = items[draw(item_ids)].astype(dtype)
        items[draw(item_ids)] = np.nextafter(row, dtype(np.inf))
    special = st.sampled_from([np.inf, -np.inf, np.nan])
    if draw(st.integers(0, 7)) == 0:
        users[draw(user_ids), draw(st.integers(0, dim - 1))] = draw(special)
    if draw(st.integers(0, 7)) == 0:
        items[draw(item_ids), draw(st.integers(0, dim - 1))] = draw(special)
    if hidden and draw(st.integers(0, 11)) == 0:
        layers[-1][1][0] = draw(special)
    partition = draw(st.sampled_from(["k-means", "singletons", "random"]))
    if partition == "singletons":
        labels = np.arange(num_items)
    elif partition == "random":
        labels = draw(arrays(np.int64, num_items, elements=st.integers(0, 4)))
    else:
        labels = None
    mask = draw(arrays(np.bool_, (num_users, num_items)))
    targets = np.array(draw(st.lists(item_ids, min_size=1, max_size=4, unique=True)))
    for row in draw(st.lists(user_ids, max_size=2)):
        mask[row, targets] = True  # masked targets: not eligible
    width = draw(st.integers(0, 5))
    return {
        "model": _model(
            items.astype(dtype),
            [(w.astype(dtype), b.astype(dtype)) for w, b in layers],
            projection.astype(dtype),
        ),
        "users": users.astype(dtype),
        "labels": labels,
        "mask": mask,
        "targets": targets,
        "k": draw(st.integers(1, num_items + 2)),  # past the catalogue too
        "test_items": draw(
            arrays(np.int64, num_users, elements=st.integers(-1, num_items - 1))
        ),
        "negatives": draw(arrays(np.int64, (num_users, width), elements=item_ids)),
        "lengths": draw(arrays(np.int64, num_users, elements=st.integers(0, width))),
        "block_users": draw(st.integers(1, num_users)),
        "tile_macs": draw(st.integers(1, 64)),
        "tile_pairs": draw(st.integers(1, 64)),
    }


class TestTowerWalkCounts:
    # The full path multiplies the non-finite rows too.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(tower_cases())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_full_path(self, case):
        model, users, block = case["model"], case["users"], case["block_users"]
        with pytest.MonkeyPatch.context() as patch:
            # Small tiles and steps cut every GEMM and walk step short.
            patch.setattr(ranking, "_WALK_TILE_MACS", case["tile_macs"])
            patch.setattr(ranking, "_TOWER_TILE_PAIRS", case["tile_pairs"])
            if case["labels"] is not None:
                patch.setattr(ranking, "_kmeans", lambda points, count: case["labels"])
            full, walked = _both_paths(model, users, block, case)
        assert _counts(walked) == _counts(full)
        # A block holding a non-finite row cannot be walked.
        finite = np.isfinite(model.item_embeddings).all() and all(
            np.isfinite(p).all() for p in model.interaction_params()
        )
        blocks = [
            np.isfinite(users[lo : lo + block]).all() and finite
            for lo in range(0, len(users), block)
        ]
        assert walked.fallback_blocks >= blocks.count(False)

    # A float32 margin grows with the tower: at (16, 8) it is about 1e-2
    # of the scores' spread here, and a quarter of the users' top-10
    # boundaries fall within it, so that case is left to fall back.
    @pytest.mark.parametrize(
        "tower, dtype",
        [
            ((), np.float64),
            ((8,), np.float64),
            ((16, 8), np.float64),
            ((), np.float32),
            ((8,), np.float32),
        ],
    )
    def test_untied_blocks_are_decided(self, tower, dtype):
        rng = np.random.default_rng(len(tower))
        num_users, num_items, dim = 300, 900, 8
        tower = NCFModel(num_items, dim, mlp_layers=tower, init_scale=0.5, seed=4).tower
        layers = [(layer.weight, layer.bias) for layer in tower.layers]
        model = _model(
            rng.normal(size=(num_items, dim)).astype(dtype),
            [(weight.astype(dtype), bias.astype(dtype)) for weight, bias in layers],
            tower.projection.astype(dtype),
        )
        test_items = rng.integers(0, num_items, num_users)
        case = {
            "mask": rng.random((num_users, num_items)) < 0.02,
            "targets": np.array([3, 40, 41]),
            "k": 10,
            "test_items": test_items,
            "negatives": (
                test_items[:, None] + rng.integers(1, num_items, (num_users, 20))
            )
            % num_items,
            "lengths": np.full(num_users, 20),
        }
        users = rng.normal(size=(num_users, dim)).astype(dtype)
        for block_users in (64, num_users):
            full, walked = _both_paths(model, users, block_users, case)
            assert walked.fallback_blocks == 0
            assert _counts(walked) == _counts(full)

    def test_tie_on_the_boundary_falls_back(self):
        # Items 1 and 2 are copies: whether item 2 (the target) makes a
        # top-1 hangs on an exact tie, which only full scores settle (the
        # smaller id wins it).
        items = np.array([[-1.0], [1.0], [1.0]])
        model = _model(items, [], np.array([1.0, 1.0]))
        case = {
            "mask": np.zeros((1, 3), dtype=bool),
            "targets": np.array([2]),
            "k": 1,
            "test_items": np.array([-1]),
            "negatives": np.zeros((1, 0), dtype=np.int64),
            "lengths": np.zeros(1, dtype=np.int64),
        }
        full, walked = _both_paths(model, np.array([[0.5]]), 1, case)
        assert walked.fallback_blocks == 1
        assert _counts(walked) == _counts(full) == ([0], [1], 0, 0)

    def test_hit_rank_on_the_boundary_falls_back(self):
        # The test item's copy among its negatives ties it: rank 0.5,
        # a hit at K = 1 that only the full scores can place.
        items = np.array([[0.2], [0.7], [0.7]])
        weight = np.array([[1.0, -1.0], [0.5, 2.0]])
        model = _model(items, [(weight, np.zeros(2))], np.ones(2))
        case = {
            "mask": np.zeros((1, 3), dtype=bool),
            "targets": np.array([0]),
            "k": 1,
            "test_items": np.array([1]),
            "negatives": np.array([[2, 0]]),
            "lengths": np.array([2]),
        }
        full, walked = _both_paths(model, np.array([[0.3]]), 1, case)
        assert walked.fallback_blocks == 1
        assert _counts(walked) == _counts(full)
        assert _counts(full)[2:] == (1, 1)


    @pytest.mark.parametrize("metric", ["er", "hr"])
    @pytest.mark.parametrize("rounded_up", ["competitor", "target"])
    def test_cancellation_inside_the_margin_falls_back(self, metric, rounded_up):
        # Both items' logits are exactly A + 1 - A = 1, but a float sum
        # taken left to right rounds 1e16 + 1 to 1e16 (a score of 0) and
        # (1e16 + 2) + 1 to 1e16 + 4 (a score of 2).  Whether item 0 is
        # ahead of item 1 hangs on rounding, either way round, so the
        # walk must leave it to the full block's own scores, for ER@K
        # (item 1 the target) and for HR@K (item 1 the test item, item 0
        # its negative) alike.
        weight = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        projection = np.array([1.0, 1.0, -1.0])
        items = np.array([[1e16 + 2, 1.0], [1e16, 1.0]])
        if rounded_up == "target":
            items = items[::-1].copy()
        model = _model(items, [(weight[[0, 0, 1, 2]], np.zeros(3))], projection)
        er = metric == "er"
        case = {
            "mask": np.array([[not er, not er]]),
            "targets": np.array([1]),
            "k": 1,
            "test_items": np.array([-1 if er else 1]),
            "negatives": np.array([[0]]),
            "lengths": np.array([0 if er else 1]),
        }
        users = np.zeros((1, 2))
        layers = [(weight[[0, 0, 1, 2]], np.zeros(3)), (projection[:, None], np.zeros(1))]
        certified = ranking.walk_tower_block_counts(
            ranking.ClusteredItems(layers, items), users, _tally(case), 0, 1
        )
        assert certified is None
        full, walked = _both_paths(model, users, 1, case)
        assert walked.fallback_blocks == 1
        assert _counts(walked) == _counts(full)


def _untiled_kmeans(points, count):
    # The clustering with the whole points x centres distance array at
    # once, to hold the tiled one to.
    count = min(count, len(points))
    spread = points.max(axis=0) - points.min(axis=0)
    order = np.argsort(points[:, int(np.argmax(spread))], kind="stable")
    centres = points[order[(np.arange(count) * len(points)) // count]]
    for _ in range(ranking._KMEANS_ROUNDS):
        distances = (centres * centres).sum(axis=1) - 2.0 * (points @ centres.T)
        labels = np.argmin(distances, axis=1)
        sizes = np.bincount(labels, minlength=len(centres))
        filled = sizes > 0
        sizes = sizes[filled]
        centres = np.add.reduceat(
            points[np.argsort(labels, kind="stable")], np.cumsum(sizes) - sizes
        ) / sizes[:, None]
        labels = np.cumsum(filled)[labels] - 1
    return labels


@pytest.mark.parametrize("tile_macs", [1, 7, 40, 10**6])
def test_kmeans_distance_tiles_keep_the_labels(tile_macs, monkeypatch):
    # Small integer points keep every distance exact, so the labels of
    # any tiling must be the untiled ones, duplicated points included.
    rng = np.random.default_rng(tile_macs)
    points = rng.integers(-8, 9, size=(97, 3)).astype(np.float64)
    points[50:60] = points[0]
    monkeypatch.setattr(ranking, "_WALK_TILE_MACS", tile_macs)
    labels = ranking._kmeans(points, 10)
    np.testing.assert_array_equal(labels, _untiled_kmeans(points, 10))


def test_scaled_ncf_run_walks_every_block():
    # ncf-run's shape at a third of its catalogue: PIECK-UEA through the
    # tower at lr 0.01, then one evaluation; the walk must decide every
    # block and count what the full path counts.
    dataset = generate_longtail_dataset(
        num_users=700, num_items=1000, num_interactions=8000, seed=2
    )
    config = ExperimentConfig(
        dataset=DatasetConfig(name="custom", seed=2),
        model=ModelConfig(kind="ncf", embedding_dim=16, seed=2),
        train=TrainConfig(rounds=30, users_per_round=128, lr=0.01, eval_every=0),
        attack=AttackConfig(name="pieck_uea", malicious_ratio=0.05),
        seed=2,
    )
    with FederatedSimulation(config, dataset) as sim:
        sim.run()
        assert sim._eval_block_users() * dataset.num_items * 8 > 2 * 2**20
        walked = sim.evaluate()
        assert sim.eval_fallback_blocks == 0
        sim.model.ranking_counts = functools.partial(
            RecommenderModel.ranking_counts, sim.model
        )
        assert sim.evaluate() == walked
