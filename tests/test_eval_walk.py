"""The exact pruned MF walk counts what full score blocks count.

:meth:`MFModel.ranking_counts` scores only the (user, item) pairs that
can decide ER@K and HR@K, and hands a block it cannot certify to full
scoring.  These tests hold it to the default full path
(:meth:`RecommenderModel.ranking_counts`), which scores every pair.
Their blocks are small enough for MF to score them in full, so every
test here lowers ``_FULL_SCORE_BYTES`` to walk them:

* a hypothesis property over exact ties (duplicated item rows), zero
  users, non-finite rows, masked targets, K past the catalogue, one to
  five targets and every user-block and item-tile size;
* on untied data every block is decided (no fallback), in float64 and
  in float32;
* a float32 table of duplicated rows and near-ties counts what the
  float32 full path counts;
* a ``tracemalloc`` bound: at an ``mf-plain``-like shape an MF
  evaluation peaks below an eighth of one full score block.

The walk's exactness rests on its rounding margin holding for the
BLAS and NumPy reductions of the full path, so the CI ``numpy-compat``
legs run this file.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import DatasetConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.simulation import FederatedSimulation
from repro.metrics.ranking import (
    NormOrderedItems,
    RankingTally,
    exposure_counts_at_k,
    hit_counts_at_k,
    walk_block_counts,
)
from repro.models import base as model_base
from repro.models.base import RecommenderModel
from repro.models.mf import MFModel


@pytest.fixture(autouse=True, scope="module")
def _walk_every_block():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_base, "_FULL_SCORE_BYTES", 0)
        yield


def _tally(case) -> RankingTally:
    mask, targets, k, test_items, negatives, lengths = (
        case["mask"],
        case["targets"],
        case["k"],
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


def _model(items: np.ndarray) -> MFModel:
    model = MFModel(*items.shape)
    model.item_embeddings = items
    return model


def _counts(tally: RankingTally):
    return (
        tally.er_hits.tolist(),
        tally.er_eligible.tolist(),
        tally.hr_hits,
        tally.hr_total,
    )


@st.composite
def walk_cases(draw):
    """Small MF evaluations built to tie, vanish and overflow."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    values = st.one_of(
        st.floats(-3.0, 3.0),
        st.sampled_from([0.0, -0.0, 1.0, -0.5]),
    )
    users = draw(arrays(np.float64, (num_users, dim), elements=values))
    items = draw(arrays(np.float64, (num_items, dim), elements=values))
    item_ids = st.integers(0, num_items - 1)
    user_ids = st.integers(0, num_users - 1)
    # Duplicated item rows score exactly alike: ties the walk must not
    # break by itself.
    for _ in range(draw(st.integers(0, 2))):
        items[draw(item_ids)] = items[draw(item_ids)]
    for row in draw(st.lists(user_ids, max_size=2)):
        users[row] = 0.0
    special = st.sampled_from([np.inf, -np.inf, np.nan])
    if draw(st.integers(0, 5)) == 0:
        users[draw(user_ids), draw(st.integers(0, dim - 1))] = draw(special)
    if draw(st.integers(0, 5)) == 0:
        items[draw(item_ids), draw(st.integers(0, dim - 1))] = draw(special)
    mask = draw(arrays(np.bool_, (num_users, num_items)))
    targets = np.array(draw(st.lists(item_ids, min_size=1, max_size=5, unique=True)))
    for row in draw(st.lists(user_ids, max_size=2)):
        mask[row, targets] = True  # masked targets: not eligible
    width = draw(st.integers(0, 5))
    negatives = draw(arrays(np.int64, (num_users, width), elements=item_ids))
    lengths = draw(arrays(np.int64, num_users, elements=st.integers(0, width)))
    test_items = draw(arrays(np.int64, num_users, elements=st.integers(-1, num_items - 1)))
    return {
        "users": users.astype(dtype),
        "items": items.astype(dtype),
        "mask": mask,
        "targets": targets,
        "k": draw(st.integers(1, num_items + 2)),  # past the catalogue too
        "test_items": test_items,
        "negatives": negatives,
        "lengths": lengths,
        "block_users": draw(st.integers(1, num_users)),
        "tile_cells": draw(st.integers(1, num_users * num_items)),
        "chunk_bytes": draw(st.integers(1, 8 * max(width, 1) * dim * num_users)),
    }


class TestWalkCounts:
    # The full path multiplies the non-finite rows too.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(walk_cases())
    @settings(max_examples=400, deadline=None)
    def test_counts_equal_full_path(self, case):
        model = _model(case["items"])
        users, block = case["users"], case["block_users"]
        full = _tally(case)
        RecommenderModel.ranking_counts(model, users, block, full)
        walked = _tally(case)
        model.ranking_counts(users, block, walked)
        assert _counts(walked) == _counts(full)
        # Every item-tile and candidate-chunk size decides alike: a
        # block the walk certifies holds the full block's counts.
        items = NormOrderedItems(case["items"])
        for lo in range(0, len(users), block):
            hi = min(lo + block, len(users))
            certified = walk_block_counts(
                items,
                users[lo:hi],
                _tally(case),
                lo,
                hi,
                tile_cells=case["tile_cells"],
                chunk_bytes=case["chunk_bytes"],
            )
            if certified is None:
                continue
            one = _tally(case)
            one.add(*one.count_scores(lo, hi, model.score_matrix(users[lo:hi])))
            hits, eligible, hr_hits, hr_total = certified
            assert (hits.tolist(), eligible.tolist(), hr_hits, hr_total) == _counts(one)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block_users", [64, 300])
    def test_untied_blocks_are_decided(self, block_users, dtype):
        rng = np.random.default_rng(4)
        num_users, num_items = 300, 1000
        items = rng.normal(size=(num_items, 8)).astype(dtype)
        mask = rng.random((num_users, num_items)) < 0.02
        test_items = rng.integers(0, num_items, num_users)
        negatives = (test_items[:, None] + rng.integers(1, num_items, (num_users, 20))) % num_items
        case = {
            "mask": mask,
            "targets": np.array([3, 40, 41]),
            "k": 10,
            "test_items": test_items,
            "negatives": negatives,
            "lengths": np.full(num_users, 20),
        }
        users = rng.normal(size=(num_users, 8)).astype(dtype)
        model = _model(items)
        full = _tally(case)
        RecommenderModel.ranking_counts(model, users, block_users, full)
        walked = _tally(case)
        model.ranking_counts(users, block_users, walked)
        assert walked.fallback_blocks == 0
        assert _counts(walked) == _counts(full)

    def test_tie_on_the_boundary_falls_back(self):
        # Items 1 and 2 are copies: whether item 2 (the target) makes a
        # top-1 hangs on an exact tie, which only full scores settle (the
        # smaller id wins it).
        items = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        case = {
            "mask": np.zeros((1, 3), dtype=bool),
            "targets": np.array([2]),
            "k": 1,
            "test_items": np.array([-1]),
            "negatives": np.zeros((1, 0), dtype=np.int64),
            "lengths": np.zeros(1, dtype=np.int64),
        }
        walked = _tally(case)
        _model(items).ranking_counts(np.array([[1.0, 0.1]]), 1, walked)
        assert walked.fallback_blocks == 1
        assert _counts(walked) == ([0], [1], 0, 0)

    def test_cancellation_inside_the_margin_falls_back(self):
        # The target's exact score is 1.0, a tie with item 0, but a float
        # dot product in most orders rounds 1e16 + 1 to 1e16 and returns
        # 0.0: the pair lies inside the margin, so its top-1 decision is
        # left to the full block's own scores.
        items = np.array([[1.0, 0.0, 0.0], [1e16, 1.0, -1e16]])
        case = {
            "mask": np.zeros((1, 2), dtype=bool),
            "targets": np.array([1]),
            "k": 1,
            "test_items": np.array([-1]),
            "negatives": np.zeros((1, 0), dtype=np.int64),
            "lengths": np.zeros(1, dtype=np.int64),
        }
        users = np.ones((1, 3))
        certified = walk_block_counts(
            NormOrderedItems(items), users, _tally(case), 0, 1
        )
        assert certified is None
        full = _tally(case)
        RecommenderModel.ranking_counts(_model(items), users, 1, full)
        walked = _tally(case)
        _model(items).ranking_counts(users, 1, walked)
        assert walked.fallback_blocks == 1
        assert _counts(walked) == _counts(full)

    def test_no_settling_while_an_item_left_may_reach_the_target(self):
        # Item 1 scores 2**-50 above the target (item 2), inside the
        # margin, and comes after item 0 in norm order.  Once item 0 is
        # walked, |u| * |v_1| reaches the target within the margin, so
        # the user cannot be settled as exposed yet; walked on, the
        # top-1 decision hangs on that pair and goes to the full path,
        # where item 1 is ahead.
        items = np.array([[0.0, 5.0], [1.0 + 2.0**-50, 0.0], [1.0, 0.0]])
        case = {
            "mask": np.zeros((1, 3), dtype=bool),
            "targets": np.array([2]),
            "k": 1,
            "test_items": np.array([-1]),
            "negatives": np.zeros((1, 0), dtype=np.int64),
            "lengths": np.zeros(1, dtype=np.int64),
        }
        users = np.array([[1.0, 0.0]])
        certified = walk_block_counts(
            NormOrderedItems(items), users, _tally(case), 0, 1, tile_cells=1
        )
        assert certified is None
        full = _tally(case)
        RecommenderModel.ranking_counts(_model(items), users, 1, full)
        assert _counts(full) == ([0], [1], 0, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_float32_ties_and_near_ties_count_as_the_full_path(self, seed):
        # A float32 model scores in float32, where two evaluations of one
        # dot product (the walk's GEMM tile and its target matvec) differ
        # by about dim * 2**-24 * |u||v|: the margin is float32's.  Rows
        # copy the target (exact ties) or nudge it by one float32 ulp
        # (near-ties); K lands among them.
        rng = np.random.default_rng(seed)
        num_users, num_items, dim = 60, 48, 64
        items = rng.normal(size=(num_items, dim)).astype(np.float32)
        items[24:36] = items[3]
        items[36:] = np.nextafter(items[3], np.float32(np.inf))
        users = rng.normal(size=(num_users, dim)).astype(np.float32)
        test_items = rng.integers(0, num_items, num_users)
        case = {
            "mask": rng.random((num_users, num_items)) < 0.05,
            "targets": np.array([3, 30, 40]),
            "k": int(rng.integers(2, 30)),
            "test_items": test_items,
            "negatives": rng.integers(0, num_items, (num_users, 12)),
            "lengths": np.full(num_users, 12),
        }
        model = _model(items)
        for block_users in (7, num_users):
            full = _tally(case)
            RecommenderModel.ranking_counts(model, users, block_users, full)
            walked = _tally(case)
            model.ranking_counts(users, block_users, walked)
            assert _counts(walked) == _counts(full)


def test_mf_evaluation_peak_is_an_eighth_of_a_score_block():
    # mf-plain's catalogue and density; the full path holds one
    # (block x items) float64 score block and its masks at a time.
    dataset = generate_longtail_dataset(
        num_users=2000, num_items=6000, num_interactions=24000, seed=1
    )
    config = ExperimentConfig(
        dataset=DatasetConfig(name="custom", seed=1),
        model=ModelConfig(kind="mf", embedding_dim=16, seed=1),
        train=TrainConfig(rounds=1, users_per_round=64, lr=1.0),
        seed=1,
    )
    with FederatedSimulation(config, dataset) as sim:
        sim.run_round(0)
        score_block_bytes = sim._eval_block_users() * dataset.num_items * 8
        tracemalloc.start()
        try:
            sim.evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.eval_fallback_blocks == 0
    assert peak < score_block_bytes / 8, (peak, score_block_bytes)
