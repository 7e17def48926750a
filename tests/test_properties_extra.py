"""Property-based tests for the modules added on top of the core stack:

ranking-metric invariants, the pseudo-user refiner, the coordinated
defense clip, and the seed-sweep summaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import ClientUpdate, filter_updates
from reference.scalar import exposure_ratio_at_k, top_k_items
from repro.attacks.refinement import PseudoUserRefiner
from repro.defenses.coordinated import ItemScaleClip
from repro.experiments.runner import Cell
from repro.experiments.stability import SeedSweep
from repro.federated.update_batch import UpdateBatch
from repro.models.mf import MFModel

_finite = st.floats(-50.0, 50.0, allow_nan=False)


class TestRankingMetricProperties:
    @given(
        arrays(np.float64, (6, 12), elements=_finite),
        st.integers(1, 8),
        st.integers(0, 11),
    )
    @settings(max_examples=60, deadline=None)
    def test_exposure_ratio_in_unit_interval(self, scores, k, target):
        mask = np.zeros_like(scores, dtype=bool)
        er = exposure_ratio_at_k(scores, mask, np.array([target]), k)
        assert 0.0 <= er <= 1.0

    @given(arrays(np.float64, (5, 10), elements=_finite), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_exposure_monotone_in_k(self, scores, target):
        mask = np.zeros_like(scores, dtype=bool)
        targets = np.array([target])
        ers = [
            exposure_ratio_at_k(scores, mask, targets, k) for k in (1, 3, 5, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(ers, ers[1:]))

    @given(arrays(np.float64, (4, 9), elements=_finite), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_top_k_scores_dominate_rest(self, scores, k):
        mask = np.zeros_like(scores, dtype=bool)
        top = top_k_items(scores, mask, k)
        for user in range(scores.shape[0]):
            chosen = set(top[user].tolist())
            rest = [j for j in range(scores.shape[1]) if j not in chosen]
            if rest:
                assert scores[user, top[user]].min() >= max(
                    scores[user, rest]
                ) - 1e-12


class TestRefinerProperties:
    @given(
        st.integers(2, 6),     # popular set size
        st.integers(1, 4),     # pseudo-user count
        st.integers(0, 100),   # seed
    )
    @settings(max_examples=25, deadline=None)
    def test_refined_vectors_always_finite(self, num_popular, count, seed):
        model = MFModel(20, 6, init_scale=0.2, seed=seed)
        refiner = PseudoUserRefiner(
            20, 6, np.arange(num_popular), count=count, steps=15, seed=seed
        )
        vecs = refiner.refine(model)
        assert vecs.shape == (count, 6)
        assert np.isfinite(vecs).all()

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_refinement_reduces_profile_loss(self, seed):
        """Refinement must improve its own objective: populars score
        higher than non-populars after refining."""
        model = MFModel(30, 8, init_scale=0.3, seed=seed)
        popular = np.arange(6)
        refiner = PseudoUserRefiner(30, 8, popular, count=3, steps=60, seed=seed)
        vecs = refiner.refine(model)
        pop_scores = vecs @ model.item_embeddings[popular].T
        other_scores = vecs @ model.item_embeddings[6:].T
        assert pop_scores.mean() > other_scores.mean()


class TestScaleClipProperties:
    @given(
        st.lists(
            st.floats(0.01, 5.0), min_size=3, max_size=10
        ),
        # Idempotence requires factor >= 1: a contractive factor (< 1)
        # lowers the median itself, so re-clipping keeps shrinking.
        st.floats(1.0, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_clip_is_idempotent(self, norms, factor):
        updates = [
            ClientUpdate(
                user_id=i,
                item_ids=np.array([0, 1]),
                item_grads=np.array([[n, 0.0], [0.0, n]]),
            )
            for i, n in enumerate(norms)
        ]
        clip = ItemScaleClip(factor=factor, history=0.0)
        once = filter_updates(clip, updates)
        # Re-clipping the already-clipped round must change nothing
        # (same median, all rows already under the bound).
        again = filter_updates(ItemScaleClip(factor=factor, history=0.0), once)
        for a, b in zip(once, again):
            assert np.allclose(a.item_grads, b.item_grads)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_clip_preserves_row_directions(self, norms):
        rng = np.random.default_rng(0)
        directions = rng.normal(0, 1, (len(norms), 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        updates = [
            ClientUpdate(
                user_id=i,
                item_ids=np.array([0]),
                item_grads=(n * d)[None, :],
            )
            for i, (n, d) in enumerate(zip(norms, directions))
        ]
        clipped = filter_updates(ItemScaleClip(factor=1.0, history=0.0), updates)
        for original_dir, update in zip(directions, clipped):
            row = update.item_grads[0]
            norm = np.linalg.norm(row)
            assert norm > 0
            assert np.allclose(row / norm, original_dir, atol=1e-9)


class TestSeedSweepProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mean_between_min_and_max(self, pairs):
        cells = tuple(Cell(er=e, hr=h) for e, h in pairs)
        sweep = SeedSweep(seeds=tuple(range(len(cells))), cells=cells)
        assert sweep.er_min - 1e-9 <= sweep.er_mean <= sweep.er_max + 1e-9
        assert sweep.er_std >= 0.0
        assert sweep.hr_std >= 0.0


class TestUpdateBatchSplicing:
    """``concat`` of a batch's contiguous client slices is the batch."""

    @staticmethod
    def _arrays(batch: UpdateBatch) -> list[np.ndarray]:
        return [
            batch.user_ids,
            batch.item_ids,
            batch.item_grads,
            batch.lengths,
            batch.param_owners,
            batch.malicious,
            *batch.param_stacks,
        ]

    @given(
        lengths=st.lists(st.integers(0, 4), min_size=1, max_size=8),
        owner_mask=st.lists(st.booleans(), min_size=8, max_size=8),
        num_params=st.integers(0, 2),
        cuts=st.sets(st.integers(1, 7)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_concat_of_slices_is_byte_identical(
        self, lengths, owner_mask, num_params, cuts, seed
    ):
        rng = np.random.default_rng(seed)
        clients = len(lengths)
        owners = np.flatnonzero(owner_mask[:clients]) if num_params else []
        batch = UpdateBatch(
            user_ids=rng.permutation(100)[:clients].astype(np.int64),
            item_ids=rng.integers(0, 50, size=sum(lengths)),
            item_grads=rng.normal(size=(sum(lengths), 3)),
            lengths=np.array(lengths, dtype=np.int64),
            param_stacks=[
                rng.normal(size=(len(owners), 2, i + 1)) for i in range(num_params)
            ],
            param_owners=np.array(owners, dtype=np.int64),
            malicious=rng.random(clients) < 0.3,
        )
        assert UpdateBatch.concat([batch]) is batch
        bounds = [0, *sorted(c for c in cuts if c < clients), clients]
        parts = [
            batch.client_slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])
        ]
        assert all(
            np.shares_memory(part.item_grads, batch.item_grads)
            for part in parts
            if part.item_grads.size
        )
        rebuilt = UpdateBatch.concat(parts)
        for got, want in zip(self._arrays(rebuilt), self._arrays(batch)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert len(rebuilt.param_stacks) == len(batch.param_stacks)
