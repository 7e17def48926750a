"""Tests for Δ-Norm tracking and popular item mining (Algorithm 1)."""

import numpy as np
import pytest

from repro.attacks.mining import DeltaNormTracker, PopularItemMiner
from repro.rng import make_rng


class TestDeltaNormTracker:
    def test_first_observation_initialises(self):
        tracker = DeltaNormTracker(5)
        tracker.observe(np.zeros((5, 3)))
        assert tracker.num_deltas == 0
        np.testing.assert_array_equal(tracker.accumulated, np.zeros(5))

    def test_accumulates_l2_norms(self):
        tracker = DeltaNormTracker(3)
        m0 = np.zeros((3, 2))
        m1 = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        tracker.observe(m0)
        tracker.observe(m1)
        np.testing.assert_allclose(tracker.accumulated, [5.0, 0.0, 1.0])
        tracker.observe(m0)  # moving back accumulates again
        np.testing.assert_allclose(tracker.accumulated, [10.0, 0.0, 2.0])

    def test_top_items_descending(self):
        tracker = DeltaNormTracker(4)
        tracker.observe(np.zeros((4, 2)))
        tracker.observe(np.array([[1.0, 0], [3.0, 0], [2.0, 0], [0.0, 0]]))
        np.testing.assert_array_equal(tracker.top_items(2), [1, 2])

    def test_shape_mismatch_rejected(self):
        tracker = DeltaNormTracker(4)
        with pytest.raises(ValueError, match="expected 4"):
            tracker.observe(np.zeros((5, 2)))

    def test_observe_copies_matrix(self):
        tracker = DeltaNormTracker(2)
        matrix = np.zeros((2, 2))
        tracker.observe(matrix)
        matrix += 1.0  # mutate caller's array
        tracker.observe(matrix)
        # Δ-Norm must reflect the values at observation time.
        np.testing.assert_allclose(tracker.accumulated, [np.sqrt(2), np.sqrt(2)])

    def test_top_items_cached_between_observations(self):
        tracker = DeltaNormTracker(4)
        tracker.observe(np.zeros((4, 2)))
        tracker.observe(np.eye(4, 2))
        first = tracker.top_items(3)
        assert tracker.top_items(3) is not None
        assert tracker._order is not None  # cached, no re-sort
        # Only the requested prefix is retained (a full permutation per
        # tracker would not scale to production catalogues) ...
        assert len(tracker._order) == 3
        again = tracker.top_items(2)
        assert np.array_equal(first[:2], again)
        # ... and a larger request re-sorts and still matches.
        assert np.array_equal(tracker.top_items(4)[:3], first)
        tracker.observe(np.ones((4, 2)))
        assert tracker._order is None  # invalidated by new observation


class TestPopularItemMiner:
    def test_ready_after_mining_rounds_plus_one(self):
        miner = PopularItemMiner(4, mining_rounds=2, num_popular=2)
        for step in range(3):
            assert not miner.ready
            miner.observe(np.full((4, 2), float(step)))
        assert miner.ready

    def test_not_ready_raises(self):
        miner = PopularItemMiner(4, 2, 2)
        with pytest.raises(RuntimeError, match="not mined"):
            miner.popular_items()

    def test_mined_set_frozen_after_ready(self):
        miner = PopularItemMiner(3, 1, 1)
        miner.observe(np.zeros((3, 2)))
        miner.observe(np.array([[5.0, 0], [0, 0], [0, 0]]))
        first = miner.popular_items().copy()
        # Later observations (with a different top item) are ignored.
        miner.observe(np.array([[5.0, 0], [99.0, 0], [0, 0]]))
        np.testing.assert_array_equal(miner.popular_items(), first)

    def test_baseline_released_on_freeze(self):
        miner = PopularItemMiner(3, 1, 1)
        miner.observe(np.zeros((3, 2)))
        assert miner._tracker._last is not None
        miner.observe(np.ones((3, 2)))
        assert miner.ready
        # A frozen miner takes no further delta: it must not pin a copy
        # of the item matrix for the rest of the run.
        assert miner._tracker._last is None

    def test_identifies_high_churn_items(self):
        rng = make_rng(0)
        miner = PopularItemMiner(10, mining_rounds=3, num_popular=3)
        matrix = np.zeros((10, 4))
        hot = [2, 5, 7]
        for _ in range(4):
            matrix = matrix.copy()
            matrix[hot] += rng.normal(scale=1.0, size=(3, 4))
            matrix += rng.normal(scale=0.01, size=(10, 4))  # background noise
            miner.observe(matrix)
        assert set(miner.popular_items().tolist()) == set(hot)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PopularItemMiner(4, 0, 2)
        with pytest.raises(ValueError):
            PopularItemMiner(4, 2, 0)

    def test_mined_in_simulated_training(self, tiny_mf_config):
        """End-to-end: mining during real FRS training finds head items."""
        from repro.federated.simulation import FederatedSimulation

        sim = FederatedSimulation(tiny_mf_config)
        miner = PopularItemMiner(
            sim.dataset.num_items, mining_rounds=3, num_popular=10
        )
        for round_idx in range(10):
            miner.observe(sim.model.item_embeddings)
            sim.run_round(round_idx)
        assert miner.ready
        rank_of = sim.dataset.popularity_rank_of()
        mined_ranks = rank_of[miner.popular_items()]
        head = int(0.3 * sim.dataset.num_items)
        # A clear majority of mined items are genuinely popular.
        assert (mined_ranks < head).mean() >= 0.6
