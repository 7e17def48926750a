"""Tests for Δ-Norm tracking and popular item mining (Algorithm 1).

Each case drives a one-member :class:`CohortMiner` — the package's one
Algorithm 1 — keyed by the observation count, as ``ClientRegularizer``
drives it.
"""

import numpy as np
import pytest

from reference import ReferenceMiner
from repro.analysis import mining_window_study
from repro.attacks.mining import CohortMiner
from repro.federated.simulation import FederatedSimulation
from repro.rng import make_rng


def one_client(num_items, mining_rounds=10, num_popular=1):
    """A team of one; a long window keeps it accumulating."""
    return CohortMiner(num_items, mining_rounds, num_popular, 1)


def feed(miner, *matrices):
    for matrix in matrices:
        miner.observe([0], matrix, int(miner.observations[0]))


class TestDeltaNormTracker:
    def test_first_observation_initialises(self):
        miner = one_client(5)
        feed(miner, np.zeros((5, 3)))
        assert miner.observations[0] == 1
        np.testing.assert_array_equal(miner.accumulated[0], np.zeros(5))

    def test_accumulates_l2_norms(self):
        miner = one_client(3)
        m0 = np.zeros((3, 2))
        m1 = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        feed(miner, m0, m1)
        np.testing.assert_allclose(miner.accumulated[0], [5.0, 0.0, 1.0])
        feed(miner, m0)  # moving back accumulates again
        np.testing.assert_allclose(miner.accumulated[0], [10.0, 0.0, 2.0])

    def test_top_items_descending(self):
        miner = one_client(4, mining_rounds=1, num_popular=2)
        feed(miner, np.zeros((4, 2)))
        feed(miner, np.array([[1.0, 0], [3.0, 0], [2.0, 0], [0.0, 0]]))
        np.testing.assert_array_equal(miner.mined[0], [1, 2])

    def test_shape_mismatch_rejected(self):
        miner = one_client(4)
        with pytest.raises(ValueError, match="expected 4"):
            feed(miner, np.zeros((5, 2)))

    def test_observe_copies_matrix(self):
        miner = one_client(2)
        matrix = np.zeros((2, 2))
        feed(miner, matrix)
        matrix += 1.0  # mutate caller's array
        feed(miner, matrix)
        # Δ-Norm must reflect the values at observation time.
        np.testing.assert_allclose(miner.accumulated[0], [np.sqrt(2), np.sqrt(2)])


class TestPopularItemMiner:
    def test_ready_after_mining_rounds_plus_one(self):
        miner = one_client(4, mining_rounds=2, num_popular=2)
        for step in range(3):
            assert not miner.all_ready
            feed(miner, np.full((4, 2), float(step)))
        assert miner.all_ready

    def test_unmined_row_is_minus_one(self):
        miner = one_client(4, mining_rounds=2, num_popular=2)
        feed(miner, np.zeros((4, 2)))
        np.testing.assert_array_equal(miner.mined[0], [-1, -1])

    def test_mined_set_frozen_after_ready(self):
        miner = one_client(3, mining_rounds=1)
        feed(miner, np.zeros((3, 2)), np.array([[5.0, 0], [0, 0], [0, 0]]))
        first = miner.mined[0].copy()
        # Later observations (with a different top item) are ignored.
        feed(miner, np.array([[5.0, 0], [99.0, 0], [0, 0]]))
        np.testing.assert_array_equal(miner.mined[0], first)

    def test_baseline_released_on_freeze(self):
        miner = one_client(3, mining_rounds=1)
        feed(miner, np.zeros((3, 2)))
        assert miner.live_snapshots() == 1
        feed(miner, np.ones((3, 2)))
        assert miner.all_ready
        # A frozen miner takes no further delta: it must not pin a copy
        # of the item matrix for the rest of the run.
        assert miner.live_snapshots() == 0

    def test_identifies_high_churn_items(self):
        rng = make_rng(0)
        miner = one_client(10, mining_rounds=3, num_popular=3)
        matrix = np.zeros((10, 4))
        hot = [2, 5, 7]
        for _ in range(4):
            matrix = matrix.copy()
            matrix[hot] += rng.normal(scale=1.0, size=(3, 4))
            matrix += rng.normal(scale=0.01, size=(10, 4))  # background noise
            feed(miner, matrix)
        assert set(miner.mined[0].tolist()) == set(hot)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            one_client(4, 0, 2)
        with pytest.raises(ValueError):
            one_client(4, 2, 0)

    def test_mined_in_simulated_training(self, tiny_mf_config):
        """End-to-end: mining during real FRS training finds head items."""
        sim = FederatedSimulation(tiny_mf_config)
        miner = one_client(
            sim.dataset.num_items, mining_rounds=3, num_popular=10
        )
        for round_idx in range(10):
            miner.observe([0], sim.model.item_embeddings, round_idx)
            sim.run_round(round_idx)
        assert miner.all_ready
        rank_of = sim.dataset.popularity_rank_of()
        mined_ranks = rank_of[miner.mined[0]]
        head = int(0.3 * sim.dataset.num_items)
        # A clear majority of mined items are genuinely popular.
        assert (mined_ranks < head).mean() >= 0.6


def test_mining_window_study_matches_reference_miners(tiny_mf_config):
    """The study's shares equal per-window ``ReferenceMiner`` shares
    computed on the snapshots of the same clean run."""
    windows, num_popular, start_round, head_fraction = (1, 2, 4), 5, 1, 0.15
    shares = mining_window_study(
        tiny_mf_config,
        windows=windows,
        num_popular=num_popular,
        start_round=start_round,
        head_fraction=head_fraction,
    )

    sim = FederatedSimulation(tiny_mf_config)
    miners = {
        w: ReferenceMiner(sim.dataset.num_items, w, num_popular) for w in windows
    }
    for round_idx in range(start_round + max(windows) + 1):
        sim.run_round(round_idx)
        if round_idx < start_round:
            continue
        matrix = sim.model.item_embeddings
        for miner in miners.values():
            if miner.mined is None:
                miner.observe(matrix, matrix.copy())
    rank_of = sim.dataset.popularity_rank_of()
    head = max(1, int(round(sim.dataset.num_items * head_fraction)))
    expected = {
        w: float((rank_of[miner.mined] < head).mean()) for w, miner in miners.items()
    }
    assert shares == expected
