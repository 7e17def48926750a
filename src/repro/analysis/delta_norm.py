"""Δ-Norm vs popularity study (Fig. 4, Properties 1-2).

Trains a clean FRS while recording the global item matrix every round,
then asks: of the top-50 items by per-round Δ-Norm (Eq. 7), how many
are popular? The paper's claim — reproduced here — is that popular
items dominate the top Δ-Norm ranks, increasingly so as unpopular
items converge (rounds 4 → 80).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ExperimentConfig
from repro.datasets.base import InteractionDataset
from repro.federated.simulation import FederatedSimulation

__all__ = ["DeltaNormStudy", "run_delta_norm_study", "mining_window_study"]


@dataclass
class DeltaNormStudy:
    """Per-round Δ-Norm top-K popularity ranks for a clean training run."""

    rounds: list[int]
    #: ``top_popularity_ranks[i]`` = popularity ranks (0 = most popular)
    #: of the top-K items by Δ-Norm at ``rounds[i]``.
    top_popularity_ranks: list[np.ndarray] = field(default_factory=list)
    #: Fraction of the top-K Δ-Norm items that are popular (head) items.
    popular_share: list[float] = field(default_factory=list)

    def share_at(self, round_idx: int) -> float:
        """Popular share of the Δ-Norm top-K at a recorded round."""
        return self.popular_share[self.rounds.index(round_idx)]


def run_delta_norm_study(
    config: ExperimentConfig,
    *,
    probe_rounds: tuple[int, ...] = (4, 8, 20, 80),
    top_k: int = 50,
    head_fraction: float = 0.15,
    dataset: InteractionDataset | None = None,
) -> DeltaNormStudy:
    """Reproduce Fig. 4 for the configured model/dataset.

    Runs a clean (attack-free) simulation long enough to cover the last
    probe round, recording global item snapshots, then ranks items by
    single-round Δ-Norm at each probe round.
    """
    if config.attack is not None:
        raise ValueError("the Δ-Norm study uses a clean (attack-free) run")
    max_round = max(probe_rounds)
    sim = FederatedSimulation(config, dataset=dataset)
    result = sim.run(rounds=max_round + 1, record_item_history=True)
    snapshots = result.item_history  # one per round + final

    pop_rank = sim.dataset.popularity_rank_of()
    head = max(1, int(round(sim.dataset.num_items * head_fraction)))
    study = DeltaNormStudy(rounds=list(probe_rounds))
    for round_idx in probe_rounds:
        delta = np.linalg.norm(
            snapshots[round_idx + 1] - snapshots[round_idx], axis=1
        )
        top = np.argsort(-delta, kind="stable")[: min(top_k, len(delta))]
        ranks = pop_rank[top]
        study.top_popularity_ranks.append(ranks)
        study.popular_share.append(float((ranks < head).mean()))
    return study


def mining_window_study(
    config: ExperimentConfig,
    *,
    windows: tuple[int, ...] = (1, 2, 4, 8),
    num_popular: int = 10,
    start_round: int = 0,
    head_fraction: float = 0.15,
    dataset: InteractionDataset | None = None,
) -> dict[int, float]:
    """Ablate Algorithm 1's accumulation window R-tilde.

    Runs one clean training run, mines the popular set with a separate
    miner per window R-tilde (all observing the same snapshots from
    ``start_round`` on), and returns ``{window: popular_share}`` where
    the share is the fraction of the mined top-N that belongs to the
    head (top ``head_fraction``) of the true popularity ranking.
    """
    from repro.attacks.mining import CohortMiner

    if config.attack is not None:
        raise ValueError("the mining-window study uses a clean run")
    if not windows:
        raise ValueError("need at least one window")
    sim = FederatedSimulation(config, dataset=dataset)
    miners = {
        window: CohortMiner(sim.dataset.num_items, window, num_popular, 1)
        for window in windows
    }
    total_rounds = start_round + max(windows) + 1
    for round_idx in range(total_rounds):
        sim.run_round(round_idx)
        if round_idx < start_round:
            continue
        for miner in miners.values():
            miner.observe([0], sim.model.item_embeddings, round_idx)
    pop_rank = sim.dataset.popularity_rank_of()
    head = max(1, int(round(sim.dataset.num_items * head_fraction)))
    return {
        window: float((pop_rank[miner.mined[0]] < head).mean())
        for window, miner in miners.items()
    }
