"""Popular item mining demo (Algorithm 1 / Fig. 4).

Shows the core observation of the paper from an attacker's seat: a
malicious client that only sees the global item-embedding matrix in
the rounds it is sampled can identify the platform's most popular
items purely from Δ-Norm — the accumulated L2 change of each item's
embedding between its observations.

Usage::

    python examples/popular_item_mining.py
"""

import numpy as np

from repro.attacks.mining import CohortMiner
from repro.experiments import experiment
from repro.federated.simulation import FederatedSimulation


def main() -> None:
    config = experiment("ml-100k", "mf", seed=1)
    sim = FederatedSimulation(config)
    data = sim.dataset
    print(
        f"Dataset: {data.num_users} users, {data.num_items} items, "
        f"{data.num_train_interactions} interactions"
    )

    # The "attacker" (a team of one, row 0): observes the global model
    # every round it would be sampled; here we let it observe every
    # round for clarity.
    miner = CohortMiner(
        data.num_items, mining_rounds=2, num_popular=10, num_clients=1
    )
    round_idx = 0
    while not miner.all_ready:
        miner.observe([0], sim.model.item_embeddings, round_idx)
        sim.run_round(round_idx)
        round_idx += 1

    mined = miner.mined[0]
    rank_of = data.popularity_rank_of()
    true_top = set(data.popularity_ranking()[:10].tolist())

    print(f"\nMined popular items after {round_idx} rounds (N=10):")
    print(f"{'item':>6} {'Δ-Norm rank':>12} {'true pop. rank':>15} {'interactions':>13}")
    popularity = data.popularity()
    for position, item in enumerate(mined):
        print(
            f"{item:>6} {position:>12} {rank_of[item]:>15} {popularity[item]:>13}"
        )

    overlap = len(set(mined.tolist()) & true_top)
    head = int(0.15 * data.num_items)
    in_head = int(np.sum(rank_of[mined] < head))
    print(f"\nOverlap with the true top-10: {overlap}/10")
    print(f"Mined items inside the popular head (top 15%): {in_head}/10")
    print("\nNo interaction data, no popularity levels — only the embedding")
    print("changes a regular participant observes (Properties 1-2).")


if __name__ == "__main__":
    main()
