"""Golden digests for the paper's client-side defense (Eq. 14-16).

The regularised runs below are pinned to sha256 digests recorded at the
commit that batched the defense: one ``CohortMiner`` block for every
benign client's popular set and one ``regularization_terms`` call for a
round's Re1/Re2 terms.  They differ from the digests of its parent,
523d100, by design: the collapsed Re1 gradient and the rank-ordered
Re2 sum replace a cosine GEMM and two GEMVs, which moves regularised
runs in the last ulp (the two forms agree to 1e-12, see
``tests/test_regularization.py``).  From here on a change that moves
one bit of a defended run fails here, on either kernel backend.

The new arithmetic relies on NumPy reducing a contiguous last axis the
same way whatever the number of rows, so the CI ``numpy-compat`` legs
run this file too.

Each digest covers the item table, the interaction parameters, the
benign user-embedding matrix, the mined popular sets and the final
ER/HR after 12 rounds of PIECK-UEA against the defense.  ``ncf-bce``
did not move when the NCF tower became row-stable after ede2f34,
although runs of the default ``(32, 16)`` tower did.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.config import (
    AttackConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.federated.simulation import FederatedSimulation

ROUNDS = 12

#: name -> (model kind, loss)
CASES = {
    "mf-bce": ("mf", "bce"),
    "mf-bpr": ("mf", "bpr"),
    "ncf-bce": ("ncf", "bce"),
}

GOLDEN = {
    "mf-bce": "cf546ac355016c3d0874eec1b4f6477dbe1464211abadbe2dc363b82fdf41d48",
    "mf-bpr": "432f07f04938f804ed8e7ee3ec5f75a9d2320f033359ba00b9ba92c7c711c128",
    "ncf-bce": "be0100cb82b1568b90f20266cb0a7a194d7cb8ad27c6916e849d254710838bce",
}


def _config(name: str) -> ExperimentConfig:
    kind, loss = CASES[name]
    if kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        lr = 1.0
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        lr = 0.05
    return ExperimentConfig(
        model=model,
        train=TrainConfig(
            rounds=ROUNDS, users_per_round=16, lr=lr, loss=loss, eval_every=0
        ),
        attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2),
        defense=DefenseConfig(name="regularization", mining_rounds=2),
        seed=3,
    )


def _digest(sim: FederatedSimulation, result) -> str:
    digest = hashlib.sha256()
    digest.update(sim.model.item_embeddings.tobytes())
    for param in sim.model.interaction_params():
        digest.update(param.tobytes())
    digest.update(np.ascontiguousarray(sim.user_embedding_matrix()).tobytes())
    digest.update(sim.state.miner.mined.tobytes())
    digest.update(json.dumps([result.exposure, result.hit_ratio]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_regdef_digest_matches_history(tiny_dataset, name):
    sim = FederatedSimulation(_config(name), tiny_dataset)
    result = sim.run()
    # The runs exercise the terms: most benign popular sets are mined.
    assert sim.state.miner.ready.sum() > sim.state.num_users // 2
    assert _digest(sim, result) == GOLDEN[name]
