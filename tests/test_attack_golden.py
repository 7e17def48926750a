"""Golden digests for PIECK-UEA (Section IV-D, Algorithm 3, Eq. 10).

The attack's inner optimisation runs in lockstep over a round's
attackers: one stacked model call per step, per-client early exits,
per-client row draws.  These runs pin it to history, not only to the
per-client oracle in ``tests/reference/`` that it is compared with
elsewhere.

* The MF digests were recorded at ede2f34, the parent of the lockstep,
  where each client ran its own inner loop.  The lockstep must not move
  them: MF's dot product is row-wise, so stacking changes no byte.
* The NCF digests were recorded at the lockstep commit itself.  It made
  the MLP tower row-stable (the projection became a row-wise reduction
  instead of a GEMV, and the input gradient a GEMM with a contiguous
  ``W.T``), which moves NCF runs with the default ``(32, 16)`` tower in
  the last ulp, so ede2f34 gives other digests for these two cases.

The byte contract rests on NumPy's ``einsum`` and reduction order, so
the CI ``numpy-compat`` legs run this file too.

Each digest covers the item table, the interaction parameters, the
benign user-embedding matrix, the attackers' mined popular sets and the
final ER/HR after 12 rounds.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.config import AttackConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.federated.simulation import FederatedSimulation

ROUNDS = 12

#: name -> (model kind, loss, AttackConfig overrides)
CASES = {
    "mf-bce": ("mf", "bce", {}),
    "mf-bpr": ("mf", "bpr", {}),
    "mf-together": (
        "mf", "bce", {"num_targets": 3, "multi_target_strategy": "together"}
    ),
    "mf-fixed-margin": ("mf", "bce", {"adaptive_margin": False}),
    "mf-refined": ("mf", "bce", {"uea_pseudo_source": "refined"}),
    "ncf-bce": ("ncf", "bce", {}),
    "ncf-together": (
        "ncf", "bce", {"num_targets": 3, "multi_target_strategy": "together"}
    ),
}

GOLDEN = {
    # Recorded at ede2f34 (per-client inner loops).
    "mf-bce": "2631e778706c551f96a4283736ed96bb969388f11f3c9e638fcfec1ef946b468",
    "mf-bpr": "b88a2ff22ad99560e80e01907b5408b70a543321785e1ca815f4dc1deee84d7e",
    "mf-together": "06ffc2dc051ef727f5c70c61b76723454a007b66d444dd4ec31ffa273c9094b5",
    "mf-fixed-margin": "7b79763327a64ecc62a02419e40090715d924506e6081d8b63607ce619a1a3bb",
    "mf-refined": "25e656674848ddaa4994597a72df636123aa6167e86f5fe44f18bb0693d8b320",
    # Recorded at the lockstep commit (row-stable tower).
    "ncf-bce": "050e455c0ec744e49167ab04ea60a5b70b14fab9aad66487d4a93bae55369547",
    "ncf-together": "3f4a2dcabea4fd7c1063baaae46bd2144fea6171c76f39c0e9dc4a0be3a74509",
}


def _config(name: str) -> ExperimentConfig:
    kind, loss, overrides = CASES[name]
    if kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        lr = 1.0
    else:
        model = ModelConfig(kind="ncf", embedding_dim=16, mlp_layers=(32, 16), seed=3)
        lr = 0.05
    return ExperimentConfig(
        model=model,
        train=TrainConfig(
            rounds=ROUNDS, users_per_round=16, lr=lr, loss=loss, eval_every=0
        ),
        attack=AttackConfig(
            name="pieck_uea", malicious_ratio=0.2, mining_rounds=2, **overrides
        ),
        seed=3,
    )


def _digest(sim: FederatedSimulation, result) -> str:
    digest = hashlib.sha256()
    digest.update(sim.model.item_embeddings.tobytes())
    for param in sim.model.interaction_params():
        digest.update(param.tobytes())
    digest.update(np.ascontiguousarray(sim.user_embedding_matrix()).tobytes())
    digest.update(sim.malicious_cohort.miner.mined.tobytes())
    digest.update(json.dumps([result.exposure, result.hit_ratio]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_uea_digest_matches_history(tiny_dataset, name):
    sim = FederatedSimulation(_config(name), tiny_dataset)
    result = sim.run()
    # The runs exercise the inner loop: most attackers have mined.
    assert sim.malicious_cohort.miner.ready.mean() > 0.5
    assert _digest(sim, result) == GOLDEN[name]
