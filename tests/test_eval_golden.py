"""Golden digests for NCF evaluation: Eq. 1 over the whole catalogue, Eq. 3.

ER@K and HR@K score every (user, item) pair through the MLP tower, in
:meth:`NCFModel.score_matrix`'s factorised tile loop.  These values pin
that loop to history, not only to the pairwise ``forward`` it is
compared with in ``tests/test_models.py`` (to a few ulp):

* ``SCORE_GOLDEN``: sha256 of the score bytes, per tower, for one call
  at the default tile and for one call cut into three-user tiles.  Each
  BLAS call stays below OpenBLAS's threading thresholds (at most 481
  pair rows), so the bytes do not depend on the thread count.  The two
  tilings differ for three of the four towers: the projection GEMV
  rounds the last ``n mod 4`` pairs of a call with another kernel, so
  tile boundaries are part of the scores (see ``_SCORE_TILE_PAIRS``).
* ``COUNT_GOLDEN``: the integer ER/HR counts that
  :meth:`FederatedSimulation.evaluate` divides, after a short PIECK-UEA
  run, scored in one block and in blocks of seven users.

All values were recorded at bee73ef, where both ReLUs of the tile loop
still took the scalar operand ``0.0``.  The zero-array operand that
replaced it gives the same bytes, so nothing here moved.  The byte
contract rests on NumPy's ``maximum`` and OpenBLAS's kernel choice, so
the CI ``numpy-compat`` legs run this file too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.federated.simulation as simulation_module
import repro.models.ncf as ncf_module
from repro.config import AttackConfig, ExperimentConfig, ModelConfig, TrainConfig
from repro.federated.simulation import FederatedSimulation
from repro.models.ncf import NCFModel

NUM_USERS, NUM_ITEMS, DIM = 13, 37, 8

#: (tower, tile) -> sha256 of ``score_matrix`` bytes; tile "default" is
#: the module's ``_SCORE_TILE_PAIRS``, "3 users" is ``3 * NUM_ITEMS``.
SCORE_GOLDEN = {
    ((32, 16), "default"): "e994083ce511ceb36a708b3714c2db86d0fc67992ea5c50e50231c502ec4538f",
    ((32, 16), "3 users"): "b129eb155eb9e5ef5efefeeb10d52b30a848cdc615f465680d29bfc6f3a037c1",
    ((16, 8), "default"): "04d4dd6be548897e9bb2b92c9b32f9345216219cf0edd65da7ced2c53acc96ce",
    ((16, 8), "3 users"): "46e7099469c80d298f6db45d975bbf7a0dcd2d307dec5cdf968c11981aec87b6",
    ((8,), "default"): "1887d0256034d1763c3763099c7b26ad5a0e062bdff4b8f288fbb00ff83eed6e",
    ((8,), "3 users"): "ebf858e71e5b05efc9fc1b19e3415ce60c934406eeb892aa02f8ccffc6b364d4",
    ((8, 6, 4), "default"): "ad9d1f86121203553d3da3d56269131d776def528b2bcf1ca9846e8362bbbaec",
    ((8, 6, 4), "3 users"): "ad9d1f86121203553d3da3d56269131d776def528b2bcf1ca9846e8362bbbaec",
}

#: eval_chunk_users -> (ER hits per target, ER eligible per target,
#: HR hits, HR total)
COUNT_GOLDEN = {
    None: ([18, 36, 27], [38, 36, 35], 9, 40),
    7: ([18, 36, 27], [38, 36, 35], 9, 40),
}


def _score_digest(monkeypatch, tower, tile) -> str:
    if tile == "3 users":
        monkeypatch.setattr(ncf_module, "_SCORE_TILE_PAIRS", 3 * NUM_ITEMS)
    model = NCFModel(NUM_ITEMS, DIM, mlp_layers=tower, seed=21)
    users = np.random.default_rng(22).normal(scale=0.3, size=(NUM_USERS, DIM))
    return hashlib.sha256(model.score_matrix(users).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "tower, tile",
    sorted(SCORE_GOLDEN),
    ids=lambda case: "x".join(map(str, case)) if isinstance(case, tuple) else case,
)
def test_score_bytes_match_history(monkeypatch, tower, tile):
    assert _score_digest(monkeypatch, tower, tile) == SCORE_GOLDEN[tower, tile]


def _eval_counts(dataset, monkeypatch, eval_chunk_users):
    config = ExperimentConfig(
        model=ModelConfig(kind="ncf", embedding_dim=16, mlp_layers=(32, 16), seed=3),
        train=TrainConfig(
            rounds=8,
            users_per_round=16,
            lr=0.05,
            eval_every=0,
            eval_chunk_users=eval_chunk_users,
        ),
        attack=AttackConfig(
            name="pieck_uea", malicious_ratio=0.1, mining_rounds=2, num_targets=3
        ),
        seed=3,
    )
    sim = FederatedSimulation(config, dataset)
    sim.run()
    counts = {}
    exposure_ratio = simulation_module.exposure_ratio_from_counts
    hit_ratio = simulation_module.hit_ratio_from_counts

    def exposure_spy(hits, eligible):
        counts["er"] = (hits.tolist(), eligible.tolist())
        return exposure_ratio(hits, eligible)

    def hit_spy(hits, total):
        counts["hr"] = (int(hits), int(total))
        return hit_ratio(hits, total)

    monkeypatch.setattr(simulation_module, "exposure_ratio_from_counts", exposure_spy)
    monkeypatch.setattr(simulation_module, "hit_ratio_from_counts", hit_spy)
    result = sim.evaluate()
    return (*counts["er"], *counts["hr"]), result


@pytest.mark.parametrize("eval_chunk_users", [None, 7])
def test_eval_counts_match_history(tiny_dataset, monkeypatch, eval_chunk_users):
    counts, (exposure, hit_ratio) = _eval_counts(
        tiny_dataset, monkeypatch, eval_chunk_users
    )
    assert counts == COUNT_GOLDEN[eval_chunk_users]
    er_hits, er_eligible, hr_hits, hr_total = counts
    assert exposure == np.mean(np.divide(er_hits, er_eligible))
    assert hit_ratio == hr_hits / hr_total
