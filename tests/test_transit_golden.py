"""Golden digests for the upload-transit paths: async waves and faults.

Every late-upload path — the asynchronous engine's arrival events and
buffered aggregation, the synchronous fault layer's dropout, straggler
parking and corruption — is pinned here in two parts per case, after
12 rounds:

* a sha256 *state digest* of the item table, the interaction
  parameters, the benign user-embedding matrix, the audit log and the
  evaluation history, so a change to how uploads are parked, split,
  discounted or spliced that moves one bit of model state fails here,
  on either kernel backend;
* the literal non-zero counters of ``FaultStats`` and ``AsyncStats``,
  so a counter change reads as a diff rather than as a new hash.

The state digests were recomputed at commit 0c4bf18 from the runs whose
combined digests (state and counters in one hash) had been pinned since
commit 1de0239, the last commit with per-client arrival events and two
separate staleness buffers.  ``async-degenerate``, ``async-split``,
``faults-batch`` and ``faults-loop`` kept those states when one upload
ledger replaced the split accounting.  The three churn cases
(``async-poisson-mf``, ``async-poisson-ncf``, ``faults-async``) were
re-recorded on that change: churn is fault dropout, drawn from the
"fault-plan" stream instead of the "async-plan" one, so their states
moved, and every counter that fired before still fires.
``async-poisson-ncf`` did not move when the NCF tower became row-stable
after ede2f34, although runs of the default ``(32, 16)`` tower did.
The bytes ``save_result`` writes for fixed stats are pinned here too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from reference import LoopSimulation
from repro.config import (
    AsyncConfig,
    AttackConfig,
    ExperimentConfig,
    FaultConfig,
    ModelConfig,
    TrainConfig,
)
from repro import persistence
from repro.federated.async_engine import AsyncStats
from repro.federated.faults import FaultStats
from repro.federated.simulation import EvalRecord, FederatedSimulation, SimulationResult

ROUNDS = 12

#: Instant traffic with a buffer smaller than the wave: every wave's
#: single arrival event fills the buffer partway through and is split.
SPLIT = AsyncConfig(enabled=True, buffer_size=5)

#: Poisson traffic and compute and network latency; with the churn
#: (fault dropout) and staleness cap of ``CHURN``, dropouts, stale
#: discounts, stale drops and deadline closes all fire.
POISSON = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=6.0,
    compute_mean=0.2,
    network_mean=0.4,
    buffer_size=8,
    round_deadline=1.5,
)
CHURN = FaultConfig(dropout_rate=0.15, staleness_discount=0.6, max_staleness=2)

FAULTS = FaultConfig(
    dropout_rate=0.15,
    straggler_rate=0.2,
    straggler_max_delay=3,
    corruption_rate=0.1,
    corruption_mode="nan",
    min_quorum=11,
)

#: The fault rates under Poisson traffic, with ``CHURN``'s 0.15 added
#: to the dropout; stragglers land ``delay · round_interval`` late.
FAULTS_ASYNC = dataclasses.replace(
    FAULTS, dropout_rate=0.3, min_quorum=3, staleness_discount=0.6, max_staleness=2
)

#: Simulation class per engine column of ``CASES``: ``"loop"`` is the
#: per-client reference in ``tests/reference/``.
ENGINES = {"batch": FederatedSimulation, "loop": LoopSimulation}

#: name -> (model kind, engine, eval_every, config overrides)
CASES = {
    "async-degenerate": ("mf", "batch", 0, {"asynchrony": AsyncConfig(enabled=True)}),
    "async-split": ("mf", "batch", 1, {"asynchrony": SPLIT}),
    "async-poisson-mf": ("mf", "batch", 0, {"asynchrony": POISSON, "faults": CHURN}),
    "async-poisson-ncf": ("ncf", "batch", 0, {"asynchrony": POISSON, "faults": CHURN}),
    "faults-batch": ("mf", "batch", 0, {"faults": FAULTS}),
    "faults-loop": ("mf", "loop", 0, {"faults": FAULTS}),
    "faults-async": ("mf", "batch", 0, {"asynchrony": POISSON, "faults": FAULTS_ASYNC}),
}

#: name -> state digest (see the module docstring).
GOLDEN = {
    "async-degenerate": "6e7b40b1b5710980f59d2b6e88660c36a583d09614c3a198fc6ebf36352aa213",
    "async-split": "f8f4e1b51a31e6662f488eabf8786a3d17bc4d760c26d436b0d4a9330ce4f54d",
    "async-poisson-mf": "f77201d7d96a73a55ff0fd8b846653df4d9983c85494d2e60d2f38a7e9cd88b9",
    "async-poisson-ncf": "bb08a5e991e1270a4c15811ee9a39c7ef791e11e44bf0589b623e0577eefaca3",
    "faults-batch": "57722d297b01b5ce1885f1c8dc4e834a9904f03b3ac098527c682d2b77c77746",
    "faults-loop": "57722d297b01b5ce1885f1c8dc4e834a9904f03b3ac098527c682d2b77c77746",
    "faults-async": "9641d6f2b62e47584805ae24989b7f169cedc3a8feb107a8092f45580f6197c8",
}

_POISSON_WAVES = {
    "waves_dispatched": 10, "clients_dispatched": 142, "uploads_arrived": 93,
    "uploads_applied": 55, "rounds_closed_by_buffer": 11,
    "rounds_closed_by_deadline": 1, "uploads_in_flight": 29,
}
_POISSON_FATES = {
    "dropped_uploads": 20, "stale_applied": 46, "stale_dropped": 38,
    "max_staleness_applied": 2,
}
_SYNC_FAULT_FATES = {
    "dropped_uploads": 24, "deferred_uploads": 23, "stale_applied": 19,
    "max_staleness_applied": 3, "uploads_parked": 4, "corrupted_uploads": 19,
    "rejected_nonfinite": 19, "quorum_failed_rounds": 7,
    "quorum_dropped_uploads": 54,
}

#: name -> (non-zero FaultStats counters, non-zero AsyncStats counters).
STATS = {
    "async-degenerate": ({}, {
        "waves_dispatched": 12, "clients_dispatched": 174,
        "uploads_arrived": 174, "uploads_applied": 174,
        "rounds_closed_by_buffer": 5, "rounds_closed_by_deadline": 7,
    }),
    "async-split": ({"stale_applied": 34, "max_staleness_applied": 2}, {
        "waves_dispatched": 4, "clients_dispatched": 54, "uploads_arrived": 54,
        "uploads_applied": 54, "rounds_closed_by_buffer": 9,
        "rounds_closed_by_deadline": 3,
    }),
    "async-poisson-mf": (_POISSON_FATES, _POISSON_WAVES),
    "async-poisson-ncf": (_POISSON_FATES, _POISSON_WAVES),
    "faults-batch": (_SYNC_FAULT_FATES, {}),
    "faults-loop": (_SYNC_FAULT_FATES, {}),
    "faults-async": ({
        "dropped_uploads": 34, "deferred_uploads": 29, "stale_applied": 44,
        "stale_dropped": 41, "max_staleness_applied": 2, "corrupted_uploads": 16,
        "rejected_nonfinite": 10, "quorum_failed_rounds": 5,
        "quorum_dropped_uploads": 7,
    }, {
        "waves_dispatched": 10, "clients_dispatched": 142, "uploads_arrived": 91,
        "uploads_applied": 50, "rounds_closed_by_buffer": 11,
        "rounds_closed_by_deadline": 1, "uploads_in_flight": 17,
    }),
}


def _config(name: str) -> ExperimentConfig:
    kind, _, eval_every, overrides = CASES[name]
    if kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        lr = 1.0
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        lr = 0.05
    return ExperimentConfig(
        model=model,
        train=TrainConfig(
            rounds=ROUNDS, users_per_round=16, lr=lr, eval_every=eval_every
        ),
        attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2),
        seed=3,
        **overrides,
    )


def _simulation(name: str, dataset) -> FederatedSimulation:
    return ENGINES[CASES[name][1]](_config(name), dataset, audit=True)


def _state_digest(sim: FederatedSimulation, result) -> str:
    digest = hashlib.sha256()
    digest.update(sim.model.item_embeddings.tobytes())
    for param in sim.model.interaction_params():
        digest.update(param.tobytes())
    digest.update(np.ascontiguousarray(sim.user_embedding_matrix()).tobytes())
    digest.update(repr(sim.audit_log.records).encode())
    history = [[rec.round_idx, rec.exposure, rec.hit_ratio] for rec in result.history]
    digest.update(json.dumps(history).encode())
    return digest.hexdigest()


def _nonzero(record) -> dict[str, int]:
    return {name: value for name, value in record.to_dict().items() if value}


def _assert_golden(name: str, sim: FederatedSimulation, result) -> None:
    assert (_nonzero(result.fault_stats), _nonzero(result.async_stats)) == STATS[name]
    assert _state_digest(sim, result) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_transit_digest_matches_history(tiny_dataset, name):
    sim = _simulation(name, tiny_dataset)
    _assert_golden(name, sim, sim.run())


def test_resume_with_split_arrival_queued(tiny_dataset, tmp_path):
    """A checkpoint taken while the rest of a split arrival event is
    still queued resumes onto the uninterrupted run's digest."""
    ckpt_dir = str(tmp_path / "ckpt")
    first = _simulation("async-split", tiny_dataset)
    first.run(rounds=2, checkpoint_dir=ckpt_dir, checkpoint_every=2)
    # Round 2 closed partway through wave 0's arrivals.
    assert first.async_stats().uploads_in_flight > 0
    resumed = _simulation("async-split", tiny_dataset)
    result = resumed.run(checkpoint_dir=ckpt_dir, checkpoint_every=2)
    _assert_golden("async-split", resumed, result)


def test_stats_key_order_and_saved_result_bytes(tmp_path):
    """Counter key order and the ``save_result`` file are pinned too:
    both stats dicts derive from their dataclass fields, so a field
    reorder would silently change every saved result."""
    faults = FaultStats(
        **{name: i + 1 for i, name in enumerate(FaultStats.__dataclass_fields__)}
    )
    asynchrony = AsyncStats(
        **{name: 10 * (i + 1) for i, name in enumerate(AsyncStats.__dataclass_fields__)}
    )
    assert list(faults.to_dict()) == [
        "dropped_uploads", "deferred_uploads", "stale_applied",
        "stale_dropped", "max_staleness_applied", "uploads_parked",
        "corrupted_uploads", "rejected_nonfinite", "rejected_oversized",
        "quorum_failed_rounds", "quorum_dropped_uploads",
    ]
    assert list(asynchrony.to_dict()) == [
        "waves_dispatched", "clients_dispatched", "uploads_arrived",
        "uploads_applied", "rounds_closed_by_buffer",
        "rounds_closed_by_deadline", "empty_rounds", "uploads_in_flight",
    ]
    result = SimulationResult(
        exposure=0.25,
        hit_ratio=0.5,
        targets=np.array([3, 7]),
        rounds_run=4,
        history=[EvalRecord(4, 0.25, 0.5)],
        seconds_per_round=0.125,
        fault_stats=faults,
        async_stats=asynchrony,
    )
    path = tmp_path / "result.json"
    persistence.save_result(result, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6c2c9cdf931c80f2e27107f1ae1ccddb6ba69cbd060d9784a3a1e83a11bd3a12"
    )
