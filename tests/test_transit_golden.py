"""Golden digests for the upload-transit paths: async waves and faults.

Every late-upload path — the asynchronous engine's arrival events and
buffered aggregation, the synchronous fault layer's dropout, straggler
parking and corruption — is pinned here to sha256 digests recorded at
commit 1de0239 (the last commit with per-client arrival events and two
separate staleness buffers).  The digests anchor the transit layer to
history rather than to a sibling path that could drift with it: a
change to how uploads are parked, split, discounted or spliced that
moves one bit of model state, one counter or one audit record fails
here, on either kernel backend.

Each digest covers the item table, the interaction parameters, the
benign user-embedding matrix, the audit log, the evaluation history
and ``FaultStats.to_dict()`` / ``AsyncStats.to_dict()`` after 12
rounds.  The bytes ``save_result`` writes for fixed stats are pinned
from the same commit.  ``async-poisson-ncf`` did not move when the NCF
tower became row-stable (row-wise projection, contiguous ``W.T``)
after ede2f34, although runs of the default ``(32, 16)`` tower did.

The POISSON cases held their digests when the staleness pair moved
from ``AsyncConfig`` to ``FaultConfig`` (``STALENESS``) and one upload
transit stage replaced the fault and async plans.  ``faults-async`` is
younger: it was recorded on that change, because its parent commit
eaaf705 refuses faults × async.
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

#: Poisson traffic, compute and network latency and churn; with the
#: staleness cap of ``STALENESS``, stale discounts, drops and deadline
#: closes all fire.
POISSON = AsyncConfig(
    enabled=True,
    traffic="poisson",
    arrival_rate=6.0,
    compute_mean=0.2,
    network_mean=0.4,
    churn_rate=0.15,
    buffer_size=8,
    round_deadline=1.5,
)
STALENESS = FaultConfig(staleness_discount=0.6, max_staleness=2)

FAULTS = FaultConfig(
    dropout_rate=0.15,
    straggler_rate=0.2,
    straggler_max_delay=3,
    corruption_rate=0.1,
    corruption_mode="nan",
    min_quorum=11,
)

#: The fault rates under Poisson traffic: dropout joins churn in one
#: cancel mask, stragglers land ``delay · round_interval`` late.
FAULTS_ASYNC = dataclasses.replace(
    FAULTS, min_quorum=3, staleness_discount=0.6, max_staleness=2
)

#: Simulation class per engine column of ``CASES``: ``"loop"`` is the
#: per-client reference in ``tests/reference/``.
ENGINES = {"batch": FederatedSimulation, "loop": LoopSimulation}

#: name -> (model kind, engine, eval_every, config overrides)
CASES = {
    "async-degenerate": ("mf", "batch", 0, {"asynchrony": AsyncConfig(enabled=True)}),
    "async-split": ("mf", "batch", 1, {"asynchrony": SPLIT}),
    "async-poisson-mf": ("mf", "batch", 0, {"asynchrony": POISSON, "faults": STALENESS}),
    "async-poisson-ncf": ("ncf", "batch", 0, {"asynchrony": POISSON, "faults": STALENESS}),
    "faults-batch": ("mf", "batch", 0, {"faults": FAULTS}),
    "faults-loop": ("mf", "loop", 0, {"faults": FAULTS}),
    "faults-async": ("mf", "batch", 0, {"asynchrony": POISSON, "faults": FAULTS_ASYNC}),
}

GOLDEN = {
    "async-degenerate": "099483fd15088d231d77309cab534e0c66cd46bdac06db1f99f72ca0862a3592",
    "async-split": "b530bdf7870f4dbe3ce283779c117c908ad108a850e19b408bc484c2bfaf0e12",
    "async-poisson-mf": "776b6113151e372bc15b6f0380234a1e65836c19adcf43c0d9fb8f2e8526a6a4",
    "async-poisson-ncf": "97e16ebe3bcf93a9e27aeadd8fdc45952cc2e0776c654e6bfa407f0d59795910",
    "faults-batch": "725441874305a18b9c2421363dcb6460a307e9f6a6b5f2946ccc88ed1cefbf8b",
    "faults-loop": "725441874305a18b9c2421363dcb6460a307e9f6a6b5f2946ccc88ed1cefbf8b",
    "faults-async": "63ab477b1613ab2bbac127ce500042f6f27daf57c087bdf114335340d3e60c70",
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


def _digest(sim: FederatedSimulation, result) -> str:
    digest = hashlib.sha256()
    digest.update(sim.model.item_embeddings.tobytes())
    for param in sim.model.interaction_params():
        digest.update(param.tobytes())
    digest.update(np.ascontiguousarray(sim.user_embedding_matrix()).tobytes())
    digest.update(repr(sim.audit_log.records).encode())
    record = {
        "history": [
            [rec.round_idx, rec.exposure, rec.hit_ratio] for rec in result.history
        ],
        "fault_stats": result.fault_stats.to_dict(),
        "async_stats": result.async_stats.to_dict(),
    }
    digest.update(json.dumps(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_transit_digest_matches_history(tiny_dataset, name):
    sim = _simulation(name, tiny_dataset)
    assert _digest(sim, sim.run()) == GOLDEN[name]


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
    assert _digest(resumed, result) == GOLDEN["async-split"]


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
        "stale_pending", "corrupted_uploads", "rejected_nonfinite",
        "rejected_oversized", "quorum_failed_rounds", "quorum_dropped_uploads",
    ]
    assert list(asynchrony.to_dict()) == [
        "waves_dispatched", "clients_dispatched", "uploads_cancelled",
        "uploads_arrived", "uploads_applied", "stale_applied", "stale_dropped",
        "max_staleness_applied", "rounds_closed_by_buffer",
        "rounds_closed_by_deadline", "empty_rounds", "uploads_in_flight",
        "uploads_buffered",
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
        "f2ec4141d47e559bce72fa7f64503adeda6d8a4640012f075b2d8c755fa1d85e"
    )
