"""Defended fast-path parity suite: reference loop vs batch, bit for bit.

The batch engine's contract extends to *every* server configuration:
robust aggregators, update filters, the audit log, and the BPR loss
all run on stacked tensors (:class:`repro.federated.UpdateBatch`)
without materialising per-client updates — and must still reproduce
the reference per-client loop exactly.  This suite sweeps every
registry defense x {MF-BCE, NCF-BCE, MF-BPR} x {PIECK-UEA, PIECK-IPE,
no-attack} end to end, plus unit-level parity for each batched
building block (grouped aggregator kernels, batched filters, the
batched audit recorder, UpdateBatch round-tripping).
"""

import numpy as np
import pytest

from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
)
from repro.defenses.coordinated import ItemScaleClip
from repro.defenses.registry import DEFENSE_NAMES
from repro.defenses.robust import (
    BulyanAggregator,
    KrumAggregator,
    MedianAggregator,
    MultiKrumAggregator,
    NormBoundFilter,
    TrimmedMeanAggregator,
)
from reference import (
    ClientUpdate,
    LoopSimulation,
    filter_updates,
    from_updates,
    record,
    to_updates,
)
from repro.federated.aggregation import Aggregator
from repro.federated.simulation import FederatedSimulation
from repro.federated.update_batch import UpdateBatch

# Defense x model x attack cross-product sweeps, end to end — the
# suite's other slowest file; the marker lets CI legs split them off.
pytestmark = pytest.mark.slow

ATTACKS = ("none", "pieck_uea", "pieck_ipe")

#: (model kind, loss) variants of the sweep; BPR is the supplementary-E
#: protocol the batch engine once left to the reference loop wholesale.
VARIANTS = (("mf", "bce"), ("ncf", "bce"), ("mf", "bpr"))


def sweep_config(defense: str, attack: str, kind: str, loss: str) -> ExperimentConfig:
    """A seconds-scale config still exercising mining, poison and defense."""
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.08, seed=11),
        model=ModelConfig(
            kind=kind, embedding_dim=6, mlp_layers=(8,), seed=11
        ),
        train=TrainConfig(
            rounds=7,
            users_per_round=12,
            lr=0.5 if kind == "mf" else 0.05,
            loss=loss,
        ),
        attack=(
            AttackConfig(name=attack, malicious_ratio=0.15, mining_rounds=2)
            if attack != "none"
            else None
        ),
        defense=DefenseConfig(name=defense, assumed_malicious_ratio=0.15),
        seed=11,
    )


def assert_state_identical(a: FederatedSimulation, b: FederatedSimulation) -> None:
    assert np.array_equal(a.model.item_embeddings, b.model.item_embeddings)
    assert np.array_equal(a.user_embedding_matrix(), b.user_embedding_matrix())
    for pa, pb in zip(a.model.interaction_params(), b.model.interaction_params()):
        assert np.array_equal(pa, pb)


# ----------------------------------------------------------------------
# End-to-end sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind,loss", VARIANTS, ids=[f"{k}-{l}" for k, l in VARIANTS])
@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("defense", DEFENSE_NAMES)
def test_defended_parity(defense, attack, kind, loss):
    config = sweep_config(defense, attack, kind, loss)
    loop = LoopSimulation(config)
    batch = FederatedSimulation(config)
    for round_idx in range(config.train.rounds):
        loop.run_round(round_idx)
        batch.run_round(round_idx)
    assert_state_identical(loop, batch)


@pytest.mark.parametrize("defense", ["krum", "norm_bound", "scale_clip"])
def test_defended_audit_records_identical(defense):
    config = sweep_config(defense, "pieck_uea", "mf", "bce")
    loop = LoopSimulation(config, audit=True)
    batch = FederatedSimulation(config, audit=True)
    for round_idx in range(config.train.rounds):
        loop.run_round(round_idx)
        batch.run_round(round_idx)
    assert_state_identical(loop, batch)
    assert loop.audit_log.records == batch.audit_log.records


# ----------------------------------------------------------------------
# Grouped aggregator kernels: lane stability
# ----------------------------------------------------------------------

AGGREGATORS = [
    MedianAggregator(),
    TrimmedMeanAggregator(0.2),
    KrumAggregator(0.2),
    MultiKrumAggregator(0.2),
    BulyanAggregator(0.2),
]


@pytest.mark.parametrize("aggregator", AGGREGATORS, ids=lambda a: type(a).__name__)
@pytest.mark.parametrize("count", [1, 2, 3, 4, 9, 40])
def test_aggregate_stacks_lane_identical(aggregator, count):
    """Each lane of a grouped call equals the per-item scalar call."""
    rng = np.random.default_rng(count)
    stacks = rng.normal(size=(13, count, 5))
    batched = aggregator.aggregate_stacks(stacks)
    for lane in range(len(stacks)):
        assert np.array_equal(batched[lane], aggregator.aggregate(stacks[lane]))


def test_aggregate_stacks_param_tensors():
    """Grouped kernels accept arbitrary trailing parameter shapes."""
    rng = np.random.default_rng(0)
    stacks = rng.normal(size=(4, 7, 3, 5))
    for aggregator in AGGREGATORS:
        batched = aggregator.aggregate_stacks(stacks)
        assert batched.shape == (4, 3, 5)
        for lane in range(4):
            assert np.array_equal(batched[lane], aggregator.aggregate(stacks[lane]))


def test_default_aggregate_stacks_loops():
    """Third-party aggregators fall back to the per-group loop."""

    class LastWins(Aggregator):
        def aggregate(self, grads):
            return self._check(grads)[-1]

    stacks = np.arange(24, dtype=float).reshape(2, 3, 4)
    out = LastWins().aggregate_stacks(stacks)
    assert np.array_equal(out, stacks[:, -1])


# ----------------------------------------------------------------------
# Batched filters vs the reference update filters
# ----------------------------------------------------------------------


def random_round(rng, clients=9, num_items=30, dim=4, with_params=False, scale=1.0):
    updates = []
    for user_id in range(clients):
        n = int(rng.integers(1, 8))
        ids = np.sort(rng.choice(num_items, size=n, replace=False))
        params = (
            [scale * rng.normal(size=(3, 2)), scale * rng.normal(size=2)]
            if with_params and user_id % 2 == 0
            else []
        )
        updates.append(
            ClientUpdate(
                user_id=user_id,
                item_ids=ids,
                item_grads=scale * rng.normal(size=(n, dim)),
                param_grads=params,
                malicious=bool(user_id % 3 == 0),
            )
        )
    return updates


def assert_updates_equal(expected, got):
    assert len(expected) == len(got)
    for e, g in zip(expected, got):
        assert e.user_id == g.user_id
        assert e.malicious == g.malicious
        assert np.array_equal(e.item_ids, g.item_ids)
        assert np.array_equal(e.item_grads, g.item_grads)
        assert len(e.param_grads) == len(g.param_grads)
        for pe, pg in zip(e.param_grads, g.param_grads):
            assert np.array_equal(pe, pg)


@pytest.mark.parametrize("threshold", [0.0, 1.5])
@pytest.mark.parametrize("with_params", [False, True])
def test_norm_bound_filter_batch_matches_reference(threshold, with_params):
    updates = random_round(
        np.random.default_rng(3), with_params=with_params, scale=2.0
    )
    reference = filter_updates(NormBoundFilter(threshold), updates)
    batch = NormBoundFilter(threshold).filter_batch(from_updates(updates))
    assert_updates_equal(list(reference), to_updates(batch))


def test_scale_clip_filter_batch_matches_reference():
    rng = np.random.default_rng(4)
    updates = random_round(rng)
    # One flooding attacker with oversized rows.
    updates.append(
        ClientUpdate(
            user_id=99,
            item_ids=np.array([1, 5]),
            item_grads=200.0 * rng.normal(size=(2, 4)),
            malicious=True,
        )
    )
    reference_filter = ItemScaleClip(factor=0.5, history=0.5)
    batch_filter = ItemScaleClip(factor=0.5, history=0.5)
    for _ in range(3):  # EMA state must advance identically across rounds
        reference = filter_updates(reference_filter, updates)
        filtered = batch_filter.filter_batch(from_updates(updates))
        assert_updates_equal(list(reference), to_updates(filtered))
    assert reference_filter._smoothed_median == batch_filter._smoothed_median


# ----------------------------------------------------------------------
# Batched audit recorder
# ----------------------------------------------------------------------


def test_record_batch_matches_record():
    from repro.federated.audit import ServerAuditLog

    rng = np.random.default_rng(6)
    reference, batched = ServerAuditLog(), ServerAuditLog()
    for round_idx in range(3):
        updates = random_round(rng, clients=7)
        record(reference, updates)
        batched.record_batch(from_updates(updates))
    assert reference.rounds_recorded == batched.rounds_recorded
    assert reference.records == batched.records


# ----------------------------------------------------------------------
# UpdateBatch structure
# ----------------------------------------------------------------------


class TestUpdateBatch:
    def test_roundtrip(self):
        updates = random_round(np.random.default_rng(7), with_params=True)
        batch = from_updates(updates)
        assert_updates_equal(updates, to_updates(batch))

    def test_client_total_norms_match_updates(self):
        updates = random_round(np.random.default_rng(8), with_params=True)
        batch = from_updates(updates)
        norms = batch.client_total_norms()
        for update, norm in zip(updates, norms):
            assert norm == update.total_norm

    def test_scaled_by_client_identity_is_bitwise_noop(self):
        updates = random_round(np.random.default_rng(9), with_params=True)
        batch = from_updates(updates)
        scaled = batch.scaled_by_client(np.ones(batch.num_clients))
        assert np.array_equal(scaled.item_grads, batch.item_grads)
        for a, b in zip(scaled.param_stacks, batch.param_stacks):
            assert np.array_equal(a, b)

    def test_empty(self):
        batch = from_updates([])
        assert batch.num_clients == 0
        assert to_updates(batch) == []
