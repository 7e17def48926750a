"""Loop-vs-batch engine parity and batch building-block unit tests.

The batch engine's contract is *bit-identical trajectories*: for any
seed, ``FederatedSimulation`` must reproduce the per-client reference
loop (``reference.LoopSimulation``) exactly — same RNG draws, same gradients, same model updates, same
evaluation history. These tests assert that end to end and for each
vectorised building block (seed derivation, negative sampling, ragged
batch stacking, the fused scatter, the batched local step).
"""

import numpy as np
import pytest

from reference import ClientUpdate, LoopSimulation, apply_updates, from_updates
from reference.scalar import bce_loss_and_grad, ragged_csr, sample_local_batch
from repro.config import (
    AttackConfig,
    DatasetConfig,
    DefenseConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    replace,
)
from repro.datasets.sampling import (
    sample_local_batches,
    sample_negatives,
    sample_negatives_batch,
)
from repro.federated.aggregation import SumAggregator, scatter_sum
from repro.federated.server import Server
from repro.federated.simulation import FederatedSimulation
from repro.models.base import build_model, segment_sums
from repro.rng import (
    _seed_sequence_states,
    derive_seed,
    derive_seed_batch,
    spawn,
    spawn_batch,
)


def run_both(config, rounds=None, **kwargs):
    loop = LoopSimulation(config, **kwargs).run(rounds)
    batch = FederatedSimulation(config, **kwargs).run(rounds)
    return loop, batch


def assert_identical_runs(loop, batch):
    """Both engines must produce the same history bit for bit."""
    assert loop.exposure == batch.exposure
    assert loop.hit_ratio == batch.hit_ratio
    assert len(loop.history) == len(batch.history)
    for rec_a, rec_b in zip(loop.history, batch.history):
        assert rec_a == rec_b


# ----------------------------------------------------------------------
# End-to-end parity
# ----------------------------------------------------------------------


class TestEngineParity:
    def test_mf_clean_identical_history(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, eval_every=5)
        )
        assert_identical_runs(*run_both(cfg))

    def test_ncf_clean_identical_history(self, tiny_ncf_config):
        cfg = replace(
            tiny_ncf_config, train=replace(tiny_ncf_config.train, eval_every=5)
        )
        assert_identical_runs(*run_both(cfg, rounds=10))

    def test_mf_attacked_identical(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
            train=replace(tiny_mf_config.train, eval_every=5),
        )
        assert_identical_runs(*run_both(cfg))

    def test_ncf_attacked_identical(self, tiny_ncf_config):
        cfg = replace(
            tiny_ncf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
        )
        assert_identical_runs(*run_both(cfg, rounds=10))

    @pytest.mark.parametrize("defense", ["median", "norm_bound", "regularization"])
    def test_defended_identical(self, tiny_mf_config, defense):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
            defense=DefenseConfig(name=defense),
        )
        assert_identical_runs(*run_both(cfg, rounds=12))

    def test_audit_log_identical(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
        )
        loop_sim = LoopSimulation(cfg, audit=True)
        batch_sim = FederatedSimulation(cfg, audit=True)
        loop = loop_sim.run(10)
        batch = batch_sim.run(10)
        assert_identical_runs(loop, batch)
        assert len(loop_sim.audit_log.records) == len(batch_sim.audit_log.records)

    def test_model_state_identical_after_rounds(self, tiny_mf_config):
        a = LoopSimulation(tiny_mf_config)
        b = FederatedSimulation(tiny_mf_config)
        for round_idx in range(8):
            a.run_round(round_idx)
            b.run_round(round_idx)
        assert np.array_equal(a.model.item_embeddings, b.model.item_embeddings)
        assert np.array_equal(a.user_embedding_matrix(), b.user_embedding_matrix())

    def test_client_lr_range_identical(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config,
            train=replace(tiny_mf_config.train, client_lr_range=(0.1, 2.0)),
        )
        assert_identical_runs(*run_both(cfg, rounds=8))

    def test_negative_ratio_four_identical(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, negative_ratio=4)
        )
        assert_identical_runs(*run_both(cfg, rounds=8))

    def test_bpr_batched_identical(self, tiny_mf_config):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, loss="bpr")
        )
        assert_identical_runs(*run_both(cfg, rounds=6))


# ----------------------------------------------------------------------
# Vectorised RNG plumbing
# ----------------------------------------------------------------------


class TestBatchRng:
    def test_derive_seed_batch_matches_scalar(self):
        ids = np.arange(0, 7000, 13)
        batch = derive_seed_batch(12345, ("client-round",), ids, (42,))
        scalar = [derive_seed(12345, "client-round", int(i), 42) for i in ids]
        assert batch.tolist() == scalar

    def test_seed_sequence_states_match_numpy(self):
        seeds = np.random.default_rng(0).integers(0, 2**31, 500)
        states = _seed_sequence_states(seeds)
        for seed, state in zip(seeds[:50], states[:50]):
            expected = np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
            assert np.array_equal(state, expected)

    def test_spawn_batch_streams_match_spawn(self):
        ids = np.array([0, 1, 17, 999_999])
        gens = spawn_batch(7, ("client-round",), ids, (3,))
        for gen, user_id in zip(gens, ids):
            reference = spawn(7, "client-round", int(user_id), 3)
            assert np.array_equal(
                gen.integers(0, 10**6, 16), reference.integers(0, 10**6, 16)
            )


# ----------------------------------------------------------------------
# Vectorised negative sampling and ragged batch stacking
# ----------------------------------------------------------------------


def ragged_positives(num_items, rng):
    """Positive sets covering the ragged edge cases, including size 1."""
    sizes = [1, 1, 2, 3, 5, 8, num_items // 2, num_items - 2]
    return [
        np.sort(rng.choice(num_items, size=s, replace=False)).astype(np.int64)
        for s in sizes
    ]


class TestBatchSampling:
    @pytest.mark.parametrize("negative_ratio", [1, 4])
    def test_negatives_bitwise_equal_scalar(self, negative_ratio):
        num_items = 40
        positives = ragged_positives(num_items, np.random.default_rng(5))
        ids = np.arange(len(positives))
        counts = np.array([negative_ratio * len(p) for p in positives])
        scalar = [
            sample_negatives(
                spawn(9, "client-round", int(i), 3), p, num_items, int(c)
            )
            for i, p, c in zip(ids, positives, counts)
        ]
        flat, num_neg = sample_negatives_batch(
            spawn_batch(9, ("client-round",), ids, (3,)),
            *ragged_csr(positives),
            num_items,
            counts,
        )
        assert num_neg.tolist() == [len(expected) for expected in scalar]
        assert np.array_equal(flat, np.concatenate(scalar))

    def test_local_batches_match_scalar_rows(self):
        num_items = 60
        positives = ragged_positives(num_items, np.random.default_rng(2))
        ids = np.arange(len(positives))
        item_ids, labels, lengths = sample_local_batches(
            spawn_batch(4, ("client-round",), ids, (0,)),
            *ragged_csr(positives),
            num_items,
            1,
        )
        assert item_ids.shape == labels.shape == (int(lengths.sum()),)
        start = 0
        for user_id, pos in zip(ids, positives):
            ref_items, ref_labels = sample_local_batch(
                spawn(4, "client-round", int(user_id), 0), pos, num_items, 1
            )
            seg = slice(start, start + int(lengths[user_id]))
            assert np.array_equal(item_ids[seg], ref_items)
            assert np.array_equal(labels[seg], ref_labels)
            start += int(lengths[user_id])

    def test_single_interaction_client(self):
        positives = [np.array([3], dtype=np.int64)]
        item_ids, labels, lengths = sample_local_batches(
            spawn_batch(0, ("client-round",), np.array([0]), (0,)),
            *ragged_csr(positives),
            num_items=10,
            negative_ratio=1,
        )
        assert lengths.tolist() == [2]
        assert item_ids[0] == 3 and labels.tolist() == [1.0, 0.0]


# ----------------------------------------------------------------------
# Fused scatter aggregation
# ----------------------------------------------------------------------


class TestScatter:
    def test_scatter_sum_matches_grouped_reference(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 50, size=4000)
        grads = rng.normal(size=(4000, 8))
        dense = scatter_sum(ids, grads, num_items=50)
        per_item: dict[int, list[np.ndarray]] = {}
        for item_id, grad in zip(ids, grads):
            per_item.setdefault(int(item_id), []).append(grad)
        for item_id, stack in per_item.items():
            assert np.array_equal(dense[item_id], np.stack(stack).sum(axis=0))
        untouched = np.setdiff1d(np.arange(50), ids)
        assert np.all(dense[untouched] == 0.0)

    def test_apply_scatter_matches_apply_updates(self):
        # The fused scatter_sum path of apply_batch vs the grouped reference.
        rng = np.random.default_rng(1)
        updates = []
        for user_id in range(9):
            n = int(rng.integers(1, 12))
            ids = rng.choice(30, size=n, replace=False)
            updates.append(
                ClientUpdate(user_id, ids, rng.normal(size=(n, 6)))
            )
        model_a = build_model("mf", 30, 6, seed=2)
        model_b = build_model("mf", 30, 6, seed=2)
        apply_updates(Server(model_a, lr=0.5), updates)
        Server(model_b, lr=0.5).apply_batch(from_updates(updates))
        assert np.array_equal(model_a.item_embeddings, model_b.item_embeddings)

    def test_sum_aggregator_advertises_scatter(self):
        from repro.defenses.robust import MedianAggregator

        assert SumAggregator.supports_scatter
        assert not MedianAggregator.supports_scatter


# ----------------------------------------------------------------------
# Batched local step vs per-client reference
# ----------------------------------------------------------------------


def ragged_step_inputs(model, rng, lengths):
    num_clients = len(lengths)
    total = int(np.sum(lengths))
    user_vecs = rng.normal(size=(num_clients, model.embedding_dim))
    item_ids = rng.integers(0, model.num_items, size=total)
    item_vecs = model.item_embeddings[item_ids]
    labels = (rng.random(total) < 0.5).astype(np.float64)
    return user_vecs, item_vecs, labels


@pytest.mark.parametrize("kind", ["mf", "ncf"])
def test_batch_local_step_matches_per_client(kind):
    rng = np.random.default_rng(3)
    model = build_model(kind, num_items=25, embedding_dim=6, seed=1)
    # Ragged segments down to the protocol minimum of 2 rows (a client
    # with a single interaction trains on 1 positive + q negatives); MF
    # additionally covers a degenerate 1-row segment, which NCF cannot
    # guarantee bit-exactly (see NCFModel.batch_local_step).
    lengths = np.array([1 if kind == "mf" else 2, 4, 9, 2, 33])
    user_vecs, item_vecs, labels = ragged_step_inputs(model, rng, lengths)

    result = model.batch_local_step(user_vecs, item_vecs, labels, lengths)

    start = 0
    for row, length in enumerate(lengths):
        seg = slice(start, start + int(length))
        logits, cache = model.forward(user_vecs[row], item_vecs[seg])
        _, dlogits = bce_loss_and_grad(logits, labels[seg])
        bundle = model.backward(cache, dlogits)
        assert np.array_equal(result.item_grads[seg], bundle.items)
        assert np.array_equal(result.user_grads[row], bundle.users.sum(axis=0))
        for stack, reference in zip(result.param_grads, bundle.params):
            assert np.array_equal(stack[row], reference)
        start += int(length)


def test_segment_sums_matches_slice_sums():
    rng = np.random.default_rng(4)
    lengths = np.array([1, 7, 19, 2])
    rows = rng.normal(size=(int(lengths.sum()), 5))
    sums = segment_sums(rows, lengths, 5)
    start = 0
    for row, length in enumerate(lengths):
        assert np.array_equal(sums[row], rows[start : start + int(length)].sum(axis=0))
        start += int(length)


def test_run_cell_matches_loop_reference(tiny_mf_config):
    from repro.experiments.runner import Cell, run_cell

    loop = LoopSimulation(tiny_mf_config).run()
    assert run_cell(tiny_mf_config) == Cell(
        er=100.0 * loop.exposure, hr=100.0 * loop.hit_ratio
    )
