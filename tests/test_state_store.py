"""The client state store: construction parity, CSR round-trip, chunked eval.

The store's contract is that struct-of-arrays client state is a pure
re-layout: every embedding row, interaction slice and per-client scalar
of the default one-heap-shard store is bit-identical to what the object-per-user reference constructs, and
streaming (chunked) evaluation reproduces the dense single-pass metrics
exactly.
"""

import numpy as np
import pytest

from reference import BenignClient, ClientViewList, LoopSimulation
from reference.scalar import (
    exposure_ratio_at_k,
    hit_ratio_at_k,
    pack_eval_negatives,
    sample_eval_negatives,
    train_mask,
)
from repro.config import DefenseConfig, ShardingConfig, TrainConfig, replace
from repro.datasets.base import pack_csr
from repro.datasets.synthetic import generate_longtail_dataset
from repro.federated.shards import ShardedStateStore
from repro.federated.simulation import FederatedSimulation
from repro.metrics.ranking import exposure_counts_at_k, hit_counts_at_k
from repro.models import base as model_base
from repro.models.base import build_model
from repro.rng import (
    _pcg64_words,
    _seed_sequence_states,
    spawn,
    spawn_first_uniform,
    spawn_normal_rows,
)


def ragged_lists(rng, num_users, num_items):
    """Random ragged positive-item lists, including an empty user."""
    lists = [
        np.sort(
            rng.choice(num_items, size=int(rng.integers(1, num_items // 2)), replace=False)
        ).astype(np.int64)
        for _ in range(num_users - 1)
    ]
    lists.insert(num_users // 2, np.empty(0, dtype=np.int64))
    return lists


# ----------------------------------------------------------------------
# Vectorised construction parity (bit-identical to per-user spawn)
# ----------------------------------------------------------------------


class TestConstructionParity:
    @pytest.mark.parametrize("seed", [0, 3, 11, 12345])
    def test_embedding_matrix_matches_per_user_spawn(self, seed):
        dim, users = 8, 64
        rows = spawn_normal_rows(seed, ("client-init",), np.arange(users), dim, scale=0.1)
        reference = np.stack(
            [
                spawn(seed, "client-init", u).normal(scale=0.1, size=dim)
                for u in range(users)
            ]
        )
        assert np.array_equal(rows, reference)

    @pytest.mark.parametrize("seed", [0, 7, 999])
    def test_store_matches_object_clients(self, seed):
        rng = np.random.default_rng(seed + 1)
        train_pos = ragged_lists(rng, 20, 50)
        store = ShardedStateStore.build(train_pos, 50, 6, seed=seed, init_scale=0.05)
        for user, positives in enumerate(train_pos):
            client = BenignClient(user, positives, 50, 6, seed=seed, init_scale=0.05)
            assert np.array_equal(store.row(user), client.user_embedding)
            assert np.array_equal(store.positives(user), client.positive_items)

    def test_pcg64_first_raw_matches_numpy(self):
        seeds = np.random.default_rng(5).integers(0, 2**31, 300)
        raw = _pcg64_words(_seed_sequence_states(seeds), np.ones(300, dtype=np.int64))
        for seed, value in zip(seeds, raw):
            assert int(value) == int(np.random.PCG64(int(seed)).random_raw(1)[0])

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_spawn_first_uniform_matches_spawn(self, seed):
        ids = np.arange(200)
        low, high = float(np.log(0.1)), float(np.log(2.0))
        vec = spawn_first_uniform(seed, ("client-lr",), ids, low, high)
        reference = np.array(
            [spawn(seed, "client-lr", int(u)).uniform(low, high) for u in ids]
        )
        assert np.array_equal(vec, reference)

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_client_lrs_match_scalar_draws(self, seed):
        cfg = TrainConfig(client_lr_range=(0.1, 2.0))
        store = ShardedStateStore.build(
            [np.array([0]), np.array([1]), np.array([2])], 10, 4, seed=seed,
            lr_range=cfg.client_lr_range,
        )
        lrs = store.client_lrs(np.array([2, 0, 1]))
        for row, user in enumerate((2, 0, 1)):
            standalone = BenignClient(user, np.array([0]), 10, 4, seed=seed)
            assert lrs[row] == standalone._client_lr(cfg)

    def test_client_lrs_rejects_bad_range(self):
        with pytest.raises(ValueError, match="client_lr_range"):
            ShardedStateStore.build([np.array([0])], 5, 2, lr_range=(0.0, 1.0))


# ----------------------------------------------------------------------
# CSR round-trip properties
# ----------------------------------------------------------------------


class TestCsrRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_ragged_to_csr_to_ragged(self, seed):
        rng = np.random.default_rng(seed)
        train_pos = ragged_lists(rng, 17, 40)
        indptr, indices = pack_csr(train_pos)
        assert indptr[0] == 0
        assert indptr[-1] == sum(len(p) for p in train_pos)
        assert indices.dtype == np.int64
        store = ShardedStateStore.build(train_pos, 40, 4, seed=seed)
        assert store.num_users == len(train_pos)
        for user, positives in enumerate(train_pos):
            got = store.positives(user)
            assert got.dtype == np.int64
            assert np.array_equal(got, positives)

    def test_positive_slices_are_views(self):
        train_pos = [np.array([1, 3], dtype=np.int64), np.array([0], dtype=np.int64)]
        store = ShardedStateStore.build(train_pos, 5, 2)
        view = store.positives(0)
        assert not view.flags.owndata
        assert np.shares_memory(view, store._shards[0].indices)
        views = store.positives_list(np.array([1, 0]))
        assert np.array_equal(views[0], [0])
        assert np.array_equal(views[1], [1, 3])

    @pytest.mark.parametrize("seed", range(3))
    def test_train_mask_blocks_match_dense_mask(self, seed):
        dataset = generate_longtail_dataset(23, 31, 200, seed=seed)
        store = ShardedStateStore.build(dataset.train_pos, dataset.num_items, 4)
        dense = train_mask(dataset)
        for lo, hi in [(0, 23), (0, 5), (5, 9), (22, 23), (7, 7)]:
            assert np.array_equal(store.train_mask_block(lo, hi), dense[lo:hi])


# ----------------------------------------------------------------------
# View clients and the lazy view list
# ----------------------------------------------------------------------


class TestStoreBackedViews:
    def make_store(self, seed=0):
        train_pos = [np.array([0, 2], dtype=np.int64), np.array([1], dtype=np.int64)]
        return ShardedStateStore.build(train_pos, 6, 4, seed=seed)

    def test_view_reads_and_writes_store_row(self):
        store = self.make_store()
        view = BenignClient.from_store(store, 1)
        assert np.array_equal(view.user_embedding, store.row(1))
        view.user_embedding = np.full(4, 2.5)
        assert np.array_equal(store.row(1), np.full(4, 2.5))
        assert np.array_equal(view.positive_items, [1])

    def test_view_participate_matches_standalone(self):
        seed = 9
        train_pos = [np.array([0, 2], dtype=np.int64), np.array([1, 3], dtype=np.int64)]
        store = ShardedStateStore.build(train_pos, 6, 4, seed=seed)
        model_a = build_model("mf", 6, 4, seed=1)
        model_b = build_model("mf", 6, 4, seed=1)
        cfg = TrainConfig()
        view = BenignClient.from_store(store, 0)
        standalone = BenignClient(0, train_pos[0], 6, 4, seed=seed)
        update_view = view.participate(model_a, cfg, round_idx=0)
        update_ref = standalone.participate(model_b, cfg, round_idx=0)
        assert np.array_equal(update_view.item_ids, update_ref.item_ids)
        assert np.array_equal(update_view.item_grads, update_ref.item_grads)
        assert np.array_equal(store.row(0), standalone.user_embedding)

    def test_view_list_is_lazy_and_cached(self):
        store = self.make_store()
        views = ClientViewList(store)
        assert len(views) == 2
        assert not views._views
        first = views[0]
        assert views[0] is first  # cached
        assert views[-1].user_id == 1
        assert [v.user_id for v in views] == [0, 1]
        assert [v.user_id for v in views[0:2]] == [0, 1]
        with pytest.raises(IndexError):
            views[2]
        with pytest.raises(IndexError):
            views[-3]

    def test_defended_store_holds_one_miner_block(self):
        defense = DefenseConfig(
            name="regularization", mining_rounds=1, num_popular=3
        )
        store = ShardedStateStore.build(
            [np.array([0]), np.array([1]), np.array([2])], 5, 2, defense=defense
        )
        assert store.defense is defense
        assert store.miner.mined.shape == (3, 3)
        rng = np.random.default_rng(0)
        for round_idx, rows in enumerate(([0, 2], [2], [1, 2])):
            store.miner.observe(np.array(rows), rng.normal(size=(5, 2)), round_idx)
        assert store.miner.accumulated.shape == (3, 5)
        assert store.miner.ready.tolist() == [False, False, True]
        # The checkpoint state is the miner's arrays, and it restores
        # into a fresh store's block.
        saved = store.state()
        fresh = ShardedStateStore.build(
            [np.array([0]), np.array([1]), np.array([2])], 5, 2, defense=defense
        )
        fresh.restore(saved)
        for name in ("accumulated", "observations", "last_round", "ready", "mined"):
            assert np.array_equal(getattr(fresh.miner, name), getattr(store.miner, name))
        assert fresh.miner.live_snapshots() == store.miner.live_snapshots()

    def test_no_factory_store_stays_regularizer_free(self):
        store = self.make_store()
        assert store.defense is None and store.miner is None
        assert store.state()["miner"] is None
        assert BenignClient.from_store(store, 1).regularizer is None


# ----------------------------------------------------------------------
# Chunked streaming evaluation
# ----------------------------------------------------------------------


class TestChunkedEvaluation:
    def test_score_blocks_cover_matrix(self):
        model = build_model("mf", 20, 4, seed=2)
        users = np.random.default_rng(0).normal(size=(11, 4))
        dense = model.score_matrix(users)
        spans = []
        blocks = []
        for lo, hi, scores in model.score_blocks(users, 3):
            spans.append((lo, hi))
            blocks.append(scores)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 11)]
        assert np.array_equal(np.concatenate(blocks), dense)
        with pytest.raises(ValueError, match="block_users"):
            next(model.score_blocks(users, 0))

    def test_streaming_counts_match_dense_metrics(self):
        dataset = generate_longtail_dataset(30, 40, 300, seed=4)
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(30, 40))
        mask = train_mask(dataset)
        targets = np.array([3, 17])
        negatives = sample_eval_negatives(dataset, 10, seed=0)
        packed, lengths = pack_eval_negatives(negatives)
        er_hits = np.zeros(2, dtype=np.int64)
        er_eligible = np.zeros(2, dtype=np.int64)
        hr_hits = hr_total = 0
        for lo in range(0, 30, 7):
            hi = min(lo + 7, 30)
            hits, eligible = exposure_counts_at_k(
                scores[lo:hi], mask[lo:hi], targets, 5
            )
            er_hits += hits
            er_eligible += eligible
            hits, total = hit_counts_at_k(
                scores[lo:hi],
                dataset.test_items[lo:hi],
                packed[lo:hi],
                lengths[lo:hi],
                5,
            )
            hr_hits += hits
            hr_total += total
        dense_er = exposure_ratio_at_k(scores, mask, targets, 5)
        dense_hr = hit_ratio_at_k(scores, dataset, negatives, 5)
        streamed_er = float(
            np.mean(np.where(er_eligible > 0, er_hits / np.maximum(er_eligible, 1), 0.0))
        )
        assert streamed_er == dense_er
        assert (hr_hits / hr_total) == dense_hr

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    def test_evaluate_independent_of_chunk_size(
        self, tiny_mf_config, tiny_ncf_config, kind, monkeypatch
    ):
        # Both models also evaluate through their pruned walks (blocks
        # this small are otherwise scored in full), on one shard and on
        # three; no block may fall back, and the results must equal the
        # full path's.
        base = tiny_mf_config if kind == "mf" else tiny_ncf_config
        results = []
        for num_shards in (0, 3):
            for chunk in (None, 1, 3, 7, 10_000):
                cfg = replace(
                    base,
                    train=replace(base.train, eval_chunk_users=chunk),
                    sharding=ShardingConfig(num_shards=num_shards),
                )
                with FederatedSimulation(cfg) as sim:
                    sim.run(rounds=3)
                    results.append(sim.evaluate())
                    with monkeypatch.context() as walked:
                        walked.setattr(model_base, "_FULL_SCORE_BYTES", 0)
                        results.append(sim.evaluate())
                    assert sim.eval_fallback_blocks == 0
        assert all(r == results[0] for r in results[1:])

    def test_bad_chunk_size_rejected(self, tiny_mf_config):
        # Refused when the config is built, not after a run's rounds.
        with pytest.raises(ValueError, match="eval_chunk_users"):
            replace(tiny_mf_config.train, eval_chunk_users=0)

    def test_user_embedding_matrix_is_zero_copy(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        matrix = sim.user_embedding_matrix()
        assert matrix.base is sim.state._shards[0].emb  # the heap shard's rows
        assert not matrix.flags.writeable  # live state is read-only
        with pytest.raises(ValueError):
            matrix[0] = 0.0


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------


class TestFinalEvaluationReuse:
    def test_final_eval_reused_when_checkpoint_covers_it(self, tiny_mf_config, monkeypatch):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, rounds=10, eval_every=5)
        )
        sim = FederatedSimulation(cfg)
        calls = []
        original = FederatedSimulation.evaluate

        def counting(self, k=None):
            calls.append(1)
            return original(self, k)

        monkeypatch.setattr(FederatedSimulation, "evaluate", counting)
        result = sim.run()
        # Checkpoints at rounds 5 and 10; the final record reuses the
        # round-10 checkpoint instead of a third evaluation.
        assert len(calls) == 2
        assert [rec.round_idx for rec in result.history] == [5, 10]
        assert result.exposure == result.history[-1].exposure
        assert result.hit_ratio == result.history[-1].hit_ratio

    def test_final_eval_still_runs_without_checkpoint(self, tiny_mf_config, monkeypatch):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, rounds=7, eval_every=5)
        )
        sim = FederatedSimulation(cfg)
        calls = []
        original = FederatedSimulation.evaluate

        def counting(self, k=None):
            calls.append(1)
            return original(self, k)

        monkeypatch.setattr(FederatedSimulation, "evaluate", counting)
        result = sim.run()
        assert len(calls) == 2  # round 5 checkpoint + final round 7
        assert [rec.round_idx for rec in result.history] == [5, 7]


class TestUploadDtype:
    def _as_float32(self, sim):
        sim.model.item_embeddings = sim.model.item_embeddings.astype(np.float32)
        for shard in sim.state._shards:
            shard.emb = shard.emb.astype(np.float32)

    def test_loop_bpr_upload_keeps_model_dtype(self):
        model = build_model("mf", 12, 4, seed=0)
        model.item_embeddings = model.item_embeddings.astype(np.float32)
        client = BenignClient(0, np.array([0, 1, 2]), 12, 4, seed=0)
        client.user_embedding = client.user_embedding.astype(np.float32)
        cfg = TrainConfig(loss="bpr")
        update = client.participate(model, cfg, round_idx=0)
        assert update.item_grads.dtype == np.float32
        assert client.user_embedding.dtype == np.float32

    def test_loop_bce_upload_keeps_model_dtype(self):
        model = build_model("mf", 12, 4, seed=0)
        model.item_embeddings = model.item_embeddings.astype(np.float32)
        client = BenignClient(0, np.array([0, 1, 2]), 12, 4, seed=0)
        client.user_embedding = client.user_embedding.astype(np.float32)
        update = client.participate(model, TrainConfig(), round_idx=0)
        assert update.item_grads.dtype == np.float32

    @pytest.mark.parametrize("loss", ["bce", "bpr"])
    def test_batched_upload_keeps_model_dtype(self, tiny_mf_config, loss):
        cfg = replace(
            tiny_mf_config, train=replace(tiny_mf_config.train, loss=loss)
        )
        sim = FederatedSimulation(cfg)
        self._as_float32(sim)
        engine = sim._batch_engine
        batch = engine._benign_batch_step(np.arange(8, dtype=np.int64), 0)
        assert batch.item_grads.dtype == np.float32


class TestEngineStorePath:
    @pytest.mark.parametrize(
        "variant", ["attack_defense", "bpr", "client_lr_range", "ncf_attack"]
    )
    def test_store_engine_matches_object_fallback(
        self, tiny_mf_config, tiny_ncf_config, variant
    ):
        """Store gather/scatter vs per-object clients: identical rounds.

        The object side is the reference loop driving one
        ``BenignClient`` view per participant; the batch engine's
        gather -> stacked step -> scatter must leave the same model
        *and* the same private user embeddings across the
        representative attack x defense x model x loss corners (the
        sweeps in test_batch_engine.py / test_batch_defended.py cover
        every combination on metrics and the item table).
        """
        from repro.config import AttackConfig, DefenseConfig

        if variant == "attack_defense":
            cfg = replace(
                tiny_mf_config,
                attack=AttackConfig(name="pieck_uea", malicious_ratio=0.1),
                defense=DefenseConfig(name="regularization"),
            )
        elif variant == "bpr":
            cfg = replace(
                tiny_mf_config, train=replace(tiny_mf_config.train, loss="bpr")
            )
        elif variant == "client_lr_range":
            cfg = replace(
                tiny_mf_config,
                train=replace(tiny_mf_config.train, client_lr_range=(0.1, 2.0)),
            )
        else:
            cfg = replace(
                tiny_ncf_config,
                attack=AttackConfig(name="pieck_ipe", malicious_ratio=0.1),
            )
        store_sim = FederatedSimulation(cfg)
        fallback_sim = LoopSimulation(cfg)
        store_result = store_sim.run(rounds=8)
        fallback_result = fallback_sim.run(rounds=8)
        assert store_result.exposure == fallback_result.exposure
        assert store_result.hit_ratio == fallback_result.hit_ratio
        assert np.array_equal(
            store_sim.model.item_embeddings, fallback_sim.model.item_embeddings
        )
        assert np.array_equal(
            store_sim.state.snapshot_embeddings(),
            fallback_sim.state.snapshot_embeddings(),
        )

    def test_store_rounds_never_fall_back_to_stacking(self, tiny_mf_config):
        sim = FederatedSimulation(tiny_mf_config)
        sim.run(rounds=4)
        assert sim._batch_engine.store is sim.state
        assert sim._batch_engine.stacked_rounds == 0
