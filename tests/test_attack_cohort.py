"""MaliciousCohort parity and shared-mining-ledger property tests.

The cohort's contract mirrors the batch engine's: for any seed, the
struct-of-arrays team (``FederatedSimulation``'s
:class:`~repro.attacks.cohort.MaliciousCohort`) must reproduce the
per-object oracle (``reference.attack``, one ``participate`` call per
member, as ``reference.LoopSimulation`` runs it) bit for bit — same
mining trajectories, same participation scales, same uploads, same
``SimulationResult`` history.  These tests assert that end to end
for every attack x model x malicious-ratio combination, and
property-test the building blocks (the shared Δ-Norm observation
ledger, the vectorised participation counters, the stacked bounded
step kernel).
"""

import numpy as np
import pytest

from reference import LoopSimulation, ReferenceMiner, attackers, per_client
from reference.scalar import bounded_step_gradient
from repro.attacks.base import MaliciousClient, stacked_step_gradients
from repro.attacks.cohort import CohortUpload
from repro.attacks.pieck_uea import _pseudo_sets, lockstep_payloads
from repro.attacks.mining import CohortMiner
from repro.attacks.registry import build_malicious_cohort

# Cross-product parity sweeps (attack x model x ratio, end to end) are
# the suite's slowest files; the marker lets CI legs split them off.
pytestmark = pytest.mark.slow
from repro.config import (
    AttackConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    replace,
)
from repro.datasets.loaders import load_dataset
from repro.federated.simulation import FederatedSimulation
from repro.models.base import build_model

#: Ratios spanning "one lone client" to "a real team" on the tiny set.
RATIOS = (0.003, 0.01, 0.05)
ATTACKS = (
    "none",
    "fedrecattack",
    "pipattack",
    "a_ra",
    "a_hum",
    "pieck_ipe",
    "pieck_uea",
)


@pytest.fixture(scope="module")
def cohort_dataset():
    """One shared tiny dataset so 100+ simulations skip regeneration."""
    return load_dataset(DatasetConfig(name="custom", scale=0.1, seed=3))


def _config(kind: str) -> ExperimentConfig:
    if kind == "mf":
        model = ModelConfig(kind="mf", embedding_dim=8, seed=3)
        train = TrainConfig(rounds=8, users_per_round=24, lr=1.0, eval_every=4)
    else:
        model = ModelConfig(kind="ncf", embedding_dim=8, mlp_layers=(16, 8), seed=3)
        train = TrainConfig(rounds=6, users_per_round=24, lr=0.05, eval_every=3)
    return ExperimentConfig(
        dataset=DatasetConfig(name="custom", scale=0.1, seed=3),
        model=model,
        train=train,
        seed=3,
    )


def assert_cohort_parity(cfg, dataset):
    """Loop vs batch trajectories, model state, and anti-fallback."""
    loop_sim = LoopSimulation(cfg, dataset)
    batch_sim = FederatedSimulation(cfg, dataset)
    loop = loop_sim.run()
    batch = batch_sim.run()
    assert loop.exposure == batch.exposure
    assert loop.hit_ratio == batch.hit_ratio
    assert loop.history == batch.history
    assert np.array_equal(
        loop_sim.model.item_embeddings, batch_sim.model.item_embeddings
    )
    if loop_sim.attackers:
        assert batch_sim.malicious_cohort is not None
        assert batch_sim._batch_engine.object_malicious_rounds == 0
    return loop_sim, batch_sim


def _together_config(kind: str) -> ExperimentConfig:
    return replace(
        _config(kind),
        attack=AttackConfig(
            name="pieck_uea",
            malicious_ratio=0.05,
            num_targets=3,
            multi_target_strategy="together",
        ),
    )


def _refined_config(kind: str) -> ExperimentConfig:
    return replace(
        _config(kind),
        attack=AttackConfig(
            name="pieck_uea", malicious_ratio=0.05, uea_pseudo_source="refined"
        ),
    )


# ----------------------------------------------------------------------
# End-to-end parity: every attack x model x malicious ratio
# ----------------------------------------------------------------------


class TestCohortParity:
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_mf_parity(self, cohort_dataset, attack, ratio):
        cfg = replace(
            _config("mf"),
            attack=AttackConfig(name=attack, malicious_ratio=ratio),
        )
        assert_cohort_parity(cfg, cohort_dataset)

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_ncf_parity(self, cohort_dataset, attack, ratio):
        cfg = replace(
            _config("ncf"),
            attack=AttackConfig(name=attack, malicious_ratio=ratio),
        )
        assert_cohort_parity(cfg, cohort_dataset)

    def test_grad_clip_parity(self, cohort_dataset):
        cfg = replace(
            _config("mf"),
            attack=AttackConfig(
                name="pieck_ipe", malicious_ratio=0.05, grad_clip=0.4
            ),
        )
        assert_cohort_parity(cfg, cohort_dataset)

    def test_multi_target_together_parity(self, cohort_dataset):
        assert_cohort_parity(_together_config("mf"), cohort_dataset)

    def test_ncf_multi_target_together_parity(self, cohort_dataset):
        assert_cohort_parity(_together_config("ncf"), cohort_dataset)

    def test_refined_pseudo_users_parity(self, cohort_dataset):
        assert_cohort_parity(_refined_config("mf"), cohort_dataset)

    def test_ncf_refined_pseudo_users_parity(self, cohort_dataset):
        assert_cohort_parity(_refined_config("ncf"), cohort_dataset)

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    @pytest.mark.parametrize(
        "one_row", [{"uea_batch_size": 1}, {"num_popular": 1}], ids=str
    )
    def test_uea_one_row_batches_parity(self, cohort_dataset, kind, one_row):
        """Step batches of one row, from the batch size or from a
        one-item mined set.  The default tower's widths are ones where
        a lone row's GEMV rounds differently from a stacked GEMM row."""
        cfg = _config(kind)
        cfg = replace(
            cfg,
            model=replace(cfg.model, mlp_layers=(32, 16)),
            attack=AttackConfig(
                name="pieck_uea",
                malicious_ratio=0.2,
                mining_rounds=1,
                num_targets=2,
                **one_row,
            ),
        )
        loop_sim, _ = assert_cohort_parity(cfg, cohort_dataset)
        assert any(a.miner.mined is not None for a in loop_sim.attackers)

    def test_defended_parity(self, cohort_dataset):
        cfg = replace(
            _config("mf"),
            attack=AttackConfig(name="pieck_ipe", malicious_ratio=0.05),
        )
        from repro.config import DefenseConfig

        cfg = replace(cfg, defense=DefenseConfig(name="median"))
        assert_cohort_parity(cfg, cohort_dataset)

    def test_loop_engine_builds_no_cohort(self, cohort_dataset):
        cfg = replace(
            _config("mf"),
            attack=AttackConfig(name="pieck_ipe", malicious_ratio=0.05),
        )
        sim = LoopSimulation(cfg, cohort_dataset)
        assert sim.malicious_cohort is None

    def test_ipe_payload_dedup(self, cohort_dataset):
        """The IPE round optimises distinct mined sets, not clients."""
        cfg = replace(
            _config("mf"),
            attack=AttackConfig(name="pieck_ipe", malicious_ratio=0.1),
        )
        sim = FederatedSimulation(cfg, cohort_dataset)
        sim.run()
        cohort = sim.malicious_cohort
        assert cohort is not None
        assert cohort.last_round_payloads <= cohort.num_clients


# ----------------------------------------------------------------------
# Cohort building blocks vs per-object references
# ----------------------------------------------------------------------


class TestCohortUploadsMatchObjects:
    """Round-by-round upload equality under an arbitrary schedule."""

    @pytest.mark.parametrize("attack", [a for a in ATTACKS if a != "none"])
    def test_uploads_bitwise_equal(self, cohort_dataset, attack):
        self._assert_uploads_equal(cohort_dataset, attack, "mf")

    @pytest.mark.parametrize("attack", [a for a in ATTACKS if a != "none"])
    def test_ncf_uploads_bitwise_equal(self, cohort_dataset, attack):
        self._assert_uploads_equal(cohort_dataset, attack, "ncf")

    @staticmethod
    def _assert_uploads_equal(cohort_dataset, attack, kind):
        cfg = AttackConfig(name=attack, malicious_ratio=0.05, mining_rounds=2)
        kwargs = dict(
            dataset=cohort_dataset,
            config=cfg,
            targets=np.array([3, 11]),
            embedding_dim=6,
            num_malicious=5,
            first_user_id=cohort_dataset.num_users,
            seed=9,
        )
        objects = attackers(build_malicious_cohort(attack, **kwargs))
        cohort = build_malicious_cohort(attack, **kwargs)
        model_a = build_model(kind, cohort_dataset.num_items, 6, seed=4)
        model_b = build_model(kind, cohort_dataset.num_items, 6, seed=4)
        train_cfg = TrainConfig(lr=1.0)
        rng = np.random.default_rng(0)
        for round_idx in range(10):
            rows = np.sort(
                rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
            )
            reference = {
                int(row): objects[int(row)].participate(
                    model_a, train_cfg, round_idx
                )
                for row in rows
            }
            uploads = cohort.compute_uploads(model_b, train_cfg, round_idx, rows)
            for row, upload in zip(rows, uploads):
                expected = reference[int(row)]
                if expected is None:
                    assert upload is None
                    continue
                assert isinstance(upload, CohortUpload)
                assert upload.user_id == expected.user_id
                assert upload.malicious and expected.malicious
                assert np.array_equal(upload.item_ids, expected.item_ids)
                assert np.array_equal(upload.item_grads, expected.item_grads)
                assert len(upload.param_grads) == len(expected.param_grads)
                for got, ref in zip(upload.param_grads, expected.param_grads):
                    assert np.array_equal(got, ref)

    def test_reduced_precision_uploads_keep_dtype(self, cohort_dataset):
        """float32 models upload float32 poison on both paths, bitwise.

        PIECK-UEA's target steps keep the item embeddings' precision;
        the cohort's scale broadcast must not promote them to float64
        (the object path's Python-float scale does not).  A one-item
        mined set keeps every step batch one row tall, where stacked
        and per-client float32 rows round alike.
        """
        kwargs = dict(
            dataset=cohort_dataset,
            config=AttackConfig(name="pieck_uea", mining_rounds=1, num_popular=1),
            targets=np.array([3]),
            embedding_dim=6,
            num_malicious=3,
            first_user_id=cohort_dataset.num_users,
            seed=2,
        )
        objects = attackers(build_malicious_cohort("pieck_uea", **kwargs))
        cohort = build_malicious_cohort("pieck_uea", **kwargs)
        model_a = build_model("mf", cohort_dataset.num_items, 6, seed=1)
        model_a.item_embeddings = model_a.item_embeddings.astype(np.float32)
        model_b = build_model("mf", cohort_dataset.num_items, 6, seed=1)
        model_b.item_embeddings = model_b.item_embeddings.astype(np.float32)
        rows = np.arange(3)
        checked = 0
        for round_idx in range(3):
            reference = [
                objects[row].participate(model_a, TrainConfig(lr=1.0), round_idx)
                for row in rows
            ]
            uploads = cohort.compute_uploads(
                model_b, TrainConfig(lr=1.0), round_idx, rows
            )
            for upload, expected in zip(uploads, reference):
                if expected is None:  # round 0 mines
                    assert upload is None
                    continue
                checked += 1
                assert upload.item_grads.dtype == np.float32
                assert expected.item_grads.dtype == np.float32
                assert np.array_equal(upload.item_grads, expected.item_grads)
        assert checked == 6

    def test_payload_telemetry_resets_on_mining_round(self, cohort_dataset):
        """A round with zero payloads reports zero, not the last count."""
        kwargs = dict(
            dataset=cohort_dataset,
            config=AttackConfig(name="pieck_ipe", mining_rounds=3),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=2,
            first_user_id=cohort_dataset.num_users,
        )
        cohort = build_malicious_cohort("pieck_ipe", **kwargs)
        model = build_model("mf", cohort_dataset.num_items, 4, seed=0)
        rows = np.arange(2)
        for round_idx in range(4):
            cohort.compute_uploads(model, TrainConfig(lr=1.0), round_idx, rows)
        assert cohort.last_round_payloads > 0  # sets frozen, uploads flowing
        # Fresh cohort mid-mining: the counter must read 0 again.
        fresh = build_malicious_cohort("pieck_ipe", **kwargs)
        fresh.last_round_payloads = 99
        fresh.compute_uploads(model, TrainConfig(lr=1.0), 0, rows)
        assert fresh.last_round_payloads == 0

    def test_times_sampled_mirrors_objects(self, cohort_dataset):
        kwargs = dict(
            dataset=cohort_dataset,
            config=AttackConfig(name="a_ra", malicious_ratio=0.05),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=4,
            first_user_id=cohort_dataset.num_users,
        )
        objects = attackers(build_malicious_cohort("a_ra", **kwargs))
        cohort = build_malicious_cohort("a_ra", **kwargs)
        model = build_model("mf", cohort_dataset.num_items, 4, seed=0)
        rng = np.random.default_rng(7)
        for round_idx in range(12):
            rows = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            cohort.compute_uploads(model, TrainConfig(lr=1.0), round_idx, rows)
            for row in rows:
                objects[int(row)]._participation_scale(round_idx)
        assert cohort.times_sampled.tolist() == [
            client._times_sampled for client in objects
        ]


class TestUEALockstep:
    """``lockstep_payloads`` against each client's own loop, per round."""

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    @pytest.mark.parametrize("margin", [None, 0.0, 0.05], ids=str)
    def test_mixed_batch_heights_match_per_client(
        self, cohort_dataset, kind, batch_size, margin
    ):
        """Mined sets of 1 to 4 items give one team step batches of one
        row beside taller ones; the fixed margins make clients stop at
        different steps of each target phase."""
        fixed = {} if margin is None else {
            "adaptive_margin": False, "promotion_margin": margin
        }
        config = AttackConfig(
            name="pieck_uea",
            uea_batch_size=batch_size,
            num_targets=2,
            multi_target_strategy="together",
            **fixed,
        )
        kwargs = dict(
            dataset=cohort_dataset,
            config=config,
            targets=np.array([3, 11]),
            embedding_dim=8,
            num_malicious=6,
            first_user_id=cohort_dataset.num_users,
            seed=5,
        )
        team = build_malicious_cohort("pieck_uea", **kwargs).clients
        oracles = per_client(build_malicious_cohort("pieck_uea", **kwargs).clients)
        model = build_model(kind, cohort_dataset.num_items, 8, seed=2)
        populars = [np.arange(20, 20 + size) for size in (1, 4, 2, 1, 3, 4)]
        train_cfg = TrainConfig(lr=0.5)
        for round_idx in range(3):
            got = lockstep_payloads(team, populars, model, train_cfg, round_idx)
            for payload, oracle, popular in zip(got, oracles, populars):
                expected = oracle._round_payload(
                    model, train_cfg, round_idx, popular=popular
                )
                assert payload.item_grads.tobytes() == expected.item_grads.tobytes()
            model.item_embeddings[[3, 11]] -= 0.1 * got[0].item_grads

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    @pytest.mark.parametrize("margin", [None, 0.05], ids=str)
    @pytest.mark.parametrize("target_scale", [1.0, 40.0])
    def test_float32_tables_match_per_client(
        self, cohort_dataset, kind, margin, target_scale
    ):
        """With a float32 model (item table and any tower) the
        per-client loop stays in float32 (its margin, step size, count
        and norm are Python scalars, weak beside a float32 array), so
        the lockstep's buffers, margins, counts and steps must too.
        ``target_scale`` 40 starts the targets beyond the norm cap."""
        fixed = {} if margin is None else {
            "adaptive_margin": False, "promotion_margin": margin
        }
        config = AttackConfig(
            name="pieck_uea",
            num_targets=2,
            multi_target_strategy="together",
            **fixed,
        )
        kwargs = dict(
            dataset=cohort_dataset,
            config=config,
            targets=np.array([3, 11]),
            embedding_dim=8,
            num_malicious=4,
            first_user_id=cohort_dataset.num_users,
            seed=7,
        )
        team = build_malicious_cohort("pieck_uea", **kwargs).clients
        oracles = per_client(build_malicious_cohort("pieck_uea", **kwargs).clients)
        model = build_model(kind, cohort_dataset.num_items, 8, seed=3)
        model.item_embeddings[[3, 11]] *= target_scale
        _to_float32(model)
        populars = [np.arange(20, 20 + size) for size in (2, 7, 4, 7)]
        train_cfg = TrainConfig(lr=0.5)
        for round_idx in range(3):
            got = lockstep_payloads(team, populars, model, train_cfg, round_idx)
            for payload, oracle, popular in zip(got, oracles, populars):
                expected = oracle._round_payload(
                    model, train_cfg, round_idx, popular=popular
                )
                assert payload.item_grads.dtype == expected.item_grads.dtype
                assert payload.item_grads.tobytes() == expected.item_grads.tobytes()
            model.item_embeddings[[3, 11]] -= 0.1 * got[0].item_grads

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batched_setup_equals_per_client(self, cohort_dataset, kind, dtype):
        """The set-up shared by clients of one width — mean norm, norm
        cap, adaptive margin — equals each client's own computation,
        also for one-item sets, whose one (user, item) pair is a lone
        model row (a GEMV on NCF).  A zero base margin keeps the mean
        logit's last bits, which a larger one would round away."""
        config = AttackConfig(name="pieck_uea", num_targets=1, promotion_margin=0.0)
        team = build_malicious_cohort(
            "pieck_uea",
            dataset=cohort_dataset,
            config=config,
            targets=np.array([3]),
            embedding_dim=8,
            num_malicious=6,
            first_user_id=cohort_dataset.num_users,
            seed=5,
        ).clients
        model = build_model(kind, cohort_dataset.num_items, 8, seed=4)
        if dtype == np.float32:
            _to_float32(model)
        ids = [np.arange(20 + k, 20 + k + size) for k, size in
               enumerate((1, 1, 4, 2, 4, 1))]
        pseudo, reference, caps, margins = _pseudo_sets(team, ids, model, config)
        for k, popular_ids in enumerate(ids):
            users = model.item_embeddings[popular_ids]
            assert pseudo[k].tobytes() == users.tobytes()
            norms = np.linalg.norm(users, axis=1)
            assert reference[k] == float(np.mean(norms))
            assert caps[k] == config.norm_cap_factor * float(norms.max())
            logits, _ = model.forward(
                np.repeat(users, len(users), axis=0),
                np.tile(users, (len(users), 1)),
            )
            best = logits.reshape(len(users), len(users)).mean(axis=0).max()
            assert margins[k] == config.promotion_margin + float(best)


def _to_float32(model):
    """Cast a model's item table and any tower to float32, in place."""
    model.item_embeddings = model.item_embeddings.astype(np.float32)
    tower = getattr(model, "tower", None)
    if tower is not None:
        for layer in tower.layers:
            layer.weight = layer.weight.astype(np.float32)
            layer.bias = layer.bias.astype(np.float32)
        tower.projection = tower.projection.astype(np.float32)


# ----------------------------------------------------------------------
# Shared observation ledger (CohortMiner) properties
# ----------------------------------------------------------------------


def random_schedule(rng, num_clients, rounds):
    """Random per-round participant subsets, some rounds empty."""
    schedule = []
    for _ in range(rounds):
        size = int(rng.integers(0, num_clients + 1))
        schedule.append(
            np.sort(rng.choice(num_clients, size=size, replace=False))
        )
    return schedule


class TestCohortMiner:
    NUM_ITEMS = 17
    DIM = 5

    def _matrices(self, rng, rounds):
        return [
            rng.normal(size=(self.NUM_ITEMS, self.DIM)) for _ in range(rounds)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_accumulators_match_per_client_trackers(self, seed):
        rng = np.random.default_rng(seed)
        num_clients, rounds, mining_rounds = 6, 14, 3
        schedule = random_schedule(rng, num_clients, rounds)
        matrices = self._matrices(rng, rounds)

        miner = CohortMiner(self.NUM_ITEMS, mining_rounds, 4, num_clients)
        references = [
            ReferenceMiner(self.NUM_ITEMS, mining_rounds, 4)
            for _ in range(num_clients)
        ]
        for round_idx, rows in enumerate(schedule):
            matrix = matrices[round_idx]
            if len(rows):
                miner.observe(rows, matrix, round_idx)
            for row in rows:
                if references[int(row)].mined is None:
                    references[int(row)].observe(matrix, matrix.copy())
            for row in range(num_clients):
                mined = references[row].mined
                assert miner.ready[row] == (mined is not None)
                if mined is not None:
                    assert np.array_equal(miner.mined[row], mined)
                else:
                    assert np.array_equal(
                        miner.accumulated[row], references[row].accumulated
                    )

    def test_snapshot_copies_independent_of_team_size(self):
        rng = np.random.default_rng(3)
        rounds = 8
        matrices = self._matrices(rng, rounds)
        copies = []
        for num_clients in (3, 30):
            miner = CohortMiner(self.NUM_ITEMS, 3, 4, num_clients)
            for round_idx in range(rounds):
                miner.observe(
                    np.arange(num_clients), matrices[round_idx], round_idx
                )
            copies.append(miner.snapshot_copies)
        assert copies[0] == copies[1]
        assert copies[0] <= rounds

    def test_ledger_frees_snapshots_when_all_ready(self):
        rng = np.random.default_rng(4)
        miner = CohortMiner(self.NUM_ITEMS, 2, 4, 5)
        for round_idx in range(4):
            miner.observe(
                np.arange(5), rng.normal(size=(self.NUM_ITEMS, self.DIM)), round_idx
            )
        assert miner.all_ready
        assert miner.live_snapshots() == 0
        # Further observations are no-ops for frozen miners.
        before = miner.mined.copy()
        miner.observe(
            np.arange(5), rng.normal(size=(self.NUM_ITEMS, self.DIM)), 4
        )
        assert np.array_equal(miner.mined, before)
        assert miner.snapshot_copies <= 4

    def test_live_snapshots_bounded_by_distinct_baselines(self):
        rng = np.random.default_rng(5)
        miner = CohortMiner(self.NUM_ITEMS, 4, 4, 8)
        for round_idx in range(6):
            rows = np.sort(rng.choice(8, size=3, replace=False))
            miner.observe(
                rows, rng.normal(size=(self.NUM_ITEMS, self.DIM)), round_idx
            )
            assert miner.live_snapshots() <= round_idx + 1

    def test_shape_mismatch_rejected(self):
        miner = CohortMiner(self.NUM_ITEMS, 2, 4, 2)
        with pytest.raises(ValueError, match="items"):
            miner.observe(np.array([0]), np.zeros((3, self.DIM)), 0)


# ----------------------------------------------------------------------
# Stacked bounded-step kernel
# ----------------------------------------------------------------------


class TestStackedStepGradients:
    def test_rows_independent_of_stacking(self):
        rng = np.random.default_rng(1)
        old = rng.normal(size=(9, 7))
        new = old + rng.normal(size=(9, 7)) * rng.lognormal(size=(9, 1))
        stacked = stacked_step_gradients(old, new, 0.5, max_step=1.0)
        for row in range(9):
            single = stacked_step_gradients(
                old[row : row + 1], new[row : row + 1], 0.5, max_step=1.0
            )
            assert np.array_equal(stacked[row], single[0])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(2)
        old = rng.normal(size=(6, 5))
        new = old + rng.normal(size=(6, 5)) * 3.0
        stacked = stacked_step_gradients(old, new, 0.25, max_step=1.5)
        for row in range(6):
            scalar = bounded_step_gradient(old[row], new[row], 0.25, 1.5)
            np.testing.assert_allclose(stacked[row], scalar, rtol=1e-12)

    def test_unclipped_rows_exact_and_input_unmutated(self):
        rng = np.random.default_rng(3)
        old = rng.normal(size=(4, 3))
        delta = rng.normal(size=(4, 3)) * 0.01
        new = old + delta
        new_copy = new.copy()
        stacked = stacked_step_gradients(old, new, 1.0, max_step=10.0)
        for row in range(4):
            assert np.array_equal(
                stacked[row], bounded_step_gradient(old[row], new[row], 1.0, 10.0)
            )
        assert np.array_equal(new, new_copy)

    def test_zero_max_step_disables_clipping(self):
        old = np.zeros((2, 3))
        new = np.full((2, 3), 100.0)
        stacked = stacked_step_gradients(old, new, 1.0, max_step=0.0)
        assert np.array_equal(stacked, old - new)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            stacked_step_gradients(np.zeros((1, 2)), np.ones((1, 2)), 0.0, 1.0)


# ----------------------------------------------------------------------
# The per-object oracle still enforces the participation contract
# ----------------------------------------------------------------------


class TestParticipateTemplate:
    def test_scale_counts_mining_rounds(self, cohort_dataset):
        """PIECK counts participations even while uploading nothing."""
        cohort = build_malicious_cohort(
            "pieck_ipe",
            dataset=cohort_dataset,
            config=AttackConfig(name="pieck_ipe", mining_rounds=2),
            targets=np.array([3]),
            embedding_dim=4,
            num_malicious=1,
            first_user_id=cohort_dataset.num_users,
        )
        model = build_model("mf", cohort_dataset.num_items, 4, seed=0)
        client = attackers(cohort)[0]
        assert client.participate(model, TrainConfig(lr=1.0), 0) is None
        assert client.participate(model, TrainConfig(lr=1.0), 1) is None
        assert client._times_sampled == 2
        update = client.participate(model, TrainConfig(lr=1.0), 2)
        assert update is not None and update.malicious

    def test_round_payload_is_abstract(self):
        with pytest.raises(TypeError):
            MaliciousClient(0, np.array([1]), AttackConfig(), 4)
