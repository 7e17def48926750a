"""Tests for the client-side regularization defense (Section V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.mining import CohortMiner
from repro.config import AttackConfig, DefenseConfig, replace
from repro.defenses.regularization import (
    ClientRegularizer,
    exponential_rank_weights,
    re1_value,
    re2_value,
    regularization_terms,
)
from repro.federated.simulation import FederatedSimulation
from repro.metrics.divergence import softmax
from repro.rng import make_rng
from tests.conftest import numeric_gradient


def ready_regularizer(num_items=12, dim=4, beta=0.5, gamma=0.5, num_popular=3, seed=0):
    """A regularizer fed enough snapshots that its miner is ready."""
    reg = ClientRegularizer(
        num_items,
        DefenseConfig(
            name="regularization", beta=beta, gamma=gamma,
            num_popular=num_popular, mining_rounds=2,
        ),
    )
    rng = make_rng(seed)
    matrix = rng.normal(size=(num_items, dim))
    hot = np.arange(num_popular)
    for _ in range(3):
        matrix = matrix.copy()
        matrix[hot] += rng.normal(scale=2.0, size=(num_popular, dim))
        reg.observe(matrix)
    return reg, matrix, hot


class TestWeights:
    def test_normalised(self):
        weights = exponential_rank_weights(5)
        assert weights.sum() == pytest.approx(1.0)

    def test_strictly_decreasing(self):
        weights = exponential_rank_weights(6)
        assert (np.diff(weights) < 0).all()

    def test_exponential_shape(self):
        weights = exponential_rank_weights(4)
        ratios = weights[1:] / weights[:-1]
        np.testing.assert_allclose(ratios, np.exp(-1.0))


class TestBeforeReady:
    def test_zero_grads_before_mining_completes(self):
        reg = ClientRegularizer(10, DefenseConfig(name="regularization"))
        reg.observe(np.zeros((10, 4)))
        item_grads = reg.item_grad_terms(np.array([1, 2]), np.zeros((10, 4)))
        np.testing.assert_array_equal(item_grads, 0.0)
        user_grad = reg.user_grad_term(np.ones(4), np.zeros((10, 4)))
        np.testing.assert_array_equal(user_grad, 0.0)


class TestRe1:
    def test_item_grads_increase_re1(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.mined[0]
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8, 9])
        grads = reg.item_grad_terms(batch, matrix)
        # Simulated server step: v <- v - grad (lr=1); Re1 must increase.
        before = re1_value(matrix[batch], matrix[popular], weights)
        moved = matrix.copy()
        moved[batch] -= grads
        after = re1_value(moved[batch], moved[popular], weights)
        assert after > before

    def test_popular_items_in_batch_get_zero_grad(self):
        reg, matrix, hot = ready_regularizer()
        popular = reg.miner.mined[0]
        batch = np.array([int(popular[0]), 9])
        grads = reg.item_grad_terms(batch, matrix)
        np.testing.assert_array_equal(grads[0], 0.0)
        assert np.abs(grads[1]).sum() > 0

    def test_grad_matches_numeric(self):
        reg, matrix, hot = ready_regularizer(beta=1.0)
        popular = reg.miner.mined[0]
        weights = exponential_rank_weights(len(popular))
        batch = np.array([7, 8])

        def negative_re1_of_item(vec):
            vecs = matrix[batch].copy()
            vecs[0] = vec
            return -re1_value(vecs, matrix[popular], weights)

        grads = reg.item_grad_terms(batch, matrix)
        numeric = numeric_gradient(negative_re1_of_item, matrix[batch[0]].copy())
        np.testing.assert_allclose(grads[0], numeric, atol=1e-6)

    def test_beta_zero_disables(self):
        reg, matrix, _ = ready_regularizer(beta=0.0)
        grads = reg.item_grad_terms(np.array([7]), matrix)
        np.testing.assert_array_equal(grads, 0.0)


class TestRe2:
    def test_user_grad_increases_re2(self):
        reg, matrix, hot = ready_regularizer(gamma=1.0)
        popular = reg.miner.mined[0]
        weights = exponential_rank_weights(len(popular))
        user = make_rng(3).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        before = re2_value(matrix[popular], user, weights)
        after = re2_value(matrix[popular], user - grad, weights)
        assert after > before

    def test_grad_matches_numeric(self):
        reg, matrix, _ = ready_regularizer(gamma=1.0)
        popular = reg.miner.mined[0]
        weights = exponential_rank_weights(len(popular))
        user = make_rng(4).normal(size=4)
        grad = reg.user_grad_term(user, matrix)
        numeric = numeric_gradient(
            lambda u: -re2_value(matrix[popular], u, weights), user.copy()
        )
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_gamma_zero_disables(self):
        reg, matrix, _ = ready_regularizer(gamma=0.0)
        grad = reg.user_grad_term(np.ones(4), matrix)
        np.testing.assert_array_equal(grad, 0.0)


class TestValues:
    def test_re1_empty_unpopular(self):
        weights = exponential_rank_weights(2)
        assert re1_value(np.zeros((0, 3)), np.ones((2, 3)), weights) == 0.0

    def test_re2_non_negative(self):
        rng = make_rng(5)
        popular = rng.normal(size=(3, 4))
        weights = exponential_rank_weights(3)
        assert re2_value(popular, rng.normal(size=4), weights) >= 0.0


class TestTowerTerm:
    def test_mf_returns_empty(self):
        from repro.models.mf import MFModel

        reg, matrix, _ = ready_regularizer()
        assert reg.param_grad_terms(MFModel(12, 4, seed=0), np.array([1])) == []

    def test_zero_before_ready(self):
        from repro.models.ncf import NCFModel

        reg = ClientRegularizer(12, DefenseConfig(name="regularization"))
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([1, 2]))
        assert all((g == 0).all() for g in grads)

    def test_confined_to_user_slot_of_first_layer(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        model.item_embeddings[...] = matrix
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        assert len(grads) == len(model.interaction_params())
        # Only the user-slot rows of W1 carry gradient.
        assert np.abs(grads[0][:4]).sum() > 0
        assert np.abs(grads[0][4:]).sum() == 0
        assert all((g == 0).all() for g in grads[1:])

    def test_gamma_zero_disables(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(gamma=0.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=0)
        grads = reg.param_grad_terms(model, np.array([7]))
        assert all((g == 0).all() for g in grads)

    def test_server_step_lowers_pseudo_user_scores(self):
        from repro.models.ncf import NCFModel

        reg, matrix, _ = ready_regularizer(num_items=12, dim=4, gamma=1.0)
        model = NCFModel(12, 4, mlp_layers=(8,), seed=3)
        model.item_embeddings[...] = matrix
        popular = reg.miner.mined[0]
        pseudo = model.item_embeddings[popular]
        items = model.item_embeddings[[7, 8, 9]]
        users_rep = np.repeat(pseudo, len(items), axis=0)
        items_rep = np.tile(items, (len(pseudo), 1))
        before, _ = model.forward(users_rep, items_rep)
        grads = reg.param_grad_terms(model, np.array([7, 8, 9]))
        model.apply_param_update([-1.0 * g for g in grads])
        after, _ = model.forward(users_rep, items_rep)
        assert after.mean() < before.mean()


class TestRoundSnapshotSharing:
    """Miner baselines cost one item-matrix copy a round, not one a client."""

    def test_co_sampled_miners_share_one_baseline_until_they_freeze(
        self, tiny_mf_config
    ):
        config = replace(
            tiny_mf_config,
            defense=DefenseConfig(name="regularization", mining_rounds=2),
        )
        sim = FederatedSimulation(config)
        rounds = 6
        for round_idx in range(rounds):
            sim.run_round(round_idx)
        miner = sim.state.miner
        assert miner.ready.any()
        mining = (miner.observations > 0) & ~miner.ready
        # Still-mining clients hold the copy of the last round they were
        # sampled in: at most one array per round played, and a round
        # is copied at most once however many clients it served.
        assert 1 <= miner.live_snapshots() <= rounds < int(mining.sum())
        assert miner.snapshot_copies <= rounds
        assert set(miner._snapshots) == set(miner.last_round[mining].tolist())
        assert all(
            snap is not sim.model.item_embeddings
            for snap in miner._snapshots.values()
        )


# ----------------------------------------------------------------------
# The batched terms: one call for a cohort == the oracle per client
# ----------------------------------------------------------------------


@st.composite
def ragged_cohorts(draw):
    """A random cohort: ragged item segments, some clients not ready.

    Covers empty segments, segments made only of the client's mined
    items, ids (popular ones included) repeated across clients, and
    ``beta`` / ``gamma`` equal to zero.
    """
    num_items = draw(st.integers(2, 12))
    # Up to 20 wide: NumPy's contiguous-axis sums take a plain loop
    # below 8 elements and 8 unrolled accumulators from 8 on.
    dim = draw(st.integers(1, 20))
    width = draw(st.integers(1, num_items))
    num_clients = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mined = np.full((num_clients, width), -1, dtype=np.int64)
    segments = []
    for client in range(num_clients):
        if draw(st.booleans()):
            mined[client] = rng.permutation(num_items)[:width]
        kind = draw(st.sampled_from(["empty", "popular", "any"]))
        length = 0 if kind == "empty" else draw(st.integers(1, 8))
        pool = mined[client] if kind == "popular" and mined[client, 0] >= 0 else None
        if pool is None:
            segments.append(rng.integers(0, num_items, size=length))
        else:
            segments.append(rng.choice(pool, size=length))
    item_ids = np.concatenate(segments).astype(np.int64)
    lengths = np.array([len(seg) for seg in segments], dtype=np.int64)
    item_matrix = rng.normal(size=(num_items, dim))
    user_vecs = rng.normal(size=(num_clients, dim))
    beta = draw(st.sampled_from([0.0, 0.5, 1.7]))
    gamma = draw(st.sampled_from([0.0, 0.5, 3.0]))
    return mined, user_vecs, item_ids, lengths, item_matrix, beta, gamma


def _oracle(num_items, mined_row, beta, gamma):
    """A per-client ``ClientRegularizer`` whose miner froze ``mined_row``."""
    reg = ClientRegularizer(
        num_items,
        DefenseConfig(
            name="regularization", beta=beta, gamma=gamma,
            num_popular=len(mined_row), mining_rounds=1,
        ),
    )
    if mined_row[0] >= 0:
        reg.miner.mined[0] = mined_row
        reg.miner.ready[0] = True
    return reg


class TestBatchedTermsEqualOracle:
    @settings(max_examples=200, deadline=None)
    @given(ragged_cohorts())
    def test_cohort_call_equals_one_client_at_a_time(self, cohort):
        mined, user_vecs, item_ids, lengths, item_matrix, beta, gamma = cohort
        item_terms, user_terms = regularization_terms(
            mined, user_vecs, item_ids, lengths, item_matrix, beta, gamma
        )
        starts = np.concatenate([[0], np.cumsum(lengths)])
        no_item_term = np.zeros(len(item_ids), dtype=bool)
        for client in range(len(lengths)):
            reg = _oracle(len(item_matrix), mined[client], beta, gamma)
            seg = slice(starts[client], starts[client + 1])
            oracle_items = reg.item_grad_terms(item_ids[seg], item_matrix)
            oracle_user = reg.user_grad_term(user_vecs[client], item_matrix)
            assert item_terms[seg].tobytes() == oracle_items.tobytes()
            assert user_terms[client].tobytes() == oracle_user.tobytes()
            no_item_term[seg] = (
                beta == 0.0
                or mined[client, 0] < 0
                or np.isin(item_ids[seg], mined[client])
            )
        # The -0.0 trap: rows without a term are +0.0, so adding them
        # to a gradient flips its -0.0 entries to +0.0 on both paths.
        no_user_term = (mined[:, 0] < 0) | (gamma == 0.0)
        for terms, empty in ((item_terms, no_item_term), (user_terms, no_user_term)):
            assert terms[empty].tobytes() == np.zeros_like(terms[empty]).tobytes()
            assert not np.signbit(-0.0 + terms[empty]).any()

    def test_not_ready_popular_and_disabled_rows_are_positive_zero(self):
        reg, matrix, _ = ready_regularizer()
        popular = reg.miner.mined[0]
        mined = np.stack([popular, np.full_like(popular, -1)])
        item_ids = np.array([int(popular[0]), 9, 10], dtype=np.int64)
        lengths = np.array([2, 1])
        users = make_rng(1).normal(size=(2, matrix.shape[1]))
        item_terms, user_terms = regularization_terms(
            mined, users, item_ids, lengths, matrix, 0.5, 0.5
        )
        assert item_terms[0].tobytes() == np.zeros(matrix.shape[1]).tobytes()
        assert np.abs(item_terms[1]).sum() > 0
        assert item_terms[2].tobytes() == np.zeros(matrix.shape[1]).tobytes()
        assert user_terms[1].tobytes() == np.zeros(matrix.shape[1]).tobytes()
        for beta, gamma in ((0.0, 0.5), (0.5, 0.0)):
            items0, users0 = regularization_terms(
                mined, users, item_ids, lengths, matrix, beta, gamma
            )
            zero = items0 if beta == 0.0 else users0
            assert zero.tobytes() == np.zeros_like(zero).tobytes()


def _gemm_item_terms(popular, item_ids, item_matrix, beta):
    """Re1 item terms as the per-client hook computed them before the
    collapse: a popular x batch cosine GEMM and a GEMV over it."""
    grads = np.zeros((len(item_ids), item_matrix.shape[1]))
    popular_vecs = item_matrix[popular]
    weights = exponential_rank_weights(len(popular))
    p_norms = np.linalg.norm(popular_vecs, axis=1) + 1e-12
    unpopular_rows = np.flatnonzero(~np.isin(item_ids, popular))
    if len(unpopular_rows) == 0:
        return grads
    vecs = item_matrix[item_ids[unpopular_rows]]
    v_norms = np.linalg.norm(vecs, axis=1) + 1e-12
    cosines = (popular_vecs @ vecs.T) / np.outer(p_norms, v_norms)
    weighted_pop = (weights[:, None] * popular_vecs / p_norms[:, None]).sum(axis=0)
    first_term = weighted_pop[None, :] / v_norms[:, None]
    second_term = (weights @ cosines)[:, None] * vecs / (v_norms**2)[:, None]
    grads[unpopular_rows] = -beta * (first_term - second_term) / len(unpopular_rows)
    return grads


def _gemv_user_term(popular, user_emb, item_matrix, gamma):
    """Re2 user term as computed before: a GEMV over the softmaxes."""
    weights = exponential_rank_weights(len(popular))
    return -gamma * (softmax(user_emb) - weights @ softmax(item_matrix[popular]))


class TestCollapsedFormAgreesWithMatrixForm:
    @settings(max_examples=100, deadline=None)
    @given(ragged_cohorts())
    def test_within_1e12_of_the_gemm_gemv_form(self, cohort):
        """Relative to the size of the summands: where ``first - second``
        cancels (exactly so at ``d = 1``, where Re1 is flat), an entry
        keeps their absolute error.  Each summand of a Re1 row is at
        most ``beta / |v|`` (``a_c`` is a convex sum of unit vectors),
        each of a Re2 entry at most ``gamma``."""
        mined, user_vecs, item_ids, lengths, item_matrix, beta, gamma = cohort
        item_terms, user_terms = regularization_terms(
            mined, user_vecs, item_ids, lengths, item_matrix, beta, gamma
        )
        inverse_norms = 1.0 / (np.linalg.norm(item_matrix, axis=1) + 1e-12)
        starts = np.concatenate([[0], np.cumsum(lengths)])
        for client in np.flatnonzero(mined[:, 0] >= 0):
            seg = slice(starts[client], starts[client + 1])
            old_items = _gemm_item_terms(
                mined[client], item_ids[seg], item_matrix, beta
            )
            old_user = _gemv_user_term(
                mined[client], user_vecs[client], item_matrix, gamma
            )
            item_scale = beta * inverse_norms[item_ids[seg]].max(initial=0.0)
            assert np.abs(item_terms[seg] - old_items).max(initial=0.0) <= (
                1e-12 * item_scale
            )
            assert np.abs(user_terms[client] - old_user).max() <= 1e-12 * gamma


# ----------------------------------------------------------------------
# Freeze sorts in bounded row blocks
# ----------------------------------------------------------------------


class TestBlockedFreeze:
    def test_mined_sets_independent_of_block_size(self, monkeypatch):
        rng = np.random.default_rng(5)
        history = [rng.normal(size=(30, 3)) for _ in range(4)]
        schedule = [rng.permutation(40)[: int(rng.integers(10, 40))] for _ in range(4)]

        def mined(block_bytes):
            monkeypatch.setattr(CohortMiner, "FREEZE_BLOCK_BYTES", block_bytes)
            miner = CohortMiner(30, 2, 7, 40)
            for round_idx, (matrix, rows) in enumerate(zip(history, schedule)):
                miner.observe(rows, matrix, round_idx)
            return miner

        one_row, unbounded = mined(1), mined(1 << 40)
        assert one_row.ready.sum() > 1
        assert np.array_equal(one_row.ready, unbounded.ready)
        assert np.array_equal(one_row.mined, unbounded.mined)

    def test_simulation_defender_and_attacker_unchanged(
        self, tiny_mf_config, monkeypatch
    ):
        config = replace(
            tiny_mf_config,
            attack=AttackConfig(name="pieck_uea", malicious_ratio=0.2, mining_rounds=2),
            defense=DefenseConfig(name="regularization", mining_rounds=2),
        )

        def run(block_bytes):
            monkeypatch.setattr(CohortMiner, "FREEZE_BLOCK_BYTES", block_bytes)
            sim = FederatedSimulation(config)
            for round_idx in range(8):
                sim.run_round(round_idx)
            return sim

        one_row, unbounded = run(1), run(1 << 40)
        for a, b in (
            (one_row.state.miner, unbounded.state.miner),
            (one_row.malicious_cohort.miner, unbounded.malicious_cohort.miner),
        ):
            assert a.ready.any()
            assert np.array_equal(a.mined, b.mined)
        assert (
            one_row.model.item_embeddings.tobytes()
            == unbounded.model.item_embeddings.tobytes()
        )
