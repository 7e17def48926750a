"""Tests for PIECK-UEA pseudo-user refinement (repro.attacks.refinement)."""

import functools

import numpy as np
import pytest

from reference import ReferenceAttacker, ReferenceMiner
from repro.attacks.pieck_uea import PieckUEA
from repro.attacks.refinement import PseudoUserRefiner
from repro.config import AttackConfig, TrainConfig
from repro.models.base import RecommenderModel
from repro.models.mf import MFModel
from repro.models.ncf import NCFModel


def _trained_mf(num_items=40, dim=8, seed=0):
    """An MF model whose item space has a planted 'user-liked' direction."""
    model = MFModel(num_items, dim, init_scale=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    direction = rng.normal(0, 1, dim)
    direction /= np.linalg.norm(direction)
    # Items 0..9 are 'popular': aligned with the planted user direction.
    model.item_embeddings[:10] = direction * 2.0 + rng.normal(0, 0.05, (10, dim))
    # Remaining items point away.
    model.item_embeddings[10:] = -direction * 1.0 + rng.normal(0, 0.3, (30, dim))
    return model, direction


class TestPseudoUserRefiner:
    def test_rejects_empty_popular_set(self):
        with pytest.raises(ValueError):
            PseudoUserRefiner(10, 4, np.array([], dtype=np.int64))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            PseudoUserRefiner(10, 4, np.arange(3), count=0)

    def test_vectors_shape(self):
        refiner = PseudoUserRefiner(40, 8, np.arange(10), count=5, seed=1)
        assert refiner.vectors.shape == (5, 8)

    def test_refine_aligns_with_popular_direction(self):
        model, direction = _trained_mf()
        refiner = PseudoUserRefiner(
            40, 8, np.arange(10), count=4, steps=80, lr=0.5, seed=2
        )
        vecs = refiner.refine(model)
        cosines = vecs @ direction / np.linalg.norm(vecs, axis=1)
        # Every refined pseudo-user must point towards the direction the
        # popular items (and hence the users who like them) occupy.
        assert (cosines > 0.8).all()

    def test_refine_scores_populars_above_others(self):
        model, _ = _trained_mf()
        refiner = PseudoUserRefiner(40, 8, np.arange(10), steps=80, seed=3)
        vecs = refiner.refine(model)
        pop_scores = vecs @ model.item_embeddings[:10].T
        other_scores = vecs @ model.item_embeddings[10:].T
        assert pop_scores.mean() > other_scores.mean()

    def test_refine_is_warm_started(self):
        model, _ = _trained_mf()
        refiner = PseudoUserRefiner(40, 8, np.arange(10), steps=10, seed=4)
        first = refiner.refine(model)
        second = refiner.refine(model)
        # Further steps continue from the previous state rather than
        # restarting from the random initialisation.
        assert not np.allclose(first, refiner.vectors)
        assert np.allclose(second, refiner.vectors)

    def test_refine_works_on_ncf(self):
        model = NCFModel(40, 8, mlp_layers=(16, 8), init_scale=0.1, seed=0)
        refiner = PseudoUserRefiner(40, 8, np.arange(10), steps=20, seed=5)
        before = refiner.vectors
        vecs = refiner.refine(model)
        assert vecs.shape == before.shape
        assert not np.allclose(vecs, before)
        assert np.isfinite(vecs).all()

    @pytest.mark.parametrize("kind", ["mf", "ncf"])
    def test_user_grads_refine_like_the_full_backward(self, kind):
        if kind == "mf":
            model, _ = _trained_mf()
        else:
            model = NCFModel(40, 8, mlp_layers=(16, 8), init_scale=0.1, seed=0)
        refined = PseudoUserRefiner(40, 8, np.arange(10), steps=20, seed=7).refine(model)
        # The default hook: the users of the whole backward pass, tower
        # parameter gradients included.
        model.user_grads = functools.partial(RecommenderModel.user_grads, model)
        want = PseudoUserRefiner(40, 8, np.arange(10), steps=20, seed=7).refine(model)
        np.testing.assert_array_equal(refined, want)

    def test_degenerate_all_popular_catalogue(self):
        model, _ = _trained_mf()
        refiner = PseudoUserRefiner(40, 8, np.arange(40), steps=5, seed=6)
        vecs = refiner.refine(model)
        assert np.isfinite(vecs).all()


class TestPseudoUserSource:
    def _client(self, source: str) -> PieckUEA:
        config = AttackConfig(
            name="pieck_uea",
            uea_pseudo_source=source,
            num_popular=5,
            mining_rounds=1,
            uea_refine_steps=5,
        )
        return PieckUEA(100, np.array([30]), config, num_items=40, seed=0)

    def _popular(self, client: PieckUEA, model) -> np.ndarray:
        """The client's mined set minus its targets, mined on ``model``."""
        config = client.config
        miner = ReferenceMiner(
            client.num_items, config.mining_rounds, config.num_popular
        )
        while miner.mined is None:
            matrix = model.item_embeddings
            miner.observe(matrix, matrix.copy())
            model.item_embeddings += 0.01
        return client._popular_excluding_targets(miner.mined)

    def test_popular_source_returns_item_rows(self):
        model, _ = _trained_mf()
        client = self._client("popular")
        ids = self._popular(client, model)
        pseudo = client._pseudo_users(model, ids)
        assert np.allclose(pseudo, model.item_embeddings[ids])

    def test_refined_source_differs_from_item_rows(self):
        model, _ = _trained_mf()
        client = self._client("refined")
        ids = self._popular(client, model)
        pseudo = client._pseudo_users(model, ids)
        assert pseudo.shape == (8, 8)  # uea_refine_count x dim
        assert not np.allclose(pseudo[: len(ids)], model.item_embeddings[ids])

    def test_refined_source_reuses_refiner(self):
        model, _ = _trained_mf()
        client = self._client("refined")
        ids = self._popular(client, model)
        client._pseudo_users(model, ids)
        refiner = client._refiner
        client._pseudo_users(model, ids)
        assert client._refiner is refiner

    def test_participate_uploads_target_gradients(self):
        model, _ = _trained_mf()
        for source in ("popular", "refined"):
            client = ReferenceAttacker(self._client(source))
            train_cfg = TrainConfig(lr=1.0)
            update = None
            for round_idx in range(6):
                update = client.participate(model, train_cfg, round_idx)
            assert update is not None, source
            assert update.malicious
            assert list(update.item_ids) == [30]
            assert np.isfinite(update.item_grads).all()
