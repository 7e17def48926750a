"""Tests for the long-tail synthetic dataset generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.datasets import generate_longtail_dataset as per_user_generator
from repro.analysis.popularity import longtail_summary
from repro.datasets.loaders import load_dataset
from repro.datasets.synthetic import generate_longtail_dataset
from repro.experiments.presets import EXPERIMENT_SCALES, dataset_config


def digest(dataset) -> str:
    """sha256 of the dataset's ``(indptr, indices, test_items)`` as int64."""
    h = hashlib.sha256()
    for array in (*dataset.train_csr(), dataset.test_items):
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestShapes:
    def test_basic_sizes(self, tiny_dataset):
        assert tiny_dataset.num_users == 40
        assert tiny_dataset.num_items == 80
        assert len(tiny_dataset.train_pos) == 40
        assert len(tiny_dataset.test_items) == 40

    def test_every_user_has_test_item(self, tiny_dataset):
        assert (tiny_dataset.test_items >= 0).all()

    def test_test_item_not_in_train(self, tiny_dataset):
        for user in range(tiny_dataset.num_users):
            assert tiny_dataset.test_items[user] not in tiny_dataset.train_set(user)

    def test_min_interactions_respected(self, tiny_dataset):
        for items in tiny_dataset.train_pos:
            assert len(items) >= 2  # 3 minimum minus 1 held out

    def test_train_items_unique_per_user(self, tiny_dataset):
        for items in tiny_dataset.train_pos:
            assert len(np.unique(items)) == len(items)


class TestDistribution:
    def test_longtail_head_share(self):
        data = generate_longtail_dataset(200, 400, 8000, seed=11)
        summary = longtail_summary(data)
        # The defining Fig. 3 property: the head is far over-represented.
        assert summary.head_interaction_share > 0.35
        assert summary.gini > 0.3

    def test_popularity_exponent_controls_skew(self):
        flat = generate_longtail_dataset(
            100, 200, 3000, popularity_exponent=0.1, seed=5
        )
        steep = generate_longtail_dataset(
            100, 200, 3000, popularity_exponent=1.4, seed=5
        )
        assert (
            longtail_summary(steep).head_interaction_share
            > longtail_summary(flat).head_interaction_share
        )

    def test_interaction_budget_roughly_met(self):
        data = generate_longtail_dataset(100, 300, 5000, seed=2)
        total = data.num_train_interactions + int((data.test_items >= 0).sum())
        assert 0.7 * 5000 <= total <= 1.3 * 5000


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_longtail_dataset(30, 50, 500, seed=4)
        b = generate_longtail_dataset(30, 50, 500, seed=4)
        np.testing.assert_array_equal(a.test_items, b.test_items)
        for pa, pb in zip(a.train_pos, b.train_pos):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = generate_longtail_dataset(30, 50, 500, seed=4)
        b = generate_longtail_dataset(30, 50, 500, seed=5)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(a.train_pos, b.train_pos)
        )


class TestErrors:
    def test_insufficient_interactions_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            generate_longtail_dataset(100, 50, 100, seed=0)


class TestPerUserOracle:
    """The block generator replays the per-user ``Generator.choice`` loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        num_users=st.integers(1, 60),
        num_items=st.integers(1, 80),
        num_interactions=st.integers(0, 3000),
        # 1100 underflows every weight but the top rank's to exactly 0.
        exponent=st.one_of(st.floats(0.1, 3.0), st.just(1100.0)),
        latent_dim=st.integers(1, 8),
        affinity=st.floats(0.0, 4.0),
        min_interactions=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_same_bytes_or_same_error(
        self, num_users, num_items, num_interactions, exponent, latent_dim,
        affinity, min_interactions, seed,
    ):
        def build(generator):
            try:
                return generator(
                    num_users, num_items, num_interactions,
                    popularity_exponent=exponent, latent_dim=latent_dim,
                    affinity_strength=affinity,
                    min_interactions_per_user=min_interactions, seed=seed,
                )
            except ValueError as error:
                return str(error)

        with np.errstate(divide="ignore"):
            want = build(per_user_generator)
            got = build(generate_longtail_dataset)
        if isinstance(want, str):
            assert got == want
            return
        assert digest(got) == digest(want)
        assert len(got.train_pos) == len(want.train_pos)
        for mine, theirs in zip(got.train_pos, want.train_pos):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert got.test_items.dtype == want.test_items.dtype


#: ``digest`` of the ledger's long-tail specs, recorded at commit 315a06a
#: with the per-user generator.
LEDGER_DIGESTS = {
    ((4000, 6000, 48000), 0): "f59fb7b9ab210555aaa5e03065ea003ad8a9df4d4c0f839ad085b4fa88849daa",
    ((4000, 6000, 48000), 1): "221a4b9979372d478a1f56eec002277d37a3ff29bc04db867eb06cd72b0147f6",
    ((4000, 6000, 48000), 2): "745e16b095c09cd02f71108b5d19747104a0f5f2dc289712aaa3910da48a3c8a",
    ((2000, 3000, 24000), 0): "263c46d42cd3f62ea3e703aa951f046b3138f6f43398a9266377fb3fa638d071",
    ((2000, 3000, 24000), 1): "61873f8350f46049e20c0eb55856652a9d2e2e4cafeee71b7de48c354cee8279",
    ((2000, 3000, 24000), 2): "94f02614724393106088f2b058b889d28ff066e44062a2651b166404ff50814d",
}

#: ``digest`` of each preset dataset (seed 0) at its ``EXPERIMENT_SCALES``
#: entry and at Table VIII's full size, recorded likewise.
PRESET_DIGESTS = {
    ("ml-100k", 0.2): "979bb56416223ab776dce40fb7d01f35bd99109a1b9cd87ba2a898fb9143a6c1",
    ("ml-100k", 1.0): "a265a0fffb0aeb9557b9a4040aad0dc61c0b6a70a9ebb68645b115af7dbd5c7f",
    ("ml-1m", 0.06): "a5691b3b182dc40bbe585aeac5f97b031d76cba6856488ddb662333ab50b8503",
    ("ml-1m", 1.0): "6746ed01bbc6b71e60a936b45fa8292b6eafab308e6692de79f91e4420079a4c",
    ("az", 0.06): "fdc0feb75fb96f3ab57e2eaf2500c2a2dfab65b8de7d96be335d5787957e42f8",
    ("az", 1.0): "68f73ac27fb32b594da3a9fb7276175101618992812c23340cfaf52fc75178d5",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("spec, seed", sorted(LEDGER_DIGESTS))
    def test_ledger_specs(self, spec, seed):
        dataset = generate_longtail_dataset(*spec, seed=seed)
        assert digest(dataset) == LEDGER_DIGESTS[spec, seed]

    @pytest.mark.parametrize("name, scale", sorted(PRESET_DIGESTS))
    def test_presets(self, name, scale, tmp_path):
        assert scale in (EXPERIMENT_SCALES[name], 1.0)
        # An empty data root: the synthetic fallback, never raw files.
        dataset = load_dataset(dataset_config(name, scale=scale), str(tmp_path))
        assert digest(dataset) == PRESET_DIGESTS[name, scale]
