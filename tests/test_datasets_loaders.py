"""Tests for the dataset registry and real-file loaders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.datasets import interactions_to_dataset as per_user_split
from repro.config import DatasetConfig
from repro.datasets.loaders import (
    DATASET_STATS,
    interactions_to_dataset,
    load_dataset,
)


class TestStats:
    def test_paper_table8_statistics(self):
        assert DATASET_STATS["ml-100k"].num_users == 943
        assert DATASET_STATS["ml-100k"].num_items == 1682
        assert DATASET_STATS["ml-1m"].num_interactions == 1_000_209
        assert DATASET_STATS["az"].num_users == 16_566


class TestSyntheticFallback:
    def test_scaled_sizes(self):
        data = load_dataset(DatasetConfig(name="ml-100k", scale=0.1))
        assert data.num_users == 94
        assert data.num_items == 168

    def test_density_preserved_by_square_scaling(self):
        full = DATASET_STATS["ml-100k"]
        full_density = full.num_interactions / (full.num_users * full.num_items)
        data = load_dataset(DatasetConfig(name="ml-100k", scale=0.2))
        density = data.num_train_interactions / (data.num_users * data.num_items)
        # Within a factor ~2 of the real density (split/min-floor slack).
        assert 0.5 * full_density < density < 2.0 * full_density

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            load_dataset(DatasetConfig(name="netflix"))

    def test_custom_dataset_allowed(self):
        data = load_dataset(DatasetConfig(name="custom", scale=0.05))
        assert data.num_users >= 16

    def test_deterministic_in_seed(self):
        a = load_dataset(DatasetConfig(name="ml-100k", scale=0.05, seed=1))
        b = load_dataset(DatasetConfig(name="ml-100k", scale=0.05, seed=1))
        np.testing.assert_array_equal(a.test_items, b.test_items)


class TestRealFileLoading:
    def test_ml100k_file_parsed(self, tmp_path):
        raw = tmp_path / "u.data"
        rows = []
        for user in range(1, 13):
            for item in range(1, 6):
                rows.append(f"{user}\t{item}\t5\t88125{user}{item}")
        raw.write_text("\n".join(rows))
        data = load_dataset(
            DatasetConfig(name="ml-100k", min_interactions_per_user=3),
            data_root=str(tmp_path),
        )
        assert data.num_users == 12
        assert data.num_items == 5
        # Leave-one-out: each user holds out exactly one item.
        assert all(len(p) == 4 for p in data.train_pos)

    def test_interactions_to_dataset_drops_sparse_users(self):
        users = np.array([0, 0, 0, 1])
        items = np.array([10, 11, 12, 10])
        data = interactions_to_dataset(users, items, name="t", min_interactions_per_user=3)
        assert data.num_users == 1  # user 1 dropped

    def test_interactions_to_dataset_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            interactions_to_dataset(np.array([0]), np.array([1, 2]), name="t")


class TestPerUserOracle:
    """The vectorised split equals the per-user loop over dicts of sets."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(-3, 25), st.integers(-10, 40)), max_size=200
        ),
        min_interactions=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_same_dataset(self, pairs, min_interactions, seed):
        # Unsorted raw ids with repeated pairs; some users fall below the
        # minimum and are dropped.
        users = np.array([u * 7 for u, _ in pairs], dtype=np.int64)
        items = np.array([i * 3 for _, i in pairs], dtype=np.int64)
        kwargs = dict(name="raw", min_interactions_per_user=min_interactions, seed=seed)
        want = per_user_split(users, items, **kwargs)
        got = interactions_to_dataset(users, items, **kwargs)
        assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
        assert got.test_items.dtype == want.test_items.dtype
        np.testing.assert_array_equal(got.test_items, want.test_items)
        assert len(got.train_pos) == len(want.train_pos)
        for mine, theirs in zip(got.train_pos, want.train_pos):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
