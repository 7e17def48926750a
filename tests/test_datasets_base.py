"""Tests for the interaction dataset container."""

import numpy as np
import pytest

from reference.scalar import train_mask
from repro.datasets.base import InteractionDataset


def make_dataset():
    train_pos = [
        np.array([0, 1, 2]),
        np.array([0, 1]),
        np.array([0]),
        np.array([3]),
    ]
    test_items = np.array([3, 2, 1, 0])
    return InteractionDataset("unit", 4, 5, train_pos, test_items)


class TestValidation:
    def test_wrong_user_count_rejected(self):
        with pytest.raises(ValueError, match="train_pos"):
            InteractionDataset("x", 3, 5, [np.array([0])], np.array([1, 2, 3]))

    def test_wrong_test_count_rejected(self):
        with pytest.raises(ValueError, match="test_items"):
            InteractionDataset("x", 1, 5, [np.array([0])], np.array([1, 2]))

    def test_out_of_range_item_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            InteractionDataset("x", 1, 5, [np.array([9])], np.array([0]))

    def test_out_of_range_test_item_rejected(self):
        with pytest.raises(ValueError, match="test item"):
            InteractionDataset("x", 1, 5, [np.array([0])], np.array([7]))


class TestPopularity:
    def test_counts(self):
        data = make_dataset()
        np.testing.assert_array_equal(data.popularity(), [3, 2, 1, 1, 0])

    def test_counts_with_test(self):
        data = make_dataset()
        counts = data.popularity(include_test=True)
        np.testing.assert_array_equal(counts, [4, 3, 2, 2, 0])

    def test_ranking_descending(self):
        data = make_dataset()
        ranking = data.popularity_ranking()
        counts = data.popularity()
        assert list(counts[ranking]) == sorted(counts, reverse=True)

    def test_rank_of_inverse(self):
        data = make_dataset()
        ranking = data.popularity_ranking()
        rank_of = data.popularity_rank_of()
        for position, item in enumerate(ranking):
            assert rank_of[item] == position

    def test_coldest_items(self):
        data = make_dataset()
        assert 4 in data.coldest_items(1)


class TestMembership:
    def test_train_set(self):
        data = make_dataset()
        assert data.train_set(0) == {0, 1, 2}
        assert data.train_set(1) == {0, 1}

    def test_train_mask_shape_and_content(self):
        data = make_dataset()
        mask = train_mask(data)
        assert mask.shape == (4, 5)
        assert mask[0, :3].all() and not mask[0, 3:].any()
        assert int(mask.sum()) == data.num_train_interactions

    def test_num_train_interactions(self):
        assert make_dataset().num_train_interactions == 7
