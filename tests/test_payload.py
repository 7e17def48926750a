"""Tests for the per-client upload, ``reference.updates.ClientUpdate``."""

import numpy as np
import pytest

from reference import ClientUpdate


class TestValidation:
    def test_aligned_update_accepted(self):
        update = ClientUpdate(0, np.array([1, 2]), np.zeros((2, 4)))
        assert len(update.item_ids) == 2

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="align"):
            ClientUpdate(0, np.array([1, 2, 3]), np.zeros((2, 4)))

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ClientUpdate(0, np.array([1, 1]), np.zeros((2, 4)))

    def test_one_dim_grads_rejected(self):
        with pytest.raises(ValueError):
            ClientUpdate(0, np.array([1]), np.zeros(4))


class TestNorms:
    def test_total_norm_items_only(self):
        grads = np.array([[3.0, 0.0], [0.0, 4.0]])
        update = ClientUpdate(0, np.array([0, 1]), grads)
        assert update.total_norm == pytest.approx(5.0)

    def test_total_norm_includes_params(self):
        update = ClientUpdate(
            0, np.array([0]), np.zeros((1, 2)), param_grads=[np.array([3.0, 4.0])]
        )
        assert update.total_norm == pytest.approx(5.0)

    def test_clipped_reduces_norm(self):
        grads = np.full((1, 4), 10.0)
        update = ClientUpdate(0, np.array([0]), grads)
        clipped = update.clipped(1.0)
        assert clipped.total_norm == pytest.approx(1.0)
        # Direction preserved.
        ratio = clipped.item_grads / update.item_grads
        assert np.allclose(ratio, ratio[0, 0])

    def test_clipped_noop_when_below_bound(self):
        update = ClientUpdate(0, np.array([0]), np.ones((1, 2)))
        assert update.clipped(100.0) is update

    def test_clipped_noop_for_non_positive_bound(self):
        update = ClientUpdate(0, np.array([0]), np.ones((1, 2)) * 50)
        assert update.clipped(0.0) is update

    def test_clipped_scales_params_too(self):
        update = ClientUpdate(
            0, np.array([0]), np.zeros((1, 2)), param_grads=[np.array([6.0, 8.0])]
        )
        clipped = update.clipped(5.0)
        np.testing.assert_allclose(clipped.param_grads[0], [3.0, 4.0])

    def test_malicious_flag_preserved_by_clipping(self):
        update = ClientUpdate(0, np.array([0]), np.ones((1, 2)) * 9, malicious=True)
        assert update.clipped(0.1).malicious
