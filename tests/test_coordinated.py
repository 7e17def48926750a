"""Tests for the coordinated defense's ItemScaleClip (repro.defenses.coordinated)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ClientUpdate, filter_updates
from repro.defenses.coordinated import ItemScaleClip


def _update(user_id, grads, item_ids=None, malicious=False):
    grads = np.asarray(grads, dtype=np.float64)
    if item_ids is None:
        item_ids = np.arange(len(grads))
    return ClientUpdate(
        user_id=user_id,
        item_ids=np.asarray(item_ids),
        item_grads=grads,
        malicious=malicious,
    )


class TestConstruction:
    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            ItemScaleClip(factor=0.0)

    def test_rejects_invalid_history(self):
        with pytest.raises(ValueError):
            ItemScaleClip(history=1.0)
        with pytest.raises(ValueError):
            ItemScaleClip(history=-0.1)


class TestClipping:
    def test_empty_round_passes_through(self):
        clip = ItemScaleClip()
        assert filter_updates(clip, []) == []

    def test_benign_scale_rows_untouched(self):
        # All rows share the same norm: nothing exceeds factor * median.
        updates = [_update(i, np.ones((3, 4))) for i in range(5)]
        clipped = filter_updates(ItemScaleClip(factor=2.0), updates)
        for original, after in zip(updates, clipped):
            assert after is original

    def test_oversized_row_clipped_to_bound(self):
        benign = [_update(i, np.ones((4, 2))) for i in range(9)]
        poison = _update(99, [[100.0, 0.0]], item_ids=[7], malicious=True)
        clipped = filter_updates(
            ItemScaleClip(factor=2.0, history=0.0), benign + [poison]
        )
        poisoned_row = clipped[-1].item_grads[0]
        median = np.sqrt(2.0)  # norm of a ones(2) row
        assert np.linalg.norm(poisoned_row) == pytest.approx(2.0 * median)
        # Direction is preserved, only the magnitude is capped.
        assert poisoned_row[1] == 0.0 and poisoned_row[0] > 0.0

    def test_median_is_robust_to_poison_rows(self):
        # One attacker uploading a single huge row cannot drag the
        # median: benign rows dominate the row count.
        benign = [_update(i, np.ones((10, 2))) for i in range(8)]
        poison = _update(99, [[1e6, 0.0]], item_ids=[0])
        clip = ItemScaleClip(factor=2.0, history=0.0)
        clipped = filter_updates(clip, benign + [poison])
        assert np.linalg.norm(clipped[-1].item_grads[0]) == pytest.approx(
            2.0 * np.sqrt(2.0)
        )

    def test_zero_rows_ignored_in_median(self):
        updates = [
            _update(0, np.zeros((5, 2))),
            _update(1, np.ones((2, 2))),
            _update(2, [[10.0, 0.0], [0.0, 0.1]]),
        ]
        clipped = filter_updates(ItemScaleClip(factor=1.0, history=0.0), updates)
        # Median over positive norms only; the zero update is untouched.
        assert np.allclose(clipped[0].item_grads, 0.0)
        assert np.isfinite(clipped[2].item_grads).all()

    def test_all_zero_round_passes_through(self):
        updates = [_update(0, np.zeros((3, 2)))]
        clipped = filter_updates(ItemScaleClip(), updates)
        assert clipped[0] is updates[0]

    def test_param_grads_preserved(self):
        update = ClientUpdate(
            user_id=0,
            item_ids=np.array([0]),
            item_grads=np.array([[50.0, 0.0]]),
            param_grads=[np.ones(3)],
        )
        small = [_update(i + 1, np.ones((6, 2))) for i in range(4)]
        clipped = filter_updates(
            ItemScaleClip(factor=1.0, history=0.0), small + [update]
        )
        assert np.allclose(clipped[-1].param_grads[0], np.ones(3))
        assert clipped[-1].malicious == update.malicious
        assert clipped[-1].user_id == update.user_id


class TestAdversarialCalibration:
    def test_row_flooding_cannot_lower_the_scale(self):
        # Availability attack on the calibration itself: one client
        # uploads thousands of near-zero rows to drag a naive global
        # median down and cripple benign training. Median-of-medians
        # gives each client one vote, so the scale stays benign.
        benign = [_update(i, np.ones((5, 2))) for i in range(4)]
        flood = _update(99, 1e-4 * np.ones((500, 2)), item_ids=np.arange(500))
        clip = ItemScaleClip(factor=2.0, history=0.0)
        clipped = filter_updates(clip, benign + [flood])
        benign_scale = np.sqrt(2.0)
        assert clip._smoothed_median == pytest.approx(benign_scale)
        # Benign rows untouched at the benign-calibrated bound.
        for update in clipped[:4]:
            assert np.allclose(update.item_grads, 1.0)

    def test_single_huge_client_cannot_raise_the_scale(self):
        benign = [_update(i, np.ones((5, 2))) for i in range(4)]
        heavy = _update(99, 50.0 * np.ones((500, 2)), item_ids=np.arange(500))
        clip = ItemScaleClip(factor=2.0, history=0.0)
        filter_updates(clip, benign + [heavy])
        assert clip._smoothed_median == pytest.approx(np.sqrt(2.0))


class TestParamClipping:
    def _with_params(self, user_id, tensor_norm, malicious=False):
        grad = np.zeros(4)
        grad[0] = tensor_norm
        return ClientUpdate(
            user_id=user_id,
            item_ids=np.array([0]),
            item_grads=np.ones((1, 2)),
            param_grads=[grad],
            malicious=malicious,
        )

    def test_param_clipping_off_by_default(self):
        # Whole-tensor clipping was measured to backfire on DL-FRS (see
        # coordinated.py docstring): parameter gradients pass untouched.
        benign = [self._with_params(i, 1.0) for i in range(5)]
        poison = self._with_params(99, 100.0, malicious=True)
        clipped = filter_updates(
            ItemScaleClip(factor=2.0, history=0.0), benign + [poison]
        )
        assert np.linalg.norm(clipped[-1].param_grads[0]) == pytest.approx(100.0)

    def test_clients_without_params_are_fine(self):
        mixed = [self._with_params(0, 1.0), _update(1, np.ones((3, 2)))]
        clipped = filter_updates(ItemScaleClip(factor=2.0, history=0.0), mixed)
        assert clipped[1].param_grads == []


class TestSmoothing:
    def test_history_smooths_across_rounds(self):
        clip = ItemScaleClip(factor=1.0, history=0.5)
        filter_updates(clip, [_update(0, np.ones((4, 4)))])  # median 2.0
        first = clip._smoothed_median
        filter_updates(clip, [_update(0, 4.0 * np.ones((4, 4)))])  # round median 8.0
        assert first == pytest.approx(2.0)
        assert clip._smoothed_median == pytest.approx(0.5 * 2.0 + 0.5 * 8.0)

    def test_zero_history_tracks_round_median(self):
        clip = ItemScaleClip(factor=1.0, history=0.0)
        filter_updates(clip, [_update(0, np.ones((4, 4)))])
        filter_updates(clip, [_update(0, 4.0 * np.ones((4, 4)))])
        assert clip._smoothed_median == pytest.approx(8.0)

    @given(st.floats(0.1, 10.0), st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_clipped_rows_never_exceed_bound(self, row_scale, history):
        clip = ItemScaleClip(factor=2.0, history=history)
        rng = np.random.default_rng(0)
        updates = [
            _update(i, row_scale * rng.normal(0, 1, (5, 3))) for i in range(4)
        ]
        updates.append(_update(9, [[1e4, 0.0, 0.0]], item_ids=[1]))
        clipped = filter_updates(clip, updates)
        bound = 2.0 * clip._smoothed_median + 1e-9
        for update in clipped:
            assert (np.linalg.norm(update.item_grads, axis=1) <= bound).all()
