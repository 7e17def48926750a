"""Gradient-checked tests for the NumPy MLP substrate."""

import numpy as np
import pytest

from repro.models.mlp import Linear, MLPTower
from repro.rng import make_rng
from tests.conftest import numeric_gradient


class TestLinear:
    def test_forward_affine(self):
        rng = make_rng(0)
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_grad_matches_transpose_product(self):
        rng = make_rng(1)
        layer = Linear(3, 2, rng)
        dz = rng.normal(size=(5, 2))
        dx = layer.input_grad(dz)
        assert dx.shape == (5, 3)
        np.testing.assert_allclose(dx, dz @ layer.weight.T, rtol=1e-12)


class TestMLPTower:
    def make_tower(self, seed=3):
        return MLPTower(6, (8, 4), make_rng(seed))

    def test_forward_shapes(self):
        tower = self.make_tower()
        x = make_rng(4).normal(size=(7, 6))
        logits, cache = tower.forward(x)
        assert logits.shape == (7,)
        assert len(cache) == 3  # input + two hidden activations

    def test_param_list_order_and_liveness(self):
        tower = self.make_tower()
        params = tower.param_list()
        assert len(params) == 5  # W1, b1, W2, b2, h
        params[0][0, 0] += 1.0
        assert tower.layers[0].weight[0, 0] == params[0][0, 0]  # live view

    def test_set_params_roundtrip(self):
        tower = self.make_tower()
        snapshot = [p.copy() for p in tower.param_list()]
        for p in tower.param_list():
            p += 1.0
        tower.set_params(snapshot)
        for current, saved in zip(tower.param_list(), snapshot):
            np.testing.assert_array_equal(current, saved)

    def test_set_params_shape_mismatch(self):
        tower = self.make_tower()
        bad = [np.zeros((1, 1))] * 5
        with pytest.raises(ValueError, match="shape mismatch"):
            tower.set_params(bad)

    def test_set_params_count_mismatch(self):
        tower = self.make_tower()
        with pytest.raises(ValueError, match="parameter arrays"):
            tower.set_params([np.zeros(2)])

    def test_input_gradient_numeric(self):
        tower = self.make_tower(seed=5)
        x = make_rng(6).normal(size=(3, 6))
        dlogits = make_rng(7).normal(size=3)

        def loss_of_input(xin):
            logits, _ = tower.forward(xin)
            return float(logits @ dlogits)

        _, cache = tower.forward(x)
        dx, _ = tower.backward(cache, dlogits)
        numeric = numeric_gradient(loss_of_input, x.copy())
        np.testing.assert_allclose(dx, numeric, atol=1e-5)

    def test_param_gradients_numeric(self):
        tower = self.make_tower(seed=8)
        x = make_rng(9).normal(size=(4, 6))
        dlogits = make_rng(10).normal(size=4)
        logits, cache = tower.forward(x)
        _, param_grads = tower.backward(cache, dlogits)

        params = tower.param_list()
        for index in range(len(params)):
            def loss_of_param(p, idx=index):
                original = params[idx].copy()
                params[idx][...] = p
                out, _ = tower.forward(x)
                value = float(out @ dlogits)
                params[idx][...] = original
                return value

            numeric = numeric_gradient(loss_of_param, params[index].copy())
            np.testing.assert_allclose(
                param_grads[index], numeric, atol=1e-5,
                err_msg=f"parameter {index} gradient mismatch",
            )

    def test_zero_like_params(self):
        tower = self.make_tower()
        zeros = tower.zero_like_params()
        assert all((z == 0).all() for z in zeros)
        assert [z.shape for z in zeros] == [p.shape for p in tower.param_list()]

    def test_relu_kills_negative_paths(self):
        tower = MLPTower(2, (2,), make_rng(11))
        tower.layers[0].weight[...] = np.eye(2)
        tower.layers[0].bias[...] = np.array([-100.0, 0.0])
        tower.projection[...] = np.ones(2)
        logits, _ = tower.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(logits, [2.0])  # first unit dead
