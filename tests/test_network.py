import math

import mpmath
import numpy as np
import pytest

from conftest import finite_diff_grads, grad_close, scalar_forward_oracle
from dropcompact.linalg import rng_stream
from dropcompact.network import (
    MlpParams,
    backward_batch,
    forward_batch,
    init_mlp,
    log_softmax_pick,
    softmax,
)


def ones_gates(params):
    return [np.ones(d) for d in params.layer_dims[:-1]]


def xent(logits, k):
    """-log p(k) for one row of logits."""
    return float(-log_softmax_pick(np.asarray(logits)[None], np.array([k]))[0])


class TestForward:
    def test_all_ones_masks_equal_expected_ones(self, fixture_net_232):
        x = rng_stream(0, "x").normal(size=2)
        a = forward_batch(fixture_net_232, x[None], ones_gates(fixture_net_232))
        b = forward_batch(fixture_net_232, x[None], [None] * fixture_net_232.n_layers)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.probs, b.probs)

    def test_hand_masked_relu(self):
        params = MlpParams(
            weights=[np.eye(2), np.eye(2)],
            biases=[np.zeros(2), np.zeros(2)],
            hidden_activations=("relu",),
        )
        trace = forward_batch(
            params, np.array([[2.0, -3.0]]), [np.ones(2), np.array([1.0, 0.0])]
        )
        assert np.array_equal(trace.activations[1][0], [2.0, 0.0])

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_matches_scalar_oracle_stochastic(self, activation):
        params = init_mlp((2, 3, 2), activation, seed=5)
        rng = rng_stream(1, "o")
        x = rng.normal(size=2)
        masks = [np.array([1.0, 1.0]), (rng.random(3) < 0.6).astype(float)]
        trace = forward_batch(params, x[None], masks)
        hs, logits, probs = scalar_forward_oracle(params, x, masks)
        assert np.abs(trace.logits[0] - logits).max() < 1e-12
        assert np.abs(trace.probs[0] - probs).max() < 1e-12
        for got, want in zip(trace.activations, hs):
            assert np.abs(got[0] - np.asarray(want)).max() < 1e-12

    def test_matches_scalar_oracle_expected(self, fixture_net_232):
        x = rng_stream(2, "o").normal(size=2)
        pi = [np.full(2, 0.5), np.full(3, 0.5)]
        trace = forward_batch(fixture_net_232, x[None], pi)
        _, logits, probs = scalar_forward_oracle(fixture_net_232, x, pi)
        assert np.abs(trace.logits[0] - logits).max() < 1e-12
        assert np.abs(trace.probs[0] - probs).max() < 1e-12

    def test_zero_input_retention_leaves_bias(self):
        params = init_mlp((3, 4, 2), "linear", seed=9)
        params.biases[0][:] = [0.5, -0.2, 0.1, 0.3]
        x = rng_stream(3, "o").normal(size=3)
        trace = forward_batch(params, x[None], [np.zeros(3), np.ones(4)])
        assert np.array_equal(trace.activations[1][0], params.biases[0])

    def test_probs_sum_to_one(self):
        rng = rng_stream(4, "p")
        for _ in range(50):
            logits = rng.uniform(-1e3, 1e3, size=10)
            assert abs(softmax(logits).sum() - 1.0) < 1e-12

    def test_shape_mismatch_rejected(self, fixture_net_232):
        with pytest.raises(ValueError):
            forward_batch(fixture_net_232, np.ones((1, 3)), ones_gates(fixture_net_232))
        with pytest.raises(ValueError):
            forward_batch(fixture_net_232, np.ones((1, 2)), [np.ones(2), np.ones(4)])


class TestXentLoss:
    def test_uniform_logits(self):
        assert xent(np.zeros(10), 3) == pytest.approx(math.log(10), abs=1e-12)

    def test_huge_logit_stable(self):
        logits = np.zeros(5)
        logits[2] = 1000.0
        loss = xent(logits, 2)
        assert 0.0 <= loss < 1e-12
        assert np.isfinite(loss)

    def test_matches_high_precision_oracle(self):
        rng = rng_stream(5, "x")
        with mpmath.workdps(60):
            for _ in range(20):
                logits = rng.uniform(-30, 30, size=7)
                k = int(rng.integers(7))
                exact = -mpmath.log(
                    mpmath.exp(logits[k]) / mpmath.fsum(mpmath.exp(v) for v in logits)
                )
                assert abs(xent(logits, k) - float(exact)) < 1e-12

    def test_class_out_of_range(self):
        params = init_mlp((2, 3, 4), "relu", seed=1)
        with pytest.raises(ValueError, match="out of range"):
            backward_batch(params, np.ones((1, 2)), np.array([4]), ones_gates(params))


class TestBackward:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_finite_difference_small_net(self, activation):
        params = init_mlp((4, 5, 3), activation, seed=13)
        rng = rng_stream(6, "fd")
        x = rng.normal(size=4)
        masks = [np.ones(4), (rng.random(5) < 0.7).astype(float)]
        k = 1
        losses, grads = backward_batch(params, x[None], np.array([k]), masks)

        def loss_fn():
            return xent(forward_batch(params, x[None], masks).logits[0], k)

        assert losses[0] == pytest.approx(loss_fn(), abs=1e-12)
        num_w, num_b = finite_diff_grads(loss_fn, params)
        for a, n in zip(grads.weights + grads.biases, num_w + num_b):
            assert grad_close(a, n)

    def test_masked_unit_gets_zero_incoming_grads(self):
        params = init_mlp((3, 4, 2), "relu", seed=17)
        masks = [np.ones(3), np.array([1.0, 0.0, 1.0, 1.0])]
        x = rng_stream(7, "m").normal(size=3)
        _, grads = backward_batch(params, x[None], np.array([0]), masks)
        assert np.array_equal(grads.weights[0][1], np.zeros(3))
        assert grads.biases[0][1] == 0.0

    def test_output_bias_gradient_closed_form(self, fixture_net_232):
        x = rng_stream(8, "b").normal(size=2)
        masks = ones_gates(fixture_net_232)
        trace = forward_batch(fixture_net_232, x[None], masks)
        _, grads = backward_batch(fixture_net_232, x[None], np.array([1]), masks)
        onehot = np.zeros(2)
        onehot[1] = 1.0
        assert np.abs(grads.biases[-1] - (trace.probs[0] - onehot)).max() < 1e-12

    def test_linear_hidden_layer_gradient(self):
        params = MlpParams(
            weights=[w.copy() for w in init_mlp((3, 4, 4, 2), "relu", seed=19).weights],
            biases=[b.copy() for b in init_mlp((3, 4, 4, 2), "relu", seed=19).biases],
            hidden_activations=("relu", "linear"),
        )
        rng = rng_stream(9, "l")
        x = rng.normal(size=3)
        masks = [np.ones(3), np.ones(4), (rng.random(4) < 0.8).astype(float)]
        _, grads = backward_batch(params, x[None], np.array([0]), masks)

        def loss_fn():
            return xent(forward_batch(params, x[None], masks).logits[0], 0)

        num_w, num_b = finite_diff_grads(loss_fn, params)
        for a, n in zip(grads.weights + grads.biases, num_w + num_b):
            assert grad_close(a, n)
