import numpy as np
import pytest

from andkit.encoder import (
    EncoderConfig,
    EncoderParams,
    backward,
    forward,
    init_params,
    lr_at,
    sgd_nesterov_step,
)
from andkit.errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)
from andkit.numerics import SeededRng

from conftest import finite_difference, max_rel_error


def identity_params(d):
    return EncoderParams(weights=[np.eye(d)], biases=[np.zeros(d)])


class TestInitParams:
    def test_deterministic(self):
        cfg = EncoderConfig(layer_sizes=(6, 8, 4), seed=13)
        a, b = init_params(cfg), init_params(cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero_and_weights_bounded(self):
        params = init_params(EncoderConfig(layer_sizes=(9, 5, 3), seed=2))
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)
        for w in params.weights:
            assert np.abs(w).max() <= 1.0 / np.sqrt(w.shape[1])

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(layer_sizes=(4,))
        with pytest.raises(ConfigurationError):
            EncoderConfig(layer_sizes=(4, 1))  # output dim below 2
        # refused, not truncated to (4, 8, 3) or (1, 8, 3)
        for sizes in ((4.9, 8, 3), (True, 8, 3), ("4", 8, 3)):
            with pytest.raises(ConfigurationError):
                EncoderConfig(layer_sizes=sizes)
        for seed in (1.5, True, "1"):
            with pytest.raises(ConfigurationError):
                EncoderConfig(layer_sizes=(4, 8, 3), seed=seed)


class TestForward:
    def test_identity_layer_normalizes(self):
        feats, _ = forward(identity_params(2), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(feats[0], [0.6, 0.8], atol=1e-15)

    def test_relu_zeroes_negatives(self):
        # hidden layer is -identity, so positive inputs die at the ReLU;
        # a bias on the last layer keeps the feature row normalizable
        params = EncoderParams(
            weights=[-np.eye(3), np.eye(3)],
            biases=[np.zeros(3), np.array([1.0, 0.0, 0.0])],
        )
        feats, cache = forward(params, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(cache.layer_inputs[1], [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(feats[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_random_params_give_unit_rows(self):
        params = init_params(EncoderConfig(layer_sizes=(5, 7, 4), seed=8))
        feats, _ = forward(params, SeededRng(3).normals((11, 5)))
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)

    def test_degenerate_row_aborts(self):
        params = EncoderParams(weights=[np.zeros((3, 3))], biases=[np.zeros(3)])
        with pytest.raises(DegenerateInputError) as err:
            forward(params, np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]]))
        assert err.value.row == 0

    def test_input_width_checked(self):
        with pytest.raises(DimensionError):
            forward(identity_params(3), np.ones((2, 4)))

    def test_final_layer_scale_invariance(self):
        params = init_params(EncoderConfig(layer_sizes=(4, 6, 3), seed=4))
        x = SeededRng(5).normals((7, 4))
        base, _ = forward(params, x)
        scaled = EncoderParams(
            weights=[params.weights[0], params.weights[1] * 3.0],
            biases=[params.biases[0], params.biases[1] * 3.0],
        )
        feats, _ = forward(scaled, x)
        np.testing.assert_allclose(feats, base, atol=1e-9)


class TestBackward:
    def test_radial_component_vanishes(self):
        # upstream gradient parallel to the feature has no effect through
        # the normalization: y is a fixed point of scaling
        params = init_params(EncoderConfig(layer_sizes=(4, 3), seed=6))
        x = SeededRng(7).normals((5, 4))
        feats, cache = forward(params, x)
        radial = feats.copy()
        y = feats
        dots = np.einsum("ij,ij->i", radial, y)
        gz = (radial - dots[:, None] * y) / cache.norms[:, None]
        np.testing.assert_allclose(gz, 0.0, atol=1e-14)

    def test_zero_upstream_zero_grads(self):
        params = init_params(EncoderConfig(layer_sizes=(4, 5, 3), seed=9))
        x = SeededRng(10).normals((6, 4))
        feats, cache = forward(params, x)
        grads = backward(params, cache, np.zeros_like(feats))
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_cache_mismatch_rejected(self):
        params = init_params(EncoderConfig(layer_sizes=(4, 3), seed=11))
        other = init_params(EncoderConfig(layer_sizes=(4, 3), seed=12))
        x = SeededRng(13).normals((2, 4))
        feats, cache = forward(params, x)
        with pytest.raises(ContractError):
            backward(other, cache, np.zeros_like(feats))

    def test_param_gradients_match_finite_differences(self):
        cfg = EncoderConfig(layer_sizes=(8, 8, 4), seed=14)
        params = init_params(cfg)
        x = SeededRng(15).normals((6, 8))
        probe = SeededRng(16).normals((6, 4))  # fixed linear functional of the features

        feats, cache = forward(params, x)
        grads = backward(params, cache, probe)

        def loss_with(layer, kind, arr):
            trial = params.copy()
            getattr(trial, kind)[layer][:] = arr
            out, _ = forward(trial, x)
            return float((out * probe).sum())

        for layer in range(2):
            for kind, got in (("weights", grads.weights), ("biases", grads.biases)):
                base = getattr(params, kind)[layer]
                fd = finite_difference(lambda a: loss_with(layer, kind, a), base)
                assert max_rel_error(got[layer], fd) < 1e-5


class TestSgdNesterov:
    def test_velocity_and_grads_are_params_shaped(self):
        params = init_params(EncoderConfig(layer_sizes=(3, 5, 2), seed=4))
        feats, cache = forward(params, np.ones((4, 3)))
        grads = backward(params, cache, np.ones_like(feats))
        velocity = params.zeros_like()
        for state in (grads, velocity):
            assert isinstance(state, EncoderParams) and state.layer_sizes == (3, 5, 2)
        assert all(not v.any() for v in (*velocity.weights, *velocity.biases))
        assert not any(np.shares_memory(v, p) for v, p in zip(velocity.weights, params.weights))

    def test_mu_zero_is_plain_sgd(self):
        params = EncoderParams(weights=[np.array([[1.0, 2.0]])], biases=[np.array([0.5])])
        grads = EncoderParams(weights=[np.array([[0.2, -0.4]])], biases=[np.array([0.1])])
        sgd_nesterov_step(params, grads, params.zeros_like(), lr=0.5, momentum=0.0)
        np.testing.assert_allclose(params.weights[0], [[0.9, 2.2]], atol=1e-15)
        np.testing.assert_allclose(params.biases[0], [0.45], atol=1e-15)

    def test_lr_zero_keeps_params(self):
        params = EncoderParams(weights=[np.array([[1.0]])], biases=[np.array([2.0])])
        grads = EncoderParams(weights=[np.array([[5.0]])], biases=[np.array([5.0])])
        sgd_nesterov_step(params, grads, params.zeros_like(), lr=0.0, momentum=0.9)
        assert params.weights[0][0, 0] == 1.0 and params.biases[0][0] == 2.0

    def test_momentum_drift_recurrence(self):
        # hand iteration: v1=-lr g, th1=th0-(1+mu) lr g; with g=0 afterwards
        # v_{t+1}=mu v_t and th gains mu v_{t+1} each step
        mu, lr, g = 0.9, 0.1, 2.0
        params = EncoderParams(weights=[np.array([[0.0]])], biases=[np.zeros(1)])
        grads = EncoderParams(weights=[np.array([[g]])], biases=[np.zeros(1)])
        zero = grads.zeros_like()
        velocity = params.zeros_like()
        sgd_nesterov_step(params, grads, velocity, lr, mu)
        v1 = -lr * g
        th1 = mu * v1 - lr * g
        assert params.weights[0][0, 0] == pytest.approx(th1, abs=1e-15)
        sgd_nesterov_step(params, zero, velocity, lr, mu)
        th2 = th1 + mu * (mu * v1)
        assert params.weights[0][0, 0] == pytest.approx(th2, abs=1e-15)
        sgd_nesterov_step(params, zero, velocity, lr, mu)
        th3 = th2 + mu * (mu * mu * v1)
        assert params.weights[0][0, 0] == pytest.approx(th3, abs=1e-15)

    def test_three_step_trajectory_bit_exact(self):
        params = EncoderParams(weights=[np.array([[1.0, -2.0]])], biases=[np.zeros(1)])
        velocity = params.zeros_like()
        expected = np.array([[1.0, -2.0]])
        for step in range(3):
            g = np.array([[0.5 * (step + 1), -1.0]])
            grads = EncoderParams(weights=[g], biases=[np.zeros(1)])
            sgd_nesterov_step(params, grads, velocity, lr=0.25, momentum=0.0)
            expected = expected - 0.25 * g
            np.testing.assert_array_equal(params.weights[0], expected)

    def test_non_finite_grads_abort_untouched(self):
        params = EncoderParams(weights=[np.array([[1.0]])], biases=[np.array([2.0])])
        grads = EncoderParams(weights=[np.array([[np.nan]])], biases=[np.array([0.0])])
        with pytest.raises(NumericError):
            sgd_nesterov_step(params, grads, params.zeros_like(), lr=0.1, momentum=0.9)
        assert params.weights[0][0, 0] == 1.0 and params.biases[0][0] == 2.0


class TestLrSchedule:
    def test_reference_values(self):
        assert lr_at(0, 0.03) == pytest.approx(0.03)
        assert lr_at(79, 0.03) == pytest.approx(0.03)
        assert lr_at(80, 0.03) == pytest.approx(0.003)
        assert lr_at(119, 0.03) == pytest.approx(0.003)
        assert lr_at(120, 0.03) == pytest.approx(0.0003)

    def test_boundaries_scale_with_round_length(self):
        # 20-epoch rounds compress the 80/40 boundaries to 8/4
        assert lr_at(7, 0.03, epochs_per_round=20) == pytest.approx(0.03)
        assert lr_at(8, 0.03, epochs_per_round=20) == pytest.approx(0.003)
        assert lr_at(12, 0.03, epochs_per_round=20) == pytest.approx(0.0003)

    def test_zero_round_length_disables_decay(self):
        assert lr_at(500, 0.03, epochs_per_round=0) == 0.03

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            lr_at(-1, 0.03)
