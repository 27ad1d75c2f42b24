"""Dense scorer, clamp behaviour, parameter transform and SGD-momentum."""

import numpy as np
import pytest

from idgp.errors import NumericError
from idgp.network import (
    DenseNet,
    SGDState,
    TransformConfig,
    lambda_range,
    lambda_transform,
    lambda_transform_grad,
    lambda_transform_pair,
    loss_sup,
    sgd_step,
    theta_floor,
    validate_transform_clamp,
    z_hat_bounds,
)


class TestForward:
    def test_zero_weights_give_zero_scores(self):
        net = DenseNet([3, 8, 2], rng=np.random.default_rng(0))
        for W in net.weights:
            W[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        scores, _ = net.forward(np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(scores, np.zeros(2))

    def test_single_linear_layer_is_affine(self):
        net = DenseNet([2, 3], activation="identity", clamp=100.0,
                       rng=np.random.default_rng(1))
        x = np.array([0.5, -1.5])
        scores, _ = net.forward(x)
        assert np.allclose(scores, x @ net.weights[0] + net.biases[0], rtol=1e-15)

    def test_clamp_is_exact(self):
        net = DenseNet([1, 1], activation="identity", clamp=4.0,
                       rng=np.random.default_rng(2))
        net.weights[0][:] = 8.0
        net.biases[0][:] = 0.0
        scores, _ = net.forward(np.array([1.0]))  # pre-clamp 8 = 2A
        assert scores[0] == 4.0

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(3)
        net = DenseNet([4, 6, 3], rng=rng)
        X = rng.normal(size=(5, 4))
        batch, _ = net.forward(X)
        singles = np.stack([net.forward(x)[0] for x in X])
        # matrix-matrix and vector-matrix BLAS paths may round differently
        assert np.allclose(batch, singles, rtol=1e-13, atol=1e-15)

    def test_stacked_forward_matches_each_member_bitwise(self):
        rng = np.random.default_rng(7)
        nets = [DenseNet([4, 6, 3], rng=rng) for _ in range(5)]
        stack = nets[0].stacked(np.stack([net.get_flat() for net in nets]))
        X = rng.normal(size=(7, 4))
        scores, _ = stack.forward(X)
        assert scores.shape == (5, 7, 3)
        for k, net in enumerate(nets):
            assert np.array_equal(scores[k], net.forward(X)[0])

    def test_stacked_inverts_get_flat(self):
        net = DenseNet([3, 5, 2], rng=np.random.default_rng(8))
        one = net.stacked(net.get_flat()[None])
        for W, b, W1, b1 in zip(net.weights, net.biases, one.weights, one.biases):
            assert np.array_equal(W1[0], W) and np.array_equal(b1[0, 0], b)
        with pytest.raises(ValueError, match="expected 32"):
            net.stacked(np.zeros((2, 31)))

    def test_unallocatable_layer_is_memory_error(self):
        # refused by the spec check, before any weight is drawn
        with pytest.raises(MemoryError, match="weight matrix cannot be allocated"):
            DenseNet([2 ** 31, 2 ** 31])

    def test_nonfinite_input_rejected(self):
        net = DenseNet([2, 2], rng=np.random.default_rng(4))
        with pytest.raises(NumericError):
            net.forward(np.array([np.inf, 0.0]))

    def test_init_deterministic_given_seed(self):
        a = DenseNet([3, 5, 2], rng=np.random.default_rng(42))
        b = DenseNet([3, 5, 2], rng=np.random.default_rng(42))
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)

    def test_init_within_fan_in_bound(self):
        net = DenseNet([16, 8, 4], rng=np.random.default_rng(5))
        assert np.max(np.abs(net.weights[0])) <= 1.0 / 4.0
        assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(8.0)


class TestTransform:
    def test_identity_point(self):
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        assert lambda_transform(np.zeros(3), cfg).tolist() == [1.0, 1.0, 1.0]

    def test_hand_value(self):
        cfg = TransformConfig(a=2.0, b=1.0, gamma=0.5)
        lam = lambda_transform(np.array([1.0]), cfg)
        assert lam[0] == pytest.approx(2 * np.e ** 2 + 1, rel=1e-12)
        assert lam[0] == pytest.approx(15.778, abs=5e-4)

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(6)
        cfg = TransformConfig(a=0.7, b=0.3, gamma=1.3)
        s = rng.uniform(-3, 3, size=10)
        h = 1e-6
        numeric = (lambda_transform(s + h, cfg) - lambda_transform(s - h, cfg)) / (2 * h)
        analytic = lambda_transform_grad(s, cfg)
        assert np.max(np.abs(analytic - numeric) / np.abs(numeric)) < 1e-8

    def test_pair_splits_and_stays_positive(self):
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        s = np.array([0.0, 1.0, -1.0, 2.0])
        alpha, beta = lambda_transform_pair(s, cfg)
        assert np.allclose(alpha, lambda_transform(s[:2], cfg))
        assert np.allclose(beta, lambda_transform(s[2:], cfg))
        assert np.all(alpha > 0) and np.all(beta > 0)

    def test_pair_rejects_odd_width(self):
        with pytest.raises(ValueError):
            lambda_transform_pair(np.zeros(3), TransformConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformConfig(a=0.0)
        with pytest.raises(ValueError):
            TransformConfig(b=-0.1)
        with pytest.raises(ValueError):
            TransformConfig(gamma=0.0)
        with pytest.raises(ValueError):
            validate_transform_clamp(TransformConfig(gamma=0.01), clamp=20.0)


class TestBackward:
    def test_linear_gradient_is_outer_product(self):
        net = DenseNet([3, 2], activation="identity", clamp=50.0,
                       rng=np.random.default_rng(7))
        x = np.array([1.0, 2.0, -1.0])
        g = np.array([0.5, -0.25])
        _, cache = net.forward(x)
        grads = net.backward(cache, g)
        assert np.allclose(grads[0][0], np.outer(x, g), rtol=1e-15)
        assert np.allclose(grads[0][1], g, rtol=1e-15)

    def test_clamped_coordinate_gets_zero_gradient(self):
        net = DenseNet([1, 2], activation="identity", clamp=1.0,
                       rng=np.random.default_rng(8))
        net.weights[0][:] = np.array([[5.0, 0.1]])
        net.biases[0][:] = 0.0
        _, cache = net.forward(np.array([1.0]))
        grads = net.backward(cache, np.array([1.0, 1.0]))
        assert grads[0][0][0, 0] == 0.0  # saturated output
        assert grads[0][0][0, 1] != 0.0  # interior output

    def test_batch_gradient_is_sum_of_per_example(self):
        rng = np.random.default_rng(9)
        net = DenseNet([4, 5, 3], rng=rng)
        X = rng.normal(size=(6, 4))
        G = rng.normal(size=(6, 3))
        _, cache = net.forward(X)
        batch = net.flatten_grads(net.backward(cache, G))
        total = np.zeros_like(batch)
        for x, g in zip(X, G):
            _, c1 = net.forward(x)
            total += net.flatten_grads(net.backward(c1, g))
        assert np.allclose(batch, total, rtol=1e-12, atol=1e-12)


class TestSGD:
    def _net(self):
        net = DenseNet([1, 1], activation="identity", clamp=10.0,
                       rng=np.random.default_rng(10))
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        return net

    def test_zero_momentum_is_plain_sgd(self):
        net = self._net()
        state = SGDState(lr=0.1, momentum=0.0)
        sgd_step(state, net, [(np.array([[2.0]]), np.array([0.0]))])
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 2.0, rel=1e-15)

    def test_two_steps_constant_gradient(self):
        mu, lr, g = 0.9, 0.1, 2.0
        net = self._net()
        state = SGDState(lr=lr, momentum=mu)
        for _ in range(2):
            sgd_step(state, net, [(np.array([[g]]), np.array([0.0]))])
        assert net.weights[0][0, 0] == pytest.approx(1.0 - lr * (2 + mu) * g, rel=1e-12)

    def test_zero_learning_rate_keeps_parameters(self):
        net = self._net()
        state = SGDState(lr=0.0, momentum=0.5)
        sgd_step(state, net, [(np.array([[3.0]]), np.array([1.0]))])
        assert net.weights[0][0, 0] == 1.0 and net.biases[0][0] == 0.0

    def test_nonfinite_gradient_aborts(self):
        net = self._net()
        state = SGDState(lr=0.1)
        with pytest.raises(NumericError):
            sgd_step(state, net, [(np.array([[np.nan]]), np.array([0.0]))])

    def test_weight_decay_adds_l2_pull(self):
        net = self._net()
        state = SGDState(lr=0.1, momentum=0.0)
        sgd_step(state, net, [(np.array([[0.0]]), np.array([0.0]))], weight_decay=0.5)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-15)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            SGDState(lr=-1.0)
        with pytest.raises(ValueError):
            SGDState(lr=0.1, momentum=1.0)


class TestInducedBounds:
    """Clamped scores push the posterior means into known intervals."""

    def test_lambda_range_contains_all_forwards(self):
        rng = np.random.default_rng(11)
        cfg = TransformConfig(a=1.3, b=0.2, gamma=0.8)
        clamp = 3.0
        lo, hi = lambda_range(cfg, clamp)
        net = DenseNet([3, 16, 4], clamp=clamp, rng=rng)
        lam = lambda_transform(net.forward(rng.normal(size=(500, 3)) * 5)[0], cfg)
        assert np.all(lam >= lo - 1e-12) and np.all(lam <= hi + 1e-12)

    def test_theta_floor_and_z_interval(self):
        from idgp.distributions import beta_posterior_mean, dirichlet_posterior_mean

        rng = np.random.default_rng(12)
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        clamp, c = 4.0, 5
        b_floor = theta_floor(cfg, clamp, c)
        e, f = z_hat_bounds(cfg, clamp)
        lo, hi = lambda_range(cfg, clamp)
        for _ in range(500):
            lam = rng.uniform(lo, hi, size=c)
            alpha = rng.uniform(lo, hi, size=c)
            beta = rng.uniform(lo, hi, size=c)
            o = (rng.random(c) < 0.5).astype(float)
            theta = dirichlet_posterior_mean(lam, o)
            z = beta_posterior_mean(alpha, beta, o)
            assert np.all(theta >= b_floor)
            assert np.all(z >= e) and np.all(z <= f)

    def test_loss_sup_is_finite_and_positive(self):
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        m = loss_sup(cfg, clamp=3.0, c=4)
        assert np.isfinite(m) and m > 0
