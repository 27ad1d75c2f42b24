"""Dense scorer, clamp behaviour, parameter transform and SGD-momentum."""

import tracemalloc

import numpy as np
import pytest

from idgp.data import load_model, save_model
from idgp.errors import NumericError
from idgp.network import (
    DenseNet,
    SGDState,
    TransformConfig,
    _unflatten,
    lambda_range,
    lambda_transform,
    lambda_transform_grad,
    lambda_transform_pair,
    layer_sizes,
    loss_sup,
    param_count,
    sgd_step,
    theta_floor,
    validate_transform_clamp,
    z_hat_bounds,
)


class TestForward:
    def test_zero_weights_give_zero_scores(self):
        net = DenseNet([3, 8, 2], clamp=20.0, rng=np.random.default_rng(0))
        for W in net.weights:
            W[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        scores, _ = net.forward(np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(scores, np.zeros(2))

    def test_single_linear_layer_is_affine(self):
        net = DenseNet([2, 3], clamp=100.0, rng=np.random.default_rng(1))
        x = np.array([0.5, -1.5])
        scores, _ = net.forward(x)
        assert np.allclose(scores, x @ net.weights[0] + net.biases[0], rtol=1e-15)

    def test_clamp_is_exact(self):
        net = DenseNet([1, 1], clamp=4.0, rng=np.random.default_rng(2))
        net.weights[0][:] = 8.0
        net.biases[0][:] = 0.0
        scores, _ = net.forward(np.array([1.0]))  # pre-clamp 8 = 2A
        assert scores[0] == 4.0

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(3)
        net = DenseNet([4, 6, 3], clamp=20.0, rng=rng)
        X = rng.normal(size=(5, 4))
        batch, _ = net.forward(X)
        singles = np.stack([net.forward(x)[0] for x in X])
        # matrix-matrix and vector-matrix BLAS paths may round differently
        assert np.allclose(batch, singles, rtol=1e-13, atol=1e-15)

    def test_stacked_forward_matches_each_member_bitwise(self):
        rng = np.random.default_rng(7)
        nets = [DenseNet([4, 6, 3], clamp=20.0, rng=rng) for _ in range(5)]
        stack = nets[0].stacked(np.stack([net.get_flat() for net in nets]))
        X = rng.normal(size=(7, 4))
        scores, _ = stack.forward(X)
        assert scores.shape == (5, 7, 3)
        for k, net in enumerate(nets):
            assert np.array_equal(scores[k], net.forward(X)[0])

    def test_stacked_inverts_get_flat(self):
        net = DenseNet([3, 5, 2], clamp=20.0, rng=np.random.default_rng(8))
        one = net.stacked(net.get_flat()[None])
        for W, b, W1, b1 in zip(net.weights, net.biases, one.weights, one.biases):
            assert np.array_equal(W1[0], W) and np.array_equal(b1[0, 0], b)
        with pytest.raises(ValueError, match="expected 32"):
            net.stacked(np.zeros((2, 31)))

    def test_unallocatable_layer_is_memory_error(self):
        # refused by the spec check, before any weight is drawn
        with pytest.raises(MemoryError, match="weight matrix cannot be allocated"):
            DenseNet([2 ** 31, 2 ** 31], clamp=20.0, rng=np.random.default_rng(0))

    def test_zero_layer_size_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            DenseNet([2, 0, 3], clamp=20.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 1"):
            DenseNet.from_flat([2, 0, 3], 1.0, np.zeros(3))

    def test_nonfinite_input_rejected(self):
        net = DenseNet([2, 2], clamp=20.0, rng=np.random.default_rng(4))
        with pytest.raises(NumericError):
            net.forward(np.array([np.inf, 0.0]))

    def test_from_flat_rebuilds_net_bitwise(self):
        net = DenseNet([3, 5, 2], clamp=4.0, rng=np.random.default_rng(9))
        again = DenseNet.from_flat(net.layer_sizes, 4.0, net.get_flat())
        assert again.layer_sizes == net.layer_sizes and again.clamp == 4.0
        for a, b in zip(net.weights + net.biases, again.weights + again.biases):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_loaded_net_weights_are_writable(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, DenseNet([2, 4, 3], clamp=20.0, rng=np.random.default_rng(0)), TransformConfig())
        net, _ = load_model(path)
        for p in net.weights + net.biases:
            p += 1.0  # an SGD step updates the loaded arrays in place

    def test_init_draws_weights_then_biases_per_layer(self):
        sizes = [3, 5, 2]
        net = DenseNet(sizes, clamp=20.0, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
            assert np.array_equal(net.weights[i], W) and np.array_equal(net.biases[i], b)

    def test_init_deterministic_given_seed(self):
        a = DenseNet([3, 5, 2], clamp=20.0, rng=np.random.default_rng(42))
        b = DenseNet([3, 5, 2], clamp=20.0, rng=np.random.default_rng(42))
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)

    def test_init_within_fan_in_bound(self):
        net = DenseNet([16, 8, 4], clamp=20.0, rng=np.random.default_rng(5))
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
        net = DenseNet([3, 2], clamp=50.0, rng=np.random.default_rng(7))
        x = np.array([1.0, 2.0, -1.0])
        g = np.array([0.5, -0.25])
        _, cache = net.forward(x)
        grad_w, grad_b = _unflatten(net.layer_sizes, net.backward(cache, g))
        assert np.allclose(grad_w[0], np.outer(x, g), rtol=1e-15)
        assert np.allclose(grad_b[0], g, rtol=1e-15)

    def test_clamped_coordinate_gets_zero_gradient(self):
        net = DenseNet([1, 2], clamp=1.0, rng=np.random.default_rng(8))
        net.weights[0][:] = np.array([[5.0, 0.1]])
        net.biases[0][:] = 0.0
        _, cache = net.forward(np.array([1.0]))
        grad_w, _ = _unflatten(net.layer_sizes, net.backward(cache, np.array([1.0, 1.0])))
        assert grad_w[0][0, 0] == 0.0  # saturated output
        assert grad_w[0][0, 1] != 0.0  # interior output

    def test_batch_gradient_is_sum_of_per_example(self):
        rng = np.random.default_rng(9)
        net = DenseNet([4, 5, 3], clamp=20.0, rng=rng)
        X = rng.normal(size=(6, 4))
        G = rng.normal(size=(6, 3))
        _, cache = net.forward(X)
        batch = net.backward(cache, G)
        total = np.zeros_like(batch)
        for x, g in zip(X, G):
            _, c1 = net.forward(x)
            total += net.backward(c1, g)
        assert np.allclose(batch, total, rtol=1e-12, atol=1e-12)

    def test_gradient_is_flat_in_get_flat_layout(self):
        rng = np.random.default_rng(12)
        sizes = (4, 5, 3)
        net = DenseNet(sizes, clamp=50.0, rng=rng)
        X = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 3))
        _, cache = net.forward(X)
        grad = net.backward(cache, g)
        assert grad.shape == (param_count(sizes),)
        grad_w, grad_b = _unflatten(sizes, grad)
        inputs = cache["inputs"]
        assert np.array_equal(grad_w[1], inputs[1].T @ g)
        assert np.array_equal(grad_b[1], g.sum(axis=0))
        g0 = (g @ net.weights[1].T) * (cache["inputs"][1] > 0.0)
        assert np.array_equal(grad_w[0], inputs[0].T @ g0)
        assert np.array_equal(grad_b[0], g0.sum(axis=0))


def _bits(a):
    """The IEEE bit patterns of a float64 array (or scalar), for bitwise comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _textbook_forward(net, x):
    """The forward written as its formulas: scores, layer inputs, pre-activations."""
    x = np.asarray(x, dtype=np.float64)
    h = np.atleast_2d(x)
    inputs, preacts = [], []
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(h)
        pre = h @ W + b
        preacts.append(pre)
        h = np.maximum(pre, 0.0)
    inputs.append(h)
    pre_out = h @ net.weights[-1] + net.biases[-1]
    scores = np.clip(pre_out, -net.clamp, net.clamp)
    return (scores[0] if x.ndim == 1 else scores), inputs, preacts, pre_out


def _textbook_backward(net, x, grad_scores):
    """Reverse mode written with explicit clamp and relu-derivative masks."""
    _, inputs, preacts, pre_out = _textbook_forward(net, x)
    g = np.atleast_2d(np.asarray(grad_scores, dtype=np.float64)).copy()
    g *= np.abs(pre_out) < net.clamp
    parts = []
    for i in range(len(net.weights) - 1, -1, -1):
        parts[:0] = [(inputs[i].T @ g).ravel(), g.sum(axis=0)]
        if i > 0:
            pre = preacts[i - 1]
            g = (g @ net.weights[i].T) * (pre > 0.0).astype(np.float64)
    return np.concatenate(parts)


PARITY_SIZES = [(5, 7, 3), (5, 3), (5, 6, 4, 3)]


class TestTextbookParity:
    """The in-place forward, backward and transform are bitwise the formulas they implement."""

    @pytest.mark.parametrize("sizes", PARITY_SIZES)
    @pytest.mark.parametrize("shape", [(5,), (6, 5)])
    def test_forward_and_backward(self, sizes, shape):
        rng = np.random.default_rng(21)
        net = DenseNet(sizes, clamp=0.6, rng=rng)
        x = rng.normal(size=shape) * 2.0
        x_before = x.copy()
        scores, cache = net.forward(x)
        expected, inputs, _, pre_out = _textbook_forward(net, x)
        assert scores.shape == expected.shape
        assert np.array_equal(_bits(scores), _bits(expected))
        assert set(cache) == {"inputs", "scores"}
        for got, want in zip(cache["inputs"], inputs, strict=True):
            assert np.array_equal(_bits(got), _bits(want))
        if len(shape) == 2:  # the batch has clamped and interior coordinates
            assert np.any(np.abs(pre_out) >= net.clamp) and np.any(np.abs(pre_out) < net.clamp)
        grad = rng.normal(size=scores.shape)
        assert np.array_equal(_bits(net.backward(cache, grad)),
                              _bits(_textbook_backward(net, x, grad)))
        assert np.array_equal(_bits(x), _bits(x_before))

    @pytest.mark.parametrize("sizes", PARITY_SIZES)
    def test_stacked_forward(self, sizes):
        rng = np.random.default_rng(22)
        net = DenseNet(sizes, clamp=0.6, rng=rng)
        stack = net.stacked(net.get_flat() + rng.normal(scale=0.3, size=(4, net.flat.size)))
        X = rng.normal(size=(6, sizes[0])) * 2.0
        scores, cache = stack.forward(X)
        expected, inputs, _, _ = _textbook_forward(stack, X)
        assert scores.shape == (4, 6, sizes[-1])
        assert np.array_equal(_bits(scores), _bits(expected))
        for got, want in zip(cache["inputs"], inputs, strict=True):
            assert np.array_equal(_bits(got), _bits(want))

    def test_score_exactly_at_clamp_gets_zero_gradient(self):
        net = DenseNet([1, 3], clamp=2.0, rng=np.random.default_rng(23))
        net.weights[0][:] = [[1.0, -1.0, 0.5]]
        net.biases[0][:] = 0.0
        x = np.array([2.0])
        scores, cache = net.forward(x)
        assert scores.tolist() == [2.0, -2.0, 1.0]  # +A and -A exactly
        grad = net.backward(cache, np.ones(3))
        assert grad.tolist() == [0.0, 0.0, 2.0, 0.0, 0.0, 1.0]
        assert np.array_equal(_bits(grad), _bits(_textbook_backward(net, x, np.ones(3))))

    def test_relu_kink_gets_zero_gradient(self):
        net = DenseNet([1, 2, 1], clamp=50.0, rng=np.random.default_rng(24))
        net.weights[0][:] = [[1.0, 1.0]]
        net.biases[0][:] = [-1.0, 0.0]  # first hidden unit exactly at its kink
        x = np.array([1.0])
        _, cache = net.forward(x)
        assert cache["inputs"][1].tolist() == [[0.0, 1.0]]
        grad = net.backward(cache, np.array([1.0]))
        assert np.array_equal(_bits(grad), _bits(_textbook_backward(net, x, np.array([1.0]))))
        grad_w, grad_b = _unflatten(net.layer_sizes, grad)
        assert grad_w[0][0, 0] == 0.0 and grad_b[0][0] == 0.0

    def test_nonfinite_gradient_propagates_as_in_textbook(self):
        rng = np.random.default_rng(25)
        net = DenseNet([4, 5, 3], clamp=0.6, rng=rng)
        X = rng.normal(size=(3, 4)) * 2.0
        grad = rng.normal(size=(3, 3))
        grad[1, 2] = np.inf
        _, cache = net.forward(X)
        with np.errstate(invalid="ignore"):  # inf times a zero mask or weight is nan
            got, want = net.backward(cache, grad), _textbook_backward(net, X, grad)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.array_equal(_bits(got[finite]), _bits(want[finite]))
        with pytest.raises(NumericError, match="^non-finite gradient$"):
            sgd_step(SGDState(lr=0.1), net, got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_and_scores_rejected(self, bad):
        net = DenseNet([3, 4, 2], clamp=20.0, rng=np.random.default_rng(26))
        for shape in [(3,), (2, 3)]:
            x = np.zeros(shape)
            x.flat[-1] = bad
            with pytest.raises(NumericError, match="^non-finite network input$"):
                net.forward(x)
        scores = np.zeros((2, 3))
        scores[1, 0] = bad
        with pytest.raises(NumericError, match="^non-finite scores passed to lambda_transform$"):
            lambda_transform(scores, TransformConfig())

    @pytest.mark.parametrize("shape", [(), (7,), (6, 7), (3, 6, 7)])
    def test_transform_and_its_gradient(self, shape):
        rng = np.random.default_rng(27)
        for _ in range(20):
            cfg = TransformConfig(a=float(rng.uniform(0.1, 3.0)), b=float(rng.uniform(0.0, 2.0)),
                                  gamma=float(rng.uniform(0.3, 3.0)))
            s = rng.uniform(-4.0, 4.0, size=shape)
            before = np.copy(s)
            assert np.array_equal(_bits(lambda_transform(s, cfg)),
                                  _bits(cfg.a * np.exp(s / cfg.gamma) + cfg.b))
            assert np.array_equal(_bits(lambda_transform_grad(s, cfg)),
                                  _bits((cfg.a / cfg.gamma) * np.exp(s / cfg.gamma)))
            assert np.array_equal(_bits(s), _bits(before))


class TestAllocationBudget:
    """The wide forward and the transform each keep one float64 array per layer."""

    @staticmethod
    def _traced(fn):
        """(live, peak) bytes that ``fn()`` allocates, its result still held."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return live - base, peak - base

    def test_forward_keeps_one_array_per_layer(self):
        rng = np.random.default_rng(28)
        net = DenseNet([128, 256, 100], clamp=20.0, rng=rng)
        X = rng.normal(size=(4000, 128))
        live, peak = self._traced(lambda: net.forward(X))
        budget = 1.05 * 8 * (4000 * 256 + 4000 * 100)
        assert live <= budget and peak <= budget

    def test_transform_allocates_one_array(self):
        rng = np.random.default_rng(29)
        scores = rng.uniform(-2.0, 2.0, size=(4000, 100))
        cfg = TransformConfig(a=1.5, b=1.0, gamma=2.0)
        budget = 1.05 * 8 * scores.size
        for fn in (lambda_transform, lambda_transform_grad):
            live, peak = self._traced(lambda: fn(scores, cfg))
            assert live <= budget and peak <= budget


class TestSGD:
    @staticmethod
    def _grad(w, b):
        return np.array([w, b])  # the flat layout of a [1, 1] net: W[0, 0], then b[0]

    def _net(self):
        net = DenseNet([1, 1], clamp=10.0, rng=np.random.default_rng(10))
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        return net

    def test_zero_momentum_is_plain_sgd(self):
        net = self._net()
        state = SGDState(lr=0.1, momentum=0.0)
        sgd_step(state, net, self._grad(2.0, 0.0))
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 2.0, rel=1e-15)

    def test_two_steps_constant_gradient(self):
        mu, lr, g = 0.9, 0.1, 2.0
        net = self._net()
        state = SGDState(lr=lr, momentum=mu)
        for _ in range(2):
            sgd_step(state, net, self._grad(g, 0.0))
        assert net.weights[0][0, 0] == pytest.approx(1.0 - lr * (2 + mu) * g, rel=1e-12)

    def test_zero_learning_rate_keeps_parameters(self):
        net = self._net()
        state = SGDState(lr=0.0, momentum=0.5)
        sgd_step(state, net, self._grad(3.0, 1.0))
        assert net.weights[0][0, 0] == 1.0 and net.biases[0][0] == 0.0

    def test_nonfinite_gradient_aborts(self):
        net = self._net()
        state = SGDState(lr=0.1)
        with pytest.raises(NumericError):
            sgd_step(state, net, self._grad(np.nan, 0.0))

    def test_weight_decay_adds_l2_pull(self):
        net = self._net()
        state = SGDState(lr=0.1, momentum=0.0)
        sgd_step(state, net, self._grad(0.0, 0.0), weight_decay=0.5)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5, rel=1e-15)

    def test_step_updates_layers_through_flat(self):
        rng = np.random.default_rng(13)
        net = DenseNet([3, 4, 2], clamp=20.0, rng=rng)
        before = net.get_flat()
        grad = rng.normal(size=before.size)
        sgd_step(SGDState(lr=0.1, momentum=0.9), net, grad)
        for p in net.weights + net.biases:
            assert np.shares_memory(p, net.flat)
        assert np.array_equal(net.get_flat(), before - 0.1 * grad)
        assert not np.shares_memory(net.get_flat(), net.flat)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            SGDState(lr=-1.0)
        with pytest.raises(ValueError):
            SGDState(lr=0.1, momentum=1.0)


def test_layer_sizes_are_linear_at_zero_hidden_width():
    assert layer_sizes(3, 0, 4) == [3, 4]
    assert layer_sizes(3, 8, 4) == [3, 8, 4]


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
