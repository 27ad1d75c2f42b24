"""The finite-difference routine, faults in the bare network's backward and in
the posterior-mean chain rules, and the MAP-step branches that ``run_suite``
does not reach: the likelihood-only step and rows past the z clamp."""

import sys

import numpy as np
import pytest

from idgp.distributions import Z_EPS
from idgp.gradcheck import (
    TOLERANCE,
    central_difference,
    check_forward,
    check_map_end_to_end,
    rel_error,
    run_suite,
)
from idgp.network import DenseNet
from idgp.objective import _prior_terms
from idgp.trainer import TrainConfig, aux_gradient, forward_f, forward_g, map_step_batch


def test_central_difference_matches_closed_form_jacobian():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(5, 8))
    seen = []

    def fun(points):  # sin(x) * x[0, 0], one (5, 8) value per point
        seen.append(points.shape)
        return np.sin(points) * points[:, :1, :1]

    numeric = central_difference(fun, x)
    analytic = np.zeros(x.shape + x.shape)
    for j, k in np.ndindex(x.shape):
        analytic[j, k, j, k] = np.cos(x[j, k]) * x[0, 0]
        analytic[j, k, 0, 0] += np.sin(x[j, k])
    assert numeric.shape == x.shape + x.shape
    assert np.max(np.abs(numeric - analytic)) < 1e-9
    assert seen == [(2 * x.size,) + x.shape]  # every point in one call


def test_central_difference_of_scalar_function_is_gradient():
    x = np.array([0.3, -1.2, 2.0])
    numeric = central_difference(lambda p: (p ** 3).sum(axis=-1) / 3.0, x)
    assert numeric.shape == x.shape
    assert np.max(np.abs(numeric - x ** 2)) < 1e-9


def test_central_difference_on_coords_equals_full_difference_there():
    rng = np.random.default_rng(3)
    net = DenseNet([3, 6, 4], clamp=20.0, rng=rng)
    x, v = rng.normal(size=(2, 3)), rng.normal(size=4)

    def loss(rows):
        return (DenseNet.from_flat(net.layer_sizes, net.clamp, rows).forward(x)[0] @ v).sum(axis=-1)

    coords = rng.choice(net.flat.size, size=17, replace=False)
    full = central_difference(loss, net.flat)
    assert np.array_equal(central_difference(loss, net.flat, coords), full[coords])


@pytest.mark.parametrize("check, stacks", [
    (check_forward, 1),
    (lambda rng: check_map_end_to_end(rng, c=5, width=16), 2),  # f and g: 133+ coordinates
], ids=["forward", "map_loss"])
def test_each_checked_net_is_differenced_in_one_stacked_net(monkeypatch, check, stacks):
    real, built = DenseNet.from_flat, []

    def spy(cls, layer_sizes, clamp, rows):
        built.append(len(rows))
        return real(layer_sizes, clamp, rows)

    monkeypatch.setattr(DenseNet, "from_flat", classmethod(spy))
    assert check(np.random.default_rng(5)) <= TOLERANCE
    assert len(built) == stacks


def test_offset_in_backward_fails_check_forward(monkeypatch):
    real = DenseNet.backward

    def offset(self, cache, grad_scores):
        grad = real(self, cache, grad_scores)
        grad[0] += 1e-3  # entry 0 of the flat gradient is W[0][0, 0]
        return grad

    assert check_forward(np.random.default_rng(1)) <= TOLERANCE
    monkeypatch.setattr(DenseNet, "backward", offset)
    assert check_forward(np.random.default_rng(1)) > TOLERANCE


@pytest.mark.parametrize("binding", ["_chain_lambda", "_chain_alpha_beta"])
def test_chain_rule_fault_fails_jacobians_and_map_loss(monkeypatch, binding):
    # the public Jacobians and the trainer's step apply the same chain rule,
    # so a fault in it shows in the component that checks it alone as well
    modules = [m for name, m in sys.modules.items()
               if name.startswith("idgp.") and hasattr(m, binding)]
    real = getattr(modules[0], binding)

    def doubled(*args):
        out = real(*args)
        return tuple(2.0 * o for o in out) if isinstance(out, tuple) else 2.0 * out

    for module in modules:
        monkeypatch.setattr(module, binding, doubled)
    errors = run_suite(seed=1, trials=2)
    assert errors["posterior_jacobians"] > TOLERANCE
    assert errors["map_loss"] > TOLERANCE


@pytest.mark.parametrize("seed", range(4))
def test_ml_only_map_step_matches_finite_differences(seed):
    # the likelihood-only step that ML-only fits apply, through both nets
    assert check_map_end_to_end(np.random.default_rng([seed, 7]), ml_only=True) <= TOLERANCE


@pytest.mark.parametrize("ml_only", [False, True])
def test_rows_past_the_z_clamp_get_no_g_gradient(ml_only):
    cfg = TrainConfig()  # clamp 20 and b 0: lambda runs from 2e-9 to 4.9e8
    tc = cfg.transform_config
    rng = np.random.default_rng(11)
    c, rows = 3, 6
    mask = np.zeros((rows, c))
    mask[np.arange(rows), rng.integers(0, c, rows)] = 1.0
    mask[::2, (rng.integers(0, c) + 1) % c] = 1.0
    prior = None if ml_only else _prior_terms(*rng.uniform(0.5, 3.0, size=(3, rows, c)))
    # A linear g.  Feature 0, set on the first three rows only, adds 15 to every
    # alpha score and -15 to every beta score: inside the score clamp, but
    # z_raw = 1 - 1e-13 there, far past the z clamp at 1 - Z_EPS.
    x = np.zeros((rows, 2))
    x[:3, 0] = 1.0
    x[3:, 1] = rng.uniform(0.5, 1.0, rows - 3)
    g = DenseNet([2, 2 * c], clamp=cfg.clamp, rng=rng)
    g.weights[0][0] = np.repeat([15.0, -15.0], c)
    f = DenseNet([2, 8, c], clamp=cfg.clamp, rng=rng)
    fwd_f, fwd_g = forward_f(f, x, tc, mask), forward_g(g, x, tc, mask)
    assert (np.abs(g.forward(x)[0]) < cfg.clamp - 1.0).all()  # no score is clamped
    assert (fwd_g.z_raw[:3] > 1.0 - Z_EPS).all() and (fwd_g.z_raw[3:] < 0.99).all()

    def mean_loss(nets):
        return map_step_batch(fwd_f, forward_g(nets, x, tc, mask), tc, prior).values.mean(axis=-1)

    analytic = aux_gradient(fwd_f, fwd_g, tc, prior)
    numeric = central_difference(
        lambda flat: mean_loss(DenseNet.from_flat(g.layer_sizes, g.clamp, flat)), g.flat)
    # W[0] (the first 2c entries) reaches the clamped rows only: both derivatives are 0
    assert np.all(analytic[:2 * c] == 0.0) and np.all(numeric[:2 * c] == 0.0)
    assert rel_error(analytic, numeric) <= TOLERANCE
    assert np.any(analytic[2 * c:] != 0.0)
    # with only the clamped rows in the batch, g's whole applied gradient is 0
    fwd_g = forward_g(g, x[:3], tc, mask[:3])
    part = None if ml_only else tuple(p[:3] for p in prior)
    assert np.all(aux_gradient(forward_f(f, x[:3], tc, mask[:3]), fwd_g, tc, part) == 0.0)
