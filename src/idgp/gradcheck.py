"""Central-difference verification of every analytic gradient path.

Each check draws random small instances, evaluates one component's
analytic derivative, and compares against (f(x+h) - f(x-h)) / 2h at
h = 1e-5 in 64-bit.  Errors are reported as |a - b| / max(1, |a|, |b|),
i.e. relative for large gradients and absolute near zero, and instances
are resampled until they sit away from the clamp and relu kinks that make
finite differences meaningless.  One routine, :func:`central_difference`,
gives every numeric derivative: the gradient of a scalar function or the
Jacobian of a vector one.  It passes the 2n points x +- h e_i of an
n-coordinate x to the function as stacks of up to 64, so each coordinate
keeps its own difference but a check makes a few calls, not 2n; the network
checks run each stack as one :meth:`DenseNet.stacked` net.

The checks deliberately call through the module objects (``objective.``,
``distributions.``, ``trainer.``) rather than binding functions at import
time, so a deliberately broken derivative injected by a test is picked up.
The MAP check runs the trainer's own batched step, so the gradients it
verifies are the ones training applies, and checks the loss value of each
row against the generation model itself: minus the log candidate-set
density of :func:`generation.candidate_set_density` plus the prior term,
code that shares nothing with the batched losses.
"""

from __future__ import annotations

import numpy as np

from . import distributions, generation, objective, trainer
from .data import occurrence_vector
from .network import DenseNet, TransformConfig, lambda_transform, lambda_transform_grad

FD_STEP = 1e-5
TOLERANCE = 1e-6
COMPONENTS = ("forward", "transform", "posterior_jacobians",
              "ml_loss", "reg_loss", "map_loss")

_HARNESS_CLAMP = 8.0  # generous headroom: scores stay far inside [-A, A]
_MAP_ROWS = 3  # batch rows of the MAP check: more than one exercises the 1/B mean
_FD_CHUNK = 64  # most points handed to one call of the differenced function


def central_difference(fun, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of ``fun`` at ``x``, shaped ``fun(x).shape + x.shape``.

    The gradient of a scalar function, the Jacobian of a vector one.  ``fun``
    takes a stack of m points, shaped ``(m,) + x.shape``, and returns one
    value per point, shaped ``(m,) + fun(x).shape``.  The 2 ``x.size``
    points x + h e_i and x - h e_i go to it in chunks of at most 64.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    values = []
    for start in range(0, 2 * n, _FD_CHUNK):
        k = np.arange(start, min(start + _FD_CHUNK, 2 * n))  # point k moves x_{k mod n}
        points = np.tile(x.ravel(), (k.size, 1))
        points[np.arange(k.size), k % n] += np.where(k < n, h, -h)
        values.append(np.asarray(fun(points.reshape((-1,) + x.shape))))
    values = np.concatenate(values)
    diff = (values[:n] - values[n:]) / (2.0 * h)
    return np.moveaxis(diff, 0, -1).reshape(diff.shape[1:] + x.shape)


def rel_error(a, b) -> float:
    """max |a - b| / max(1, |a|, |b|) over all coordinates."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def _random_candidates(rng, c):
    size = int(rng.integers(1, c))
    return tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))


def _random_simplexish(rng, c):
    # strictly positive, need not sum to 1: the losses are checked as
    # functions of free coordinates
    return rng.uniform(0.1, 1.0, size=c)


def _random_z(rng, c):
    return rng.uniform(0.05, 0.95, size=c)


def check_forward(rng, width: int = 16) -> float:
    """Backprop through the bare network against FD on a linear probe."""
    q = int(rng.integers(2, 6))
    c = int(rng.integers(2, 6))
    net, x = _well_conditioned_net(rng, [q, width, c])
    v = rng.normal(size=c)
    _, cache = net.forward(x)
    analytic = net.flatten_grads(net.backward(cache, v))
    return _net_error(net, analytic, np.arange(analytic.size),
                      lambda nets: (nets.forward(x[None])[0] @ v)[:, 0])


def check_transform(rng) -> float:
    cfg = TransformConfig(a=float(rng.uniform(0.2, 3.0)), b=float(rng.uniform(0.0, 2.0)),
                          gamma=float(rng.uniform(0.5, 2.0)))
    scores = rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 8)))
    analytic = lambda_transform_grad(scores, cfg)
    numeric = central_difference(
        lambda s: lambda_transform(s, cfg).sum(axis=-1), scores)
    return rel_error(analytic, numeric)


def check_posterior_jacobians(rng) -> float:
    """The full Dirichlet Jacobian and the diagonal Beta Jacobians vs FD."""
    c = int(rng.integers(2, 8))
    lam = rng.uniform(0.3, 4.0, size=c)
    o = np.zeros(c)
    o[list(_random_candidates(rng, c))] = 1.0
    jac = distributions.dirichlet_posterior_mean_jacobian(lam, o)
    err = rel_error(jac, central_difference(
        lambda l: distributions.dirichlet_posterior_mean(l, o), lam))
    alpha = rng.uniform(0.3, 4.0, size=c)
    beta = rng.uniform(0.3, 4.0, size=c)
    dz_da, dz_db = distributions.beta_posterior_mean_grads(alpha, beta, o)
    num_da = central_difference(
        lambda a: distributions.beta_posterior_mean(a, beta, o), alpha)
    num_db = central_difference(
        lambda b: distributions.beta_posterior_mean(alpha, b, o), beta)
    return max(err, rel_error(dz_da, np.diagonal(num_da)),
               rel_error(dz_db, np.diagonal(num_db)))


def _theta_z_error(loss, theta, z) -> float:
    """Partials of the batch ``loss(theta, z) -> (values, d_theta, d_z)`` vs FD.

    ``theta`` and ``z`` are one (c,) row; the loss is called on (m, c) stacks.
    """
    _, d_theta, d_z = loss(theta[None], z[None])
    num_t = central_difference(lambda th: loss(th, z[None])[0], theta)
    num_z = central_difference(lambda zz: loss(theta[None], zz)[0], z)
    return max(rel_error(d_theta[0], num_t), rel_error(d_z[0], num_z))


def check_ml_loss(rng) -> float:
    c = int(rng.integers(2, 9))
    mask = occurrence_vector(_random_candidates(rng, c), c)[None]
    theta = _random_simplexish(rng, c)
    z = _random_z(rng, c)
    return _theta_z_error(lambda th, zz: objective.ml_loss_batch(th, zz, mask), theta, z)


def check_reg_loss(rng) -> float:
    c = int(rng.integers(2, 9))
    theta = _random_simplexish(rng, c)
    z = _random_z(rng, c)
    hats = tuple(rng.uniform(0.5, 3.0, size=(1, c)) for _ in range(3))
    return _theta_z_error(lambda th, zz: objective.reg_loss_batch(th, zz, *hats), theta, z)


def _net_error(net, analytic, coords, loss) -> float:
    """``analytic`` vs FD over the flat parameters ``coords`` of ``net``.

    ``loss(nets)`` takes K stacked copies of ``net`` with perturbed
    parameters and returns their K loss values.
    """
    flat0 = net.get_flat()

    def perturbed(sub):
        rows = np.tile(flat0, (len(sub), 1))
        rows[:, coords] = sub
        return loss(net.stacked(rows))

    return rel_error(analytic[coords], central_difference(perturbed, flat0[coords]))


def _well_conditioned_net(rng, sizes, clamp=_HARNESS_CLAMP, max_tries=200, x=None):
    """Net/input pair whose preactivations avoid relu kinks and the clamp.

    A given input ``x`` is kept and only the net is redrawn.
    """
    for _ in range(max_tries):
        net = DenseNet(sizes, activation="relu", clamp=clamp,
                       rng=np.random.default_rng(rng.integers(2 ** 63)))
        x_try = rng.normal(size=sizes[0]) if x is None else x
        if _margins_ok(net, x_try):
            return net, x_try
    raise RuntimeError("could not draw a well-conditioned instance")


def _margins_ok(net, x, kink_margin=1e-3, score_bound=4.0):
    # score_bound stays far below the harness clamp so the FD step never
    # crosses the clamp, the z clamp, or the parameter floor
    _, cache = net.forward(x)
    for pre in cache["preacts"]:
        if np.min(np.abs(pre)) < kink_margin:
            return False
    return bool(np.max(np.abs(cache["pre_out"])) < score_bound)


def _generation_map_value(theta, z, cands, lambda_hat, alpha_hat, beta_hat) -> float:
    """MAP loss of one instance straight from the generation model and the prior."""
    prior = ((lambda_hat - 1.0) * np.log(theta) + (alpha_hat - 1.0) * np.log(z)
             + (beta_hat - 1.0) * np.log1p(-z)).sum()
    return float(-np.log(generation.candidate_set_density(cands, theta, z)) - prior)


def check_map_end_to_end(rng, c: int | None = None, width: int | None = None,
                         max_coords: int = 300) -> float:
    """The trainer's batched MAP step through both networks vs FD.

    The parameter gradients that :func:`trainer.map_step_batch` gives each
    net, the ones training applies, go against central differences of its
    batch-mean loss, on every coordinate of a net with at most ``max_coords``
    of them, else a random subset.  Each row's loss, from the step and from
    the per-instance :func:`objective.map_loss`, goes against
    :func:`_generation_map_value`.
    """
    c = c if c is not None else int(rng.integers(3, 8))
    width = width if width is not None else int(rng.integers(4, 33))
    q = int(rng.integers(2, 6))
    tc = TransformConfig(a=1.0, b=float(rng.uniform(0.0, 0.5)),
                         gamma=float(rng.uniform(0.8, 1.5)))
    x = rng.normal(size=(_MAP_ROWS, q))
    net_f, _ = _well_conditioned_net(rng, [q, width, c], x=x)
    net_g, _ = _well_conditioned_net(rng, [q, width, 2 * c], x=x)
    cands = [_random_candidates(rng, c) for _ in range(_MAP_ROWS)]
    mask = np.array([occurrence_vector(s, c) for s in cands])
    prior = tuple(rng.uniform(0.5, 3.0, size=(_MAP_ROWS, c)) for _ in range(3))

    def step(f, g):
        return trainer.map_step_batch(f, g, x, tc, mask, *prior, ml_only=False)

    values, _, _, *live, grads_f, grads_g = step(net_f, net_g)
    err = 0.0
    for i, s in enumerate(cands):
        hats = [h[i] for h in prior]
        inp = objective.PerInstanceLossInput.from_live_params(*(v[i] for v in live), *hats, s)
        reference = _generation_map_value(inp.theta_hat, inp.z_hat, s, *hats)
        err = max(err, rel_error(values[i], reference),
                  rel_error(objective.map_loss(inp).value, reference))
    for net, grads, loss in (
            (net_f, grads_f, lambda nets: step(nets, net_g)[0].mean(axis=-1)),
            (net_g, grads_g, lambda nets: step(net_f, nets)[0].mean(axis=-1))):
        analytic = net.flatten_grads(grads())
        coords = np.arange(analytic.size)
        if analytic.size > max_coords:
            coords = rng.choice(analytic.size, size=max_coords, replace=False)
        err = max(err, _net_error(net, analytic, coords, loss))
    return err


_CHECKS = {
    "forward": check_forward,
    "transform": check_transform,
    "posterior_jacobians": check_posterior_jacobians,
    "ml_loss": check_ml_loss,
    "reg_loss": check_reg_loss,
    "map_loss": check_map_end_to_end,
}


def run_suite(seed: int = 0, trials: int = 20) -> dict:
    """Max observed error per component over ``trials`` random instances."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng([int(seed), 99])
    return {name: max(check(rng) for _ in range(trials))
            for name, check in _CHECKS.items()}
