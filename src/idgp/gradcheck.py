"""Central-difference verification of every analytic gradient path.

Each check draws random small instances, evaluates one component's
analytic derivative, and compares against (f(x+h) - f(x-h)) / 2h at
h = 1e-5 in 64-bit.  Errors are reported as |a - b| / max(1, |a|, |b|),
i.e. relative for large gradients and absolute near zero, and instances
are resampled until they sit away from the clamp and relu kinks that make
finite differences meaningless.  One routine, :func:`central_difference`,
gives every numeric derivative: the gradient of a scalar function or the
Jacobian of a vector one.  It passes all 2n points x +- h e_i of an
n-coordinate x to the function in one call, so each coordinate keeps its own
difference but a check makes one call, not 2n; given flat ``coords`` it moves
only those.  Each network check runs all its perturbed copies of a net as one
:meth:`DenseNet.stacked` net.

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
from .data import candidate_mask, occurrence_vector
from .network import DenseNet, TransformConfig, lambda_transform, lambda_transform_grad

FD_STEP = 1e-5
TOLERANCE = 1e-6

_HARNESS_CLAMP = 8.0  # generous headroom: scores stay far inside [-A, A]
_MAX_TRIES = 200  # draws of a well-conditioned net before giving up
_KINK_MARGIN = 1e-3  # least |preactivation| a drawn net may have
_SCORE_BOUND = 4.0  # far below the clamp: the FD step stays off every clamp and floor
_FORWARD_WIDTH = 16  # hidden width of the bare-network check
_MAP_ROWS = 3  # batch rows of the MAP check: more than one exercises the 1/B mean


def central_difference(fun, x: np.ndarray, coords=None) -> np.ndarray:
    """Central differences of ``fun`` at ``x``, shaped ``fun(x).shape + x.shape``.

    The gradient of a scalar function, the Jacobian of a vector one.  ``fun``
    takes a stack of m points, shaped ``(m,) + x.shape``, and returns one
    value per point, shaped ``(m,) + fun(x).shape``.  All 2n points
    x + h e_i and x - h e_i, h = ``FD_STEP``, go to it in one call.  Given
    ``coords``, only those n flat coordinates of ``x`` move, and the result
    is shaped ``fun(x).shape + (n,)``; else every coordinate moves.
    """
    x = np.asarray(x, dtype=np.float64)
    full = coords is None
    coords = np.arange(x.size) if full else np.asarray(coords)
    n = coords.size
    points = np.repeat(x.reshape(1, -1), 2 * n, axis=0)  # point k moves coords[k mod n]
    points[np.arange(n), coords] += FD_STEP
    points[np.arange(n, 2 * n), coords] -= FD_STEP
    values = np.asarray(fun(points.reshape((2 * n,) + x.shape)))
    diff = np.moveaxis((values[:n] - values[n:]) / (2.0 * FD_STEP), 0, -1)
    return diff.reshape(diff.shape[:-1] + x.shape) if full else diff


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


def check_forward(rng) -> float:
    """Backprop through the bare network against FD on a linear probe."""
    q = int(rng.integers(2, 6))
    c = int(rng.integers(2, 6))
    net, x = _well_conditioned_net(rng, [q, _FORWARD_WIDTH, c])
    v = rng.normal(size=c)
    _, cache = net.forward(x)
    analytic = net.backward(cache, v)
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
    o = occurrence_vector(_random_candidates(rng, c), c)
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
    parameters and returns their K loss values; one stack holds every copy.
    """
    numeric = central_difference(lambda rows: loss(net.stacked(rows)), net.get_flat(), coords)
    return rel_error(analytic[coords], numeric)


def _well_conditioned_net(rng, sizes, x=None):
    """Net/input pair whose preactivations avoid relu kinks and the clamp.

    A given input ``x`` is kept and only the net is redrawn.
    """
    for _ in range(_MAX_TRIES):
        net = DenseNet(sizes, _HARNESS_CLAMP, rng=np.random.default_rng(rng.integers(2 ** 63)))
        x_try = rng.normal(size=sizes[0]) if x is None else x
        if _margins_ok(net, x_try):
            return net, x_try
    raise RuntimeError("could not draw a well-conditioned instance")


def _margins_ok(net, x):
    scores, cache = net.forward(x)
    for h, W, b in zip(cache["inputs"], net.weights[:-1], net.biases[:-1]):
        if np.min(np.abs(h @ W + b)) < _KINK_MARGIN:
            return False
    return bool(np.max(np.abs(scores)) < _SCORE_BOUND)


def _generation_map_value(theta, z, cands, lambda_hat, alpha_hat, beta_hat) -> float:
    """MAP loss of one instance straight from the generation model and the prior."""
    prior = ((lambda_hat - 1.0) * np.log(theta) + (alpha_hat - 1.0) * np.log(z)
             + (beta_hat - 1.0) * np.log1p(-z)).sum()
    return float(-np.log(generation.candidate_set_density(cands, theta, z)) - prior)


def check_map_end_to_end(rng, c: int | None = None, width: int | None = None,
                         max_coords: int = 300, ml_only: bool = False) -> float:
    """The trainer's batched MAP step through both networks vs FD.

    The parameter gradients that training applies to each net from the
    forwards of :func:`trainer.forward_f` and :func:`trainer.forward_g`,
    f's from :func:`trainer.map_step_batch` and g's from
    :func:`trainer.aux_gradient`, go against central differences of the
    batch-mean loss of :func:`trainer.map_step_batch`, with the other net's
    forward held fixed, on every coordinate of a net with at most
    ``max_coords`` of them, else a random subset.  Each row's loss, from
    the step and from one :func:`objective.map_loss` call on the same rows,
    goes against :func:`_generation_map_value`.  ``ml_only`` checks the
    likelihood-only step instead, against the same reference with every
    prior constant at 1, where the prior term vanishes.
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
    mask = candidate_mask(cands, c).astype(np.float64)
    prior = tuple(rng.uniform(0.5, 3.0, size=(_MAP_ROWS, c)) for _ in range(3))

    if ml_only:
        prior = tuple(np.ones_like(h) for h in prior)
    centred = None if ml_only else objective._prior_terms(*prior)
    fwd_f, fwd_g = trainer.forward_f(net_f, x, tc, mask), trainer.forward_g(net_g, x, tc, mask)

    def mean_loss(f_fwd, g_fwd):
        return trainer.map_step_batch(f_fwd, g_fwd, tc, mask, centred).values.mean(axis=-1)

    res = trainer.map_step_batch(fwd_f, fwd_g, tc, mask, centred)
    reference = [_generation_map_value(fwd_f.theta[i], fwd_g.zl.z[i], s, *(h[i] for h in prior))
                 for i, s in enumerate(cands)]
    err = max(rel_error(res.values, reference),
              rel_error(objective.map_loss(fwd_f.lam, fwd_g.alpha, fwd_g.beta, mask,
                                           *prior).value, reference))
    for net, analytic, loss in (
            (net_f, res.grads_f(),
             lambda nets: mean_loss(trainer.forward_f(nets, x, tc, mask), fwd_g)),
            (net_g, trainer.aux_gradient(fwd_f, fwd_g, tc, mask, centred),
             lambda nets: mean_loss(fwd_f, trainer.forward_g(nets, x, tc, mask)))):
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
COMPONENTS = tuple(_CHECKS)


def run_suite(seed: int = 0, trials: int = 20) -> dict:
    """Max observed error per component over ``trials`` random instances."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng([int(seed), 99])
    return {name: max(check(rng) for _ in range(trials))
            for name, check in _CHECKS.items()}
