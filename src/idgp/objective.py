"""Likelihood, prior-regularization and MAP losses with exact gradients.

Per instance, with candidate set S, posterior means ``theta_hat`` and
``z_hat`` (both differentiable) and frozen prior constants ``lambda_hat``,
``alpha_hat``, ``beta_hat``:

    L_ml  = -log sum_{j in S} theta_hat_j
                 * prod_{k in S\\{j}} z_hat_k * prod_{k not in S\\{j}} (1 - z_hat_k)
    L_reg = -sum_j (lambda_hat_j - 1) log theta_hat_j
                 + (alpha_hat_j - 1) log z_hat_j + (beta_hat_j - 1) log(1 - z_hat_j)
    L_map = L_ml + L_reg

The interior sum of L_ml is evaluated in log space with a max shift; the
products underflow in raw space once c is in the hundreds.  Gradients with
respect to the live Dirichlet/Beta parameters carry the d/d(theta_hat)
and d/d(z_hat) partials through the posterior-mean chain rules of
:mod:`idgp.distributions`.

The batch losses, the chain rules, :func:`map_loss` and the bound take
(B, c) rows with a 0/1 candidate mask, the arrays the trainer holds;
:func:`ml_loss` and :func:`reg_loss` are 1-row views of the two batch
losses for a single candidate set written by hand.  All but the bound and
these two also take (..., B, c) stacks, such as the posterior means of K
nets at once, and reduce over the last axis only.  All of them are composed
from one set of private pieces (the z logs, the likelihood's log-sum-exp,
each partial, the chain rules), which the trainer also composes, so that a
batch takes each log once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import occurrence_vector
from .distributions import (
    _beta_mean,
    _chain_alpha_beta,
    _chain_lambda,
    _dirichlet_mean,
    _require_positive,
    check_unit_open,
)
from .errors import NumericError


def ml_loss_batch(theta: np.ndarray, z: np.ndarray, mask: np.ndarray):
    """Mean-free per-row likelihood loss and its partials.

    Returns ``(values, d_theta, d_z)`` with shapes (B,), (B, c), (B, c).
    ``mask`` is the 0/1 occurrence matrix of the candidate sets.  Inputs
    may carry leading axes, (..., B, c), and broadcast against each other;
    values then have shape (..., B).
    """
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    cand = mask > 0.0
    shift, total, w = _ml_softmax(np.log(theta), _z_logs(z, mask), cand)
    return (_ml_values(shift, total), _ml_d_theta(w, theta, cand),
            _ml_d_z(w, z, 1.0 - z, cand))


def reg_loss_batch(theta, z, lambda_hat, alpha_hat, beta_hat):
    """Per-row prior regularizer and its partials w.r.t. theta and z.

    The hat parameters are constants: they shape the gradient but receive
    none.  Like :func:`ml_loss_batch`, it takes (..., B, c) inputs.
    """
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    prior = _prior_terms(lambda_hat, alpha_hat, beta_hat)
    values = _reg_values(prior, np.log(theta), np.log(z), np.log1p(-z))
    return values, _reg_d_theta(prior, theta), _reg_d_z(prior, z, 1.0 - z)


def chain_to_lambda(d_theta: np.ndarray, lam: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Compose d/d(theta_hat) with the posterior-mean Jacobian, batched.

    With D = sum_k (lam_k + o_k) and theta_hat = (o + lam) / D:
    dL/dlam_k = (dL/dtheta_k - sum_j dL/dtheta_j * theta_hat_j) / D.
    Both sums run over the last axis, the labels of (..., B, c) stacks.
    """
    lam = np.asarray(lam, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    return _chain_lambda(d_theta, *_dirichlet_mean(lam, mask))


def chain_to_alpha_beta(d_z, alpha, beta, mask):
    """Compose d/d(z_hat) with the Beta posterior-mean partials, batched."""
    beta = np.asarray(beta, dtype=np.float64)
    _, num, denom = _beta_mean(np.asarray(alpha, dtype=np.float64), beta,
                               np.asarray(mask, dtype=np.float64))
    return _chain_alpha_beta(d_z, beta, num, denom)


# -- the pieces every loss, gradient and bound above and in the trainer share --
#
# Each quantity of a batch is computed by exactly one of these, so the trainer
# can take log theta once per batch and the z logs once per forward of g, and
# each of its sub-steps evaluates only what it applies.  Composed, the pieces
# must give the public functions above and below bit for bit their textbook
# bodies, which tests/test_objective_textbook.py writes out.


class _ZLogs(NamedTuple):
    """z (clamped, in training) with the logs and masked row sums every z-side term reads."""

    z: np.ndarray
    log_z: np.ndarray
    log_1mz: np.ndarray
    sum_log_z: np.ndarray  # (..., B, 1): log z over each candidate set
    sum_log_1mz: np.ndarray  # (..., B, 1): log(1 - z) over its complement


def _z_logs(z, mask) -> _ZLogs:
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    return _ZLogs(z, log_z, log_1mz, (mask * log_z).sum(axis=-1, keepdims=True),
                  ((1.0 - mask) * log_1mz).sum(axis=-1, keepdims=True))


def _prior_terms(lambda_hat, alpha_hat, beta_hat) -> tuple:
    """The prior constants less one, ``(lambda_hat - 1, alpha_hat - 1, beta_hat - 1)``."""
    return tuple(np.asarray(h, dtype=np.float64) - 1.0
                 for h in (lambda_hat, alpha_hat, beta_hat))


def _ml_softmax(log_theta, zl: _ZLogs, cand):
    """Max shift, row total and weights w of the likelihood's sum over S.

    The j-th summand is theta_j times z over S\\{j} times (1 - z) elsewhere;
    w_j is its share of the row's sum.
    """
    log_terms = log_theta + zl.sum_log_z - zl.log_z + zl.sum_log_1mz + zl.log_1mz
    log_terms = np.where(cand, log_terms, -np.inf)
    shift = log_terms.max(axis=-1, keepdims=True)
    if not np.isfinite(shift).all():
        raise NumericError("ML loss: every candidate term underflowed to zero")
    expd = np.exp(log_terms - shift)
    total = expd.sum(axis=-1, keepdims=True)
    return shift, total, expd / total


def _ml_values(shift, total):
    values = -(shift + np.log(total))[..., 0]
    if not np.isfinite(values).all():
        raise NumericError("ML loss became non-finite (degenerate z_hat at clamp?)")
    return values


def _ml_d_theta(w, theta, cand):
    return np.where(cand, -w / theta, 0.0)


def _ml_d_z(w, z, one_minus_z, cand):
    return np.where(cand, -(1.0 - w) / z + w / one_minus_z, 1.0 / one_minus_z)


def _reg_values(prior, log_theta, log_z, log_1mz):
    lam_c, alp_c, bet_c = prior
    return -(lam_c * log_theta + alp_c * log_z + bet_c * log_1mz).sum(axis=-1)


def _reg_d_theta(prior, theta):
    return -prior[0] / theta


def _reg_d_z(prior, z, one_minus_z):
    _, alp_c, bet_c = prior
    return -alp_c / z + bet_c / one_minus_z


def _map_d_z(w, zl: _ZLogs, cand, prior):
    """d/dz of the per-row MAP loss, or of its likelihood part when ``prior`` is None."""
    one_minus_z = 1.0 - zl.z
    d_z = _ml_d_z(w, zl.z, one_minus_z, cand)
    return d_z if prior is None else d_z + _reg_d_z(prior, zl.z, one_minus_z)


def _map_values(shift, total, w, theta, log_theta, zl: _ZLogs, cand, prior):
    """Per-row MAP values, their two parts and d/d(theta_hat).

    Returns ``(values, ml_values, reg_values, d_theta)``; when ``prior`` is
    None the loss is the likelihood alone and ``reg_values`` are zeros.
    """
    ml_v = _ml_values(shift, total)
    d_theta = _ml_d_theta(w, theta, cand)
    if prior is None:
        return ml_v, ml_v, np.zeros_like(ml_v), d_theta
    reg_v = _reg_values(prior, log_theta, zl.log_z, zl.log_1mz)
    return ml_v + reg_v, ml_v, reg_v, d_theta + _reg_d_theta(prior, theta)


def ml_loss(theta_hat, z_hat, candidates: Sequence[int]):
    """Single-instance likelihood loss: (value, d/d theta_hat, d/d z_hat)."""
    theta_hat = _require_positive(theta_hat, "theta_hat")
    z_hat = check_unit_open(z_hat, "z_hat")
    mask = occurrence_vector(candidates, theta_hat.shape[0])
    values, d_theta, d_z = ml_loss_batch(theta_hat[None], z_hat[None], mask[None])
    return float(values[0]), d_theta[0], d_z[0]


def reg_loss(theta_hat, z_hat, lambda_hat, alpha_hat, beta_hat):
    """Single-instance regularizer: (value, d/d theta_hat, d/d z_hat)."""
    theta_hat = _require_positive(theta_hat, "theta_hat")
    z_hat = check_unit_open(z_hat, "z_hat")
    values, d_theta, d_z = reg_loss_batch(
        theta_hat[None], z_hat[None], np.asarray(lambda_hat)[None],
        np.asarray(alpha_hat)[None], np.asarray(beta_hat)[None])
    return float(values[0]), d_theta[0], d_z[0]


@dataclass(frozen=True)
class MapLossResult:
    """Per-row MAP values, (B,), and gradients to the live parameters, (B, c)."""

    value: np.ndarray
    ml_value: np.ndarray
    reg_value: np.ndarray
    d_lambda: np.ndarray
    d_alpha: np.ndarray
    d_beta: np.ndarray


def map_loss(lam, alpha, beta, mask, lambda_hat, alpha_hat, beta_hat) -> MapLossResult:
    """Full MAP loss of each (B, c) row and its gradients to the live lam/alpha/beta.

    The trainer's composition without the 1/B mean or the z clamp: the
    posterior means of ``lam``, ``alpha`` and ``beta`` given the 0/1
    ``mask``, the likelihood plus the prior term from the same pieces the
    trainer's two sub-steps apply, chained to the live parameters by the
    same chain rules on the same means.  ``lam``, ``alpha`` and ``beta`` may
    be (..., B, c) stacks.  The prior constants affect the value but by
    construction receive zero gradient.
    """
    for name, prior in (("lambda_hat", lambda_hat), ("alpha_hat", alpha_hat),
                        ("beta_hat", beta_hat)):
        _require_positive(prior, name)
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    beta = _require_positive(beta, "beta")
    mask = np.asarray(mask, dtype=np.float64)
    theta, denom = _dirichlet_mean(lam, mask)
    z, num, denom_z = _beta_mean(alpha, beta, mask)
    cand = mask > 0.0
    log_theta = np.log(theta)
    zl = _z_logs(z, mask)
    shift, total, w = _ml_softmax(log_theta, zl, cand)
    prior = _prior_terms(lambda_hat, alpha_hat, beta_hat)
    values, ml_v, reg_v, d_theta = _map_values(shift, total, w, theta, log_theta, zl,
                                               cand, prior)
    d_alpha, d_beta = _chain_alpha_beta(_map_d_z(w, zl, cand, prior), beta, num, denom_z)
    return MapLossResult(value=values, ml_value=ml_v, reg_value=reg_v,
                         d_lambda=_chain_lambda(d_theta, theta, denom),
                         d_alpha=d_alpha, d_beta=d_beta)


@dataclass(frozen=True)
class UpperBound:
    """Bound values (B,) with the clamped and the pre-clamp weights (B, c)."""

    value: np.ndarray
    weights: np.ndarray
    weights_preclamp: np.ndarray


def map_upper_bound_batch(theta, z, lam, alpha, beta, mask, rho: float) -> UpperBound:
    """Concavity (AM-GM) upper bound on the MAP loss of each row.

    Uses the live lambda for the per-label weights
    ``w_j = lam_j - 1 + 1/|S|`` (j in S, else ``lam_j - 1``), clamped into
    [0, rho] for the reported value; the pre-clamp weights are returned so
    callers can tell when the clamp was a no-op, which is when the bound
    provably dominates the loss.  The bound's likelihood component matches
    the ML loss exactly for singleton candidate sets.
    """
    if not (rho > 0.0):
        raise ValueError("rho must be strictly positive")
    theta, z, lam, alpha, beta, mask = (np.asarray(v, dtype=np.float64)
                                        for v in (theta, z, lam, alpha, beta, mask))
    return _upper_bound(np.log(theta), _z_logs(z, mask), lam, alpha, beta, mask, mask > 0.0,
                        rho)


def _upper_bound(log_theta, zl: _ZLogs, lam, alpha, beta, mask, cand,
                 rho: float) -> UpperBound:
    sizes = mask.sum(axis=1, keepdims=True)
    # log prod_{k in S\{j}} z_k prod_{k not in S\{j}} (1-z_k), for each j
    log_q = zl.sum_log_z - zl.log_z + zl.sum_log_1mz + zl.log_1mz
    k_term = (np.log(sizes[:, 0])
              + (log_q * mask).sum(axis=1) / sizes[:, 0]
              + ((alpha - 1.0) * zl.log_z + (beta - 1.0) * zl.log_1mz).sum(axis=1))
    lam_c = lam - 1.0
    w_pre = np.where(cand, lam_c + 1.0 / sizes, lam_c)
    w = np.maximum(w_pre, 0.0)
    np.minimum(w, rho, out=w)
    return UpperBound(value=-(k_term + (w * log_theta).sum(axis=1)),
                      weights=w, weights_preclamp=w_pre)


def degenerate_uniform_loss(theta_hat, candidates: Sequence[int], p: float,
                            lambda_hat) -> float:
    """MAP loss specialized to a constant flip probability p.

    With every Bernoulli mean pinned at p the likelihood factor common to
    all candidates is a constant and drops out, leaving
    ``-log sum_{j in S} theta_hat_j - sum_j (lambda_hat_j - 1) log theta_hat_j``.
    ``p`` only fixes the dropped constant and does not appear in the value.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("flip probability p must lie strictly inside (0, 1)")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    lam_c = np.asarray(lambda_hat, dtype=np.float64) - 1.0
    mask = occurrence_vector(candidates, theta_hat.shape[0])
    ml_term = -np.log(float((theta_hat * mask).sum()))
    reg_term = -float((lam_c * np.log(theta_hat)).sum())
    return float(ml_term + reg_term)
