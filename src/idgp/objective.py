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
respect to the live Dirichlet/Beta parameters compose the d/d(theta_hat)
and d/d(z_hat) partials with the exact posterior-mean Jacobians.

Batch variants operate on (B, c) arrays with a 0/1 candidate mask and are
what the trainer consumes; the per-instance functions wrap them.  The two
batch losses also take (..., B, c) stacks, such as the posterior means of K
nets at once, and reduce over the last axis only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import occurrence_vector
from .distributions import (
    _require_positive,
    beta_posterior_mean,
    check_unit_open,
    dirichlet_posterior_mean,
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
    log_theta = np.log(theta)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    sum_log_z = (mask * log_z).sum(axis=-1, keepdims=True)
    sum_log_1mz = ((1.0 - mask) * log_1mz).sum(axis=-1, keepdims=True)
    # log of the j-th summand: theta_j times z over S\{j} times (1-z) elsewhere
    log_terms = log_theta + sum_log_z - log_z + sum_log_1mz + log_1mz
    log_terms = np.where(mask > 0.0, log_terms, -np.inf)
    shift = log_terms.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise NumericError("ML loss: every candidate term underflowed to zero")
    expd = np.exp(log_terms - shift)
    total = expd.sum(axis=-1, keepdims=True)
    values = -(shift + np.log(total))[..., 0]
    if not np.all(np.isfinite(values)):
        raise NumericError("ML loss became non-finite (degenerate z_hat at clamp?)")
    w = expd / total
    d_theta = np.where(mask > 0.0, -w / theta, 0.0)
    d_z = np.where(
        mask > 0.0,
        -(1.0 - w) / z + w / (1.0 - z),
        1.0 / (1.0 - z),
    )
    return values, d_theta, d_z


def reg_loss_batch(theta, z, lambda_hat, alpha_hat, beta_hat):
    """Per-row prior regularizer and its partials w.r.t. theta and z.

    The hat parameters are constants: they shape the gradient but receive
    none.  Like :func:`ml_loss_batch`, it takes (..., B, c) inputs.
    """
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    lam_c = np.asarray(lambda_hat, dtype=np.float64) - 1.0
    alp_c = np.asarray(alpha_hat, dtype=np.float64) - 1.0
    bet_c = np.asarray(beta_hat, dtype=np.float64) - 1.0
    log_theta = np.log(theta)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    values = -(lam_c * log_theta + alp_c * log_z + bet_c * log_1mz).sum(axis=-1)
    d_theta = -lam_c / theta
    d_z = -alp_c / z + bet_c / (1.0 - z)
    return values, d_theta, d_z


def chain_to_lambda(d_theta: np.ndarray, lam: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Compose d/d(theta_hat) with the posterior-mean Jacobian, batched.

    With D = sum_k (lam_k + o_k) and theta_hat = (o + lam) / D:
    dL/dlam_k = (dL/dtheta_k - sum_j dL/dtheta_j * theta_hat_j) / D.
    """
    lam = np.asarray(lam, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    denom = (lam + mask).sum(axis=1, keepdims=True)
    theta_hat = (mask + lam) / denom
    inner = (d_theta * theta_hat).sum(axis=1, keepdims=True)
    return (d_theta - inner) / denom


def chain_to_alpha_beta(d_z, alpha, beta, mask):
    """Compose d/d(z_hat) with the Beta posterior-mean partials, batched."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    denom_sq = (alpha + beta + mask) ** 2
    return d_z * beta / denom_sq, d_z * (-(mask + alpha)) / denom_sq


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
class PerInstanceLossInput:
    """Everything the MAP loss needs for one instance.

    ``lam``, ``alpha``, ``beta`` are the live network-derived parameters
    (gradients flow to them); ``theta_hat`` and ``z_hat`` are the posterior
    means they induce; the hat-suffixed prior constants come from the
    prior cache and are treated as frozen.
    """

    theta_hat: np.ndarray
    z_hat: np.ndarray
    lambda_hat: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    candidates: tuple
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @classmethod
    def from_live_params(cls, lam, alpha, beta, lambda_hat, alpha_hat, beta_hat,
                         candidates: Sequence[int]):
        lam = np.asarray(lam, dtype=np.float64)
        for name, prior in (("lambda_hat", lambda_hat), ("alpha_hat", alpha_hat),
                            ("beta_hat", beta_hat)):
            _require_positive(prior, name)
        o = occurrence_vector(candidates, lam.shape[0])
        return cls(
            theta_hat=dirichlet_posterior_mean(lam, o),
            z_hat=beta_posterior_mean(alpha, beta, o),
            lambda_hat=np.asarray(lambda_hat, dtype=np.float64),
            alpha_hat=np.asarray(alpha_hat, dtype=np.float64),
            beta_hat=np.asarray(beta_hat, dtype=np.float64),
            candidates=tuple(int(j) for j in candidates),
            lam=lam,
            alpha=np.asarray(alpha, dtype=np.float64),
            beta=np.asarray(beta, dtype=np.float64),
        )

    @property
    def c(self) -> int:
        return int(self.lam.shape[0])

    def occurrence(self) -> np.ndarray:
        return occurrence_vector(self.candidates, self.c)


@dataclass(frozen=True)
class MapLossResult:
    value: float
    ml_value: float
    reg_value: float
    d_theta: np.ndarray
    d_z: np.ndarray
    d_lambda: np.ndarray
    d_alpha: np.ndarray
    d_beta: np.ndarray


def map_loss(inp: PerInstanceLossInput) -> MapLossResult:
    """Full MAP loss and its gradients to the live lam/alpha/beta.

    The 1-row view of the trainer's composition: :func:`ml_loss` plus
    :func:`reg_loss`, chained to the live parameters by the same
    :func:`chain_to_lambda` and :func:`chain_to_alpha_beta` that training
    applies.  Prior-cache constants affect the value but by construction
    receive zero gradient.
    """
    o = inp.occurrence()[None]
    ml_v, ml_dt, ml_dz = ml_loss(inp.theta_hat, inp.z_hat, inp.candidates)
    reg_v, reg_dt, reg_dz = reg_loss(inp.theta_hat, inp.z_hat,
                                     inp.lambda_hat, inp.alpha_hat, inp.beta_hat)
    d_theta = ml_dt + reg_dt
    d_z = ml_dz + reg_dz
    d_alpha, d_beta = chain_to_alpha_beta(d_z[None], inp.alpha[None], inp.beta[None], o)
    return MapLossResult(
        value=ml_v + reg_v,
        ml_value=ml_v,
        reg_value=reg_v,
        d_theta=d_theta,
        d_z=d_z,
        d_lambda=chain_to_lambda(d_theta[None], inp.lam[None], o)[0],
        d_alpha=d_alpha[0],
        d_beta=d_beta[0],
    )


@dataclass(frozen=True)
class BoundConfig:
    """Cap rho for the candidate-weight vector inside the upper bound."""

    rho: float = 10.0

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise ValueError("rho must be strictly positive")


@dataclass(frozen=True)
class UpperBound:
    """Bound values with the clamped and the pre-clamp candidate weights.

    Batched, (B,), (B, c) and (B, c), from :func:`map_upper_bound_batch`; one
    row, a float and two (c,) arrays, from :func:`map_upper_bound`.
    """

    value: float
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
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    sizes = mask.sum(axis=1, keepdims=True)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    # log prod_{k in S\{j}} z_k prod_{k not in S\{j}} (1-z_k), for each j
    log_q = ((log_z * mask).sum(axis=1, keepdims=True) - log_z
             + (log_1mz * (1.0 - mask)).sum(axis=1, keepdims=True) + log_1mz)
    k_term = (np.log(sizes[:, 0])
              + (log_q * mask).sum(axis=1) / sizes[:, 0]
              + ((alpha - 1.0) * log_z + (beta - 1.0) * log_1mz).sum(axis=1))
    w_pre = np.where(mask > 0.0, lam - 1.0 + 1.0 / sizes, lam - 1.0)
    w = np.clip(w_pre, 0.0, rho)
    return UpperBound(value=-(k_term + (w * np.log(theta)).sum(axis=1)),
                      weights=w, weights_preclamp=w_pre)


def map_upper_bound(inp: PerInstanceLossInput, cfg: BoundConfig) -> UpperBound:
    """The bound of one instance: a 1-row view of :func:`map_upper_bound_batch`."""
    rows = (inp.theta_hat, inp.z_hat, inp.lam, inp.alpha, inp.beta, inp.occurrence())
    bound = map_upper_bound_batch(*(np.asarray(v)[None] for v in rows), cfg.rho)
    return UpperBound(value=float(bound.value[0]), weights=bound.weights[0],
                      weights_preclamp=bound.weights_preclamp[0])


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
