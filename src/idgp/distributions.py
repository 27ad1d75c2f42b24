"""Categorical/Dirichlet and Bernoulli/Beta building blocks.

The candidate-label model draws the correct label from a Categorical
distribution with parameter vector ``theta`` (a point on the label simplex)
and each incorrect candidate independently from a Bernoulli with parameter
``z_j``.  Their conjugate priors, Dirichlet(``lam``) and Beta(``alpha``,
``beta``), admit closed-form posterior means given the 0/1 occurrence
vector ``o`` of an observed candidate set:

    theta_hat_j = (o_j + lam_j) / sum_k (lam_k + o_k)
    z_hat_j     = (o_j + alpha_j) / (alpha_j + beta_j + o_j)

Those two estimators, their chain rules (a loss's partials in theta_hat
and z_hat carried back to lam, alpha and beta on (..., B, c) stacks, which
every public derivative and the trainer apply), the parameter floors and
the domain checks the losses apply live here.  The log
densities themselves are written out where they are used: the losses in
:mod:`idgp.objective` and the candidate-set density in
:mod:`idgp.generation`.
"""

from __future__ import annotations

import numpy as np

# Floor applied to Dirichlet/Beta parameters after any arithmetic: the prior
# refinement can push entries arbitrarily close to 0 from above.
PARAM_FLOOR = 1e-8
# Bernoulli means are clamped into [Z_EPS, 1 - Z_EPS] before any log.
Z_EPS = 1e-9


def floor_params(x: np.ndarray) -> np.ndarray:
    """Clamp prior parameters to at least :data:`PARAM_FLOOR`."""
    return np.maximum(np.asarray(x, dtype=np.float64), PARAM_FLOOR)


def clamp_z(z: np.ndarray) -> np.ndarray:
    """Clamp Bernoulli means into [Z_EPS, 1 - Z_EPS], as a new array."""
    z = np.maximum(np.asarray(z, dtype=np.float64), Z_EPS)
    return np.minimum(z, 1.0 - Z_EPS, out=z)


def _require_positive(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not ((x > 0.0) & (x < np.inf)).all():
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return x


def check_unit_open(z: np.ndarray, name: str = "z") -> np.ndarray:
    """Validate entries strictly inside (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    if not ((z > 0.0) & (z < 1.0)).all():
        raise ValueError(f"{name} entries must lie strictly inside (0, 1)")
    return z


def dirichlet_posterior_mean(lam: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Posterior mean of theta given occurrence counts, elementwise.

    Supports a single ``(c,)`` pair or batched ``(n, c)`` arrays; the
    result rows always lie on the simplex.
    """
    return _dirichlet_mean(_require_positive(lam, "lam"), np.asarray(o, dtype=np.float64))[0]


def _dirichlet_mean(lam, o):
    """Unchecked ``(theta_hat, D)``, with D = sum_k (lam_k + o_k) over the last axis kept."""
    counts = lam + o
    denom = np.sum(counts, axis=-1, keepdims=True)
    return counts / denom, denom


def dirichlet_posterior_mean_jacobian(lam: np.ndarray, o: np.ndarray) -> np.ndarray:
    """(..., c, c) matrices J[j, k] = d theta_hat_j / d lam_k = (delta_jk - theta_hat_j) / D."""
    theta, denom = _dirichlet_mean(_require_positive(lam, "lam"), np.asarray(o, dtype=np.float64))
    # row j of the identity is the cotangent of theta_hat_j
    return _chain_lambda(np.eye(theta.shape[-1]), theta[..., None, :], denom[..., None, :])


def beta_posterior_mean(alpha, beta, o) -> np.ndarray:
    """Posterior mean (o + alpha) / (alpha + beta + o), elementwise."""
    alpha = _require_positive(alpha, "alpha")
    beta = _require_positive(beta, "beta")
    return _beta_mean(alpha, beta, np.asarray(o, dtype=np.float64))[0]


def _beta_mean(alpha, beta, o):
    """Unchecked ``(z_hat, N, D)``: numerator N = o + alpha, denominator D = alpha + beta + o."""
    num = o + alpha
    denom = alpha + beta + o
    return num / denom, num, denom


def beta_posterior_mean_grads(alpha, beta, o):
    """Exact partials (dz/dalpha, dz/dbeta) of the Beta posterior mean."""
    alpha = _require_positive(alpha, "alpha")
    beta = _require_positive(beta, "beta")
    _, num, denom = _beta_mean(alpha, beta, np.asarray(o, dtype=np.float64))
    return _chain_alpha_beta(1.0, beta, num, denom)


def _chain_lambda(d_theta, theta, denom):
    """dL/dlam_k = (dL/dtheta_k - sum_j dL/dtheta_j theta_hat_j) / D, j over the last axis."""
    inner = (d_theta * theta).sum(axis=-1, keepdims=True)
    return (d_theta - inner) / denom


def _chain_alpha_beta(d_z, beta, num, denom):
    """d/d(alpha, beta) = dL/dz * (beta, -N) / D**2, from :func:`_beta_mean`'s N and D."""
    denom_sq = denom ** 2
    return d_z * beta / denom_sq, d_z * (-num) / denom_sq
