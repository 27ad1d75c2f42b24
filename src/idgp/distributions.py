"""Categorical/Dirichlet and Bernoulli/Beta building blocks.

The candidate-label model draws the correct label from a Categorical
distribution with parameter vector ``theta`` (a point on the label simplex)
and each incorrect candidate independently from a Bernoulli with parameter
``z_j``.  Their conjugate priors, Dirichlet(``lam``) and Beta(``alpha``,
``beta``), admit closed-form posterior means given the 0/1 occurrence
vector ``o`` of an observed candidate set:

    theta_hat_j = (o_j + lam_j) / sum_k (lam_k + o_k)
    z_hat_j     = (o_j + alpha_j) / (alpha_j + beta_j + o_j)

Those two estimators, their exact partial derivatives, the parameter
floors and the domain checks the losses apply live here.  The log
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
    """Clamp Bernoulli means into the open interval (0, 1)."""
    return np.clip(np.asarray(z, dtype=np.float64), Z_EPS, 1.0 - Z_EPS)


def _require_positive(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return x


def check_unit_open(z: np.ndarray, name: str = "z") -> np.ndarray:
    """Validate entries strictly inside (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)) or np.any(z <= 0.0) or np.any(z >= 1.0):
        raise ValueError(f"{name} entries must lie strictly inside (0, 1)")
    return z


def dirichlet_posterior_mean(lam: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Posterior mean of theta given occurrence counts, elementwise.

    Supports a single ``(c,)`` pair or batched ``(n, c)`` arrays; the
    result rows always lie on the simplex.
    """
    lam = _require_positive(lam, "lam")
    o = np.asarray(o, dtype=np.float64)
    denom = np.sum(lam + o, axis=-1, keepdims=True)
    return (o + lam) / denom


def dirichlet_posterior_mean_jacobian(lam: np.ndarray, o: np.ndarray) -> np.ndarray:
    """(c, c) matrix J[j, k] = d theta_hat_j / d lam_k = (delta_jk - theta_hat_j) / D."""
    lam = _require_positive(lam, "lam")
    o = np.asarray(o, dtype=np.float64)
    denom = float(np.sum(lam + o))
    theta_hat = (o + lam) / denom
    return (np.eye(lam.shape[-1]) - theta_hat[:, None]) / denom


def beta_posterior_mean(alpha, beta, o) -> np.ndarray:
    """Posterior mean (o + alpha) / (alpha + beta + o), elementwise."""
    alpha = _require_positive(alpha, "alpha")
    beta = _require_positive(beta, "beta")
    o = np.asarray(o, dtype=np.float64)
    return (o + alpha) / (alpha + beta + o)


def beta_posterior_mean_grads(alpha, beta, o):
    """Exact partials (dz/dalpha, dz/dbeta) of the Beta posterior mean."""
    alpha = _require_positive(alpha, "alpha")
    beta = _require_positive(beta, "beta")
    o = np.asarray(o, dtype=np.float64)
    denom_sq = (alpha + beta + o) ** 2
    return beta / denom_sq, -(o + alpha) / denom_sq
