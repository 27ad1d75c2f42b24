#!/usr/bin/env python3
"""Conjugate posterior means, the MAP loss, and its concavity upper bound.

The Dirichlet/Categorical and Beta/Bernoulli pairs give closed-form
posterior means once a candidate set's occurrence vector is treated as the
observation.  This script checks the closed forms against numerical
integration, evaluates the MAP loss on one row of arrays, and shows the
upper bound collapsing to equality on a singleton candidate set.
"""

import numpy as np
from scipy import integrate

from idgp.data import occurrence_vector
from idgp.distributions import beta_posterior_mean, dirichlet_posterior_mean
from idgp.objective import map_loss, map_upper_bound_batch

rng = np.random.default_rng(3)

print("Dirichlet posterior mean vs quadrature (2 classes, one observation):")
lam = np.array([2.2, 1.4])
obs = np.array([1.0, 0.0])


def weight(t):
    return t ** (lam[0] - 1) * (1 - t) ** (lam[1] - 1) * t


norm, _ = integrate.quad(weight, 0, 1, epsabs=1e-13)
m1, _ = integrate.quad(lambda t: t * weight(t), 0, 1, epsabs=1e-13)
closed = dirichlet_posterior_mean(lam, obs)
print(f"  closed form: {closed}")
print(f"  quadrature:  [{m1 / norm:.12f} {1 - m1 / norm:.12f}]")

print("\nBeta posterior mean vs quadrature (alpha=2, beta=3, one success):")
print(f"  closed form: {float(beta_posterior_mean(2.0, 3.0, 1.0)):.12f}")
num, _ = integrate.quad(lambda v: v * v ** 2 * (1 - v) ** 2, 0, 1)
den, _ = integrate.quad(lambda v: v ** 2 * (1 - v) ** 2, 0, 1)
print(f"  quadrature:  {num / den:.12f}")

# --- one full loss evaluation ----------------------------------------------
# map_loss and the bound take (B, c) rows; here B = 1.
print("\nMAP loss on a random 4-class row:")
c = 4
cands = (0, 2)
lam = rng.uniform(1.0, 6.0, size=(1, c))
alpha = rng.uniform(1.0, 4.0, size=(1, c))
beta = rng.uniform(1.0, 4.0, size=(1, c))
mask = occurrence_vector(cands, c)[None]
res = map_loss(lam, alpha, beta, mask, lam, alpha, beta)
theta = dirichlet_posterior_mean(lam, mask)
z = beta_posterior_mean(alpha, beta, mask)
print(f"  candidates (1-based): {tuple(j + 1 for j in cands)}")
print(f"  theta_hat = {np.round(theta[0], 4)}")
print(f"  z_hat     = {np.round(z[0], 4)}")
print(f"  likelihood part {res.ml_value[0]:.4f} + prior part {res.reg_value[0]:.4f}"
      f" = {res.value[0]:.4f}")
print(f"  gradient w.r.t. lambda: {np.round(res.d_lambda[0], 4)}")

bound = map_upper_bound_batch(theta, z, lam, alpha, beta, mask, rho=10.0)
print(f"\n  concavity upper bound: {bound.value[0]:.4f} "
      f"(loss {res.value[0]:.4f}, slack {bound.value[0] - res.value[0]:.4f})")

single = occurrence_vector((1,), c)[None]
theta1 = dirichlet_posterior_mean(lam, single)
z1 = beta_posterior_mean(alpha, beta, single)
gap = (map_upper_bound_batch(theta1, z1, lam, alpha, beta, single, rho=10.0).value
       - map_loss(lam, alpha, beta, single, lam, alpha, beta).value)[0]
print(f"  singleton candidate set: slack collapses to {gap:.2e}")
