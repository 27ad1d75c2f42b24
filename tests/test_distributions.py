"""Posterior means, their derivatives and the clamps against independent oracles.

Closed forms are checked three ways: frozen hand arithmetic, numerical
integration of the prior-times-likelihood definition of a posterior mean,
and Monte Carlo draws from the posterior.
"""

import numpy as np
import pytest
from scipy import integrate

from idgp.distributions import (
    PARAM_FLOOR,
    Z_EPS,
    beta_posterior_mean,
    beta_posterior_mean_grads,
    clamp_z,
    dirichlet_posterior_mean,
    dirichlet_posterior_mean_jacobian,
    floor_params,
)


class TestPosteriorMeans:
    def test_dirichlet_hand_values(self):
        out = dirichlet_posterior_mean(np.array([2.0, 1, 1]), np.array([1.0, 0, 0]))
        assert np.allclose(out, [0.6, 0.2, 0.2], rtol=1e-12)
        out = dirichlet_posterior_mean(np.ones(3), np.zeros(3))
        assert np.allclose(out, [1 / 3] * 3, rtol=1e-12)
        out = dirichlet_posterior_mean(np.ones(3), np.array([1.0, 1, 0]))
        assert np.allclose(out, [0.4, 0.4, 0.2], rtol=1e-12)

    def test_beta_hand_values(self):
        assert beta_posterior_mean(2.0, 3.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert beta_posterior_mean(7.0, 7.0, 0.0) == pytest.approx(0.5, rel=1e-12)
        assert beta_posterior_mean(1.0, 1.0, 1.0) == pytest.approx(2 / 3, rel=1e-12)

    def test_dirichlet_output_on_simplex(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            lam = rng.uniform(1e-6, 50.0, size=c)
            o = (rng.random(c) < 0.4).astype(float)
            theta = dirichlet_posterior_mean(lam, o)
            assert np.all(np.isfinite(theta)) and np.all(theta > 0.0)
            assert abs(theta.sum() - 1.0) <= 1e-9

    def test_beta_output_strictly_inside(self):
        rng = np.random.default_rng(2)
        alpha = rng.uniform(1e-6, 50.0, size=1000)
        beta = rng.uniform(1e-6, 50.0, size=1000)
        o = (rng.random(1000) < 0.5).astype(float)
        z = beta_posterior_mean(alpha, beta, o)
        assert np.all(z > 0.0) and np.all(z < 1.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            dirichlet_posterior_mean(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            beta_posterior_mean(1.0, -1.0, 0.0)


class TestConjugacyOracles:
    """Posterior means vs numerical integration of prior * likelihood."""

    def test_dirichlet_two_class_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = rng.uniform(0.8, 5.0, size=2)
            for y in (0, 1):
                l = np.zeros(2)
                l[y] = 1.0

                def weight(t1):
                    prior = t1 ** (lam[0] - 1) * (1 - t1) ** (lam[1] - 1)
                    return prior * (t1 if y == 0 else (1 - t1))

                norm, _ = integrate.quad(weight, 0.0, 1.0, epsabs=1e-13)
                mean1, _ = integrate.quad(lambda t: t * weight(t), 0.0, 1.0,
                                          epsabs=1e-13)
                expected = mean1 / norm
                got = dirichlet_posterior_mean(lam, l)[0]
                assert got == pytest.approx(expected, abs=1e-8)

    def test_beta_quadrature_one_observation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = rng.uniform(0.8, 5.0, size=2)
            for obs in (0.0, 1.0):
                def weight(z):
                    prior = z ** (a - 1) * (1 - z) ** (b - 1)
                    # obs=1 is one Bernoulli success; obs=0 is no observation
                    return prior * (z if obs == 1.0 else 1.0)

                norm, _ = integrate.quad(weight, 0.0, 1.0, epsabs=1e-13)
                mean, _ = integrate.quad(lambda z: z * weight(z), 0.0, 1.0,
                                         epsabs=1e-13)
                assert beta_posterior_mean(a, b, obs) == pytest.approx(
                    mean / norm, abs=1e-10)

    def test_dirichlet_monte_carlo_c5(self):
        rng = np.random.default_rng(5)
        lam = rng.uniform(1.0, 4.0, size=5)
        y = 2
        draws = rng.dirichlet(lam, size=10 ** 6)
        weights = draws[:, y]
        estimate = (draws * weights[:, None]).sum(axis=0) / weights.sum()
        l = np.zeros(5)
        l[y] = 1.0
        got = dirichlet_posterior_mean(lam, l)
        assert np.max(np.abs(got - estimate)) < 1e-2


class TestJacobians:
    def test_dirichlet_jacobian_formula(self):
        lam = np.array([2.0, 1.0, 0.5])
        o = np.array([1.0, 0.0, 1.0])
        denom = (lam + o).sum()
        theta = (lam + o) / denom
        jac = dirichlet_posterior_mean_jacobian(lam, o)
        expected = (np.eye(3) - theta[:, None]) / denom
        assert np.allclose(jac, expected, rtol=1e-14)

    def test_beta_grads_formula(self):
        alpha, beta, o = np.array([2.0]), np.array([3.0]), np.array([1.0])
        da, db = beta_posterior_mean_grads(alpha, beta, o)
        assert da[0] == pytest.approx(3.0 / 36.0, rel=1e-14)
        assert db[0] == pytest.approx(-3.0 / 36.0, rel=1e-14)


class TestClamps:
    def test_floor(self):
        out = floor_params(np.array([0.0, 1e-12, 2.0]))
        assert np.all(out >= PARAM_FLOOR)
        assert out[2] == 2.0

    def test_z_clamp(self):
        out = clamp_z(np.array([0.0, 0.5, 1.0]))
        assert out[0] == Z_EPS and out[2] == 1.0 - Z_EPS and out[1] == 0.5
