"""Likelihood/regularizer/MAP losses, the concavity upper bound, and the
uniform-flip degeneration, all pinned against hand arithmetic and
brute-force recomputation."""

import numpy as np
import pytest

from idgp.generation import candidate_set_density
from idgp.network import TransformConfig, lambda_range, loss_sup
from idgp.objective import (
    BoundConfig,
    PerInstanceLossInput,
    degenerate_uniform_loss,
    map_loss,
    map_upper_bound,
    map_upper_bound_batch,
    ml_loss,
    ml_loss_batch,
    reg_loss,
    reg_loss_batch,
)


def brute_force_ml(theta, z, cands):
    """Direct product-space recomputation of the likelihood loss."""
    total = 0.0
    for j in cands:
        term = theta[j]
        for k in range(len(theta)):
            if k in cands and k != j:
                term *= z[k]
            else:
                term *= 1.0 - z[k]
        total += term
    return -np.log(total)


def brute_force_bound(inp, rho):
    """The concavity bound from its definition, one label at a time."""
    cands, z, size = inp.candidates, inp.z_hat, len(inp.candidates)

    def log_q(j):  # log prod_{k in S\{j}} z_k prod_{k not in S\{j}} (1 - z_k)
        return sum(np.log(z[k]) if k in cands and k != j else np.log1p(-z[k])
                   for k in range(inp.c))

    k_term = (np.log(size) + sum(log_q(j) for j in cands) / size
              + sum((inp.alpha[k] - 1.0) * np.log(z[k])
                    + (inp.beta[k] - 1.0) * np.log1p(-z[k]) for k in range(inp.c)))
    weights = [min(max(inp.lam[j] - 1.0 + (1.0 / size if j in cands else 0.0), 0.0), rho)
               for j in range(inp.c)]
    return -(k_term + sum(w * np.log(t) for w, t in zip(weights, inp.theta_hat)))


def random_instance(rng, c=None, lam_range=(1.0, 5.0)):
    c = c or int(rng.integers(2, 9))
    size = int(rng.integers(1, c))
    cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
    lam = rng.uniform(*lam_range, size=c)
    alpha = rng.uniform(*lam_range, size=c)
    beta = rng.uniform(*lam_range, size=c)
    prior = (rng.uniform(0.5, 3.0, size=c), rng.uniform(0.5, 3.0, size=c),
             rng.uniform(0.5, 3.0, size=c))
    return PerInstanceLossInput.from_live_params(lam, alpha, beta, *prior, cands)


class TestMlLoss:
    def test_hand_value(self):
        theta = np.array([0.5, 0.3, 0.2])
        z = np.array([0.1, 0.2, 0.3])
        value, _, _ = ml_loss(theta, z, (0, 1))
        t1 = 0.5 * 0.2 * 0.9 * 0.7
        t2 = 0.3 * 0.1 * 0.8 * 0.7
        assert t1 == pytest.approx(0.063)
        assert t2 == pytest.approx(0.0168)
        assert value == pytest.approx(-np.log(t1 + t2), rel=1e-12)
        assert value == pytest.approx(2.5282, abs=5e-5)

    def test_singleton_specialization(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = int(rng.integers(2, 8))
            theta = rng.uniform(0.05, 1.0, size=c)
            z = rng.uniform(0.05, 0.95, size=c)
            j = int(rng.integers(c))
            value, _, _ = ml_loss(theta, z, (j,))
            expected = -np.log(theta[j]) - np.log1p(-z).sum()
            assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            size = int(rng.integers(1, c))
            cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
            theta = rng.uniform(0.05, 1.0, size=c)
            z = rng.uniform(0.05, 0.95, size=c)
            value, _, _ = ml_loss(theta, z, cands)
            assert value == pytest.approx(brute_force_ml(theta, z, cands), rel=1e-10)

    def test_matches_generation_density(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = int(rng.integers(2, 7))
            size = int(rng.integers(1, c))
            cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
            theta = rng.dirichlet(np.ones(c))
            z = rng.uniform(0.05, 0.95, size=c)
            value, _, _ = ml_loss(theta, z, cands)
            assert value == pytest.approx(
                -np.log(candidate_set_density(cands, theta, z)), rel=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            c = int(rng.integers(2, 7))
            size = int(rng.integers(1, c))
            cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
            theta = rng.uniform(0.1, 1.0, size=c)
            z = rng.uniform(0.1, 0.9, size=c)
            _, d_theta, d_z = ml_loss(theta, z, cands)
            for i in range(c):
                e = np.zeros(c)
                e[i] = h
                fd_t = (ml_loss(theta + e, z, cands)[0]
                        - ml_loss(theta - e, z, cands)[0]) / (2 * h)
                fd_z = (ml_loss(theta, z + e, cands)[0]
                        - ml_loss(theta, z - e, cands)[0]) / (2 * h)
                assert d_theta[i] == pytest.approx(fd_t, rel=1e-6, abs=1e-8)
                assert d_z[i] == pytest.approx(fd_z, rel=1e-6, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ml_loss(np.array([0.0, 1.0]), np.array([0.5, 0.5]), (0,))
        with pytest.raises(ValueError):
            ml_loss(np.array([0.5, 0.5]), np.array([1.0, 0.5]), (0,))

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(4)
        c = 5
        theta = rng.uniform(0.1, 1.0, size=(8, c))
        z = rng.uniform(0.1, 0.9, size=(8, c))
        mask = (rng.random((8, c)) < 0.5).astype(float)
        mask[mask.sum(axis=1) == 0, 0] = 1.0
        mask[mask.sum(axis=1) == c] = np.array([1.0] * (c - 1) + [0.0])
        values, d_t, d_z = ml_loss_batch(theta, z, mask)
        for i in range(8):
            cands = tuple(np.flatnonzero(mask[i]).tolist())
            v, gt, gz = ml_loss(theta[i], z[i], cands)
            assert values[i] == pytest.approx(v, rel=1e-14)
            assert np.allclose(d_t[i], gt) and np.allclose(d_z[i], gz)

    def test_stacked_batch_matches_each_slice_bitwise(self):
        rng = np.random.default_rng(12)
        k, b, c = 4, 6, 5
        theta = rng.uniform(0.1, 1.0, size=(k, b, c))
        z = rng.uniform(0.1, 0.9, size=(k, b, c))
        mask = np.zeros((b, c))
        mask[np.arange(b), rng.integers(0, c, size=b)] = 1.0
        mask[:, 0] = 1.0
        hats = [rng.uniform(0.5, 3.0, size=(b, c)) for _ in range(3)]
        for loss, extra in ((ml_loss_batch, (mask,)), (reg_loss_batch, hats)):
            stacked = loss(theta, z, *extra)
            assert stacked[0].shape == (k, b)
            for i in range(k):
                for whole, part in zip(stacked, loss(theta[i], z[i], *extra)):
                    assert np.array_equal(whole[i], part)


class TestRegLoss:
    def test_all_ones_prior_is_zero(self):
        theta = np.array([0.2, 0.8])
        z = np.array([0.3, 0.6])
        value, d_t, d_z = reg_loss(theta, z, np.ones(2), np.ones(2), np.ones(2))
        assert value == 0.0
        assert np.all(d_t == 0.0) and np.all(d_z == 0.0)

    def test_hand_value(self):
        value, _, _ = reg_loss(
            np.array([0.5, 0.5]), np.array([0.5, 0.5]),
            np.array([2.0, 1.0]), np.array([1.0, 1.0]), np.array([2.0, 1.0]))
        assert value == pytest.approx(2 * np.log(2), rel=1e-12)
        assert value == pytest.approx(1.3863, abs=5e-5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        c = 4
        theta = rng.uniform(0.1, 1.0, size=c)
        z = rng.uniform(0.1, 0.9, size=c)
        hats = [rng.uniform(0.5, 4.0, size=c) for _ in range(3)]
        _, d_theta, d_z = reg_loss(theta, z, *hats)
        for i in range(c):
            e = np.zeros(c)
            e[i] = h
            fd_t = (reg_loss(theta + e, z, *hats)[0]
                    - reg_loss(theta - e, z, *hats)[0]) / (2 * h)
            fd_z = (reg_loss(theta, z + e, *hats)[0]
                    - reg_loss(theta, z - e, *hats)[0]) / (2 * h)
            assert d_theta[i] == pytest.approx(fd_t, rel=1e-6)
            assert d_z[i] == pytest.approx(fd_z, rel=1e-6)


class TestMapLoss:
    def test_decomposes_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            inp = random_instance(rng)
            res = map_loss(inp)
            ml_v, _, _ = ml_loss(inp.theta_hat, inp.z_hat, inp.candidates)
            reg_v, _, _ = reg_loss(inp.theta_hat, inp.z_hat, inp.lambda_hat,
                                   inp.alpha_hat, inp.beta_hat)
            assert res.value == ml_v + reg_v
            assert res.ml_value == ml_v and res.reg_value == reg_v

    def test_prior_shifts_value_but_returns_no_prior_gradient(self):
        rng = np.random.default_rng(7)
        inp = random_instance(rng, c=4)
        res = map_loss(inp)
        bumped = PerInstanceLossInput.from_live_params(
            inp.lam, inp.alpha, inp.beta,
            inp.lambda_hat + 0.25, inp.alpha_hat, inp.beta_hat, inp.candidates)
        res2 = map_loss(bumped)
        assert res2.value != res.value
        # gradient fields cover exactly the live parameters, nothing else
        assert {f for f in res.__dataclass_fields__ if f.startswith("d_")} == {
            "d_lambda", "d_alpha", "d_beta"}

    def test_live_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            inp = random_instance(rng, c=5)
            res = map_loss(inp)
            o = inp.occurrence()

            def value_at(lam=None, alpha=None, beta=None):
                return map_loss(PerInstanceLossInput.from_live_params(
                    inp.lam if lam is None else lam,
                    inp.alpha if alpha is None else alpha,
                    inp.beta if beta is None else beta,
                    inp.lambda_hat, inp.alpha_hat, inp.beta_hat,
                    inp.candidates)).value

            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                assert res.d_lambda[i] == pytest.approx(
                    (value_at(lam=inp.lam + e) - value_at(lam=inp.lam - e)) / (2 * h),
                    rel=1e-5, abs=1e-7)
                assert res.d_alpha[i] == pytest.approx(
                    (value_at(alpha=inp.alpha + e) - value_at(alpha=inp.alpha - e)) / (2 * h),
                    rel=1e-5, abs=1e-7)
                assert res.d_beta[i] == pytest.approx(
                    (value_at(beta=inp.beta + e) - value_at(beta=inp.beta - e)) / (2 * h),
                    rel=1e-5, abs=1e-7)


class TestUpperBound:
    def test_am_gm_foundation(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            c = int(rng.integers(2, 9))
            size = int(rng.integers(1, c))
            a = rng.uniform(0.01, 10.0, size=size)
            lhs = -np.log(a.sum())
            rhs = -np.log(size) - np.log(a).mean()
            assert lhs <= rhs + 1e-12
        equal = np.full(4, 0.37)
        assert -np.log(equal.sum()) == pytest.approx(
            -np.log(4) - np.log(equal).mean(), abs=1e-12)

    def _bound_ready_instance(self, rng, c=None):
        # live lambda in [1, 9] keeps the pre-clamp weights inside [0, 10]
        inp = random_instance(rng, c=c, lam_range=(1.0, 9.0))
        return PerInstanceLossInput.from_live_params(
            inp.lam, inp.alpha, inp.beta, inp.lam, inp.alpha, inp.beta,
            inp.candidates)

    def test_bound_dominates_loss(self):
        rng = np.random.default_rng(10)
        cfg = BoundConfig(rho=10.0)
        for _ in range(1000):
            inp = self._bound_ready_instance(rng)
            bound = map_upper_bound(inp, cfg)
            assert np.all(bound.weights_preclamp >= 0.0)
            assert np.all(bound.weights_preclamp <= cfg.rho)
            assert map_loss(inp).value <= bound.value + 1e-9

    def test_singleton_ml_component_equality(self):
        rng = np.random.default_rng(11)
        cfg = BoundConfig(rho=10.0)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            lam = rng.uniform(1.0, 9.0, size=c)
            alpha = rng.uniform(1.0, 9.0, size=c)
            beta = rng.uniform(1.0, 9.0, size=c)
            cands = (int(rng.integers(c)),)
            inp = PerInstanceLossInput.from_live_params(
                lam, alpha, beta, lam, alpha, beta, cands)
            gap = map_upper_bound(inp, cfg).value - map_loss(inp).value
            assert abs(gap) <= 1e-12

    def test_clamp_at_rho_only_in_bound(self):
        rng = np.random.default_rng(12)
        cfg = BoundConfig(rho=2.0)
        inp = self._bound_ready_instance(rng, c=5)
        bound = map_upper_bound(inp, cfg)
        assert np.all(bound.weights <= cfg.rho)
        # the clamp is active here, and it changes the bound's value
        assert np.any(bound.weights_preclamp > cfg.rho)
        unclamped = BoundConfig(rho=float(bound.weights_preclamp.max()) + 1.0)
        assert map_upper_bound(inp, unclamped).value != bound.value

    def test_degenerate_theta_keeps_bound_finite(self):
        lam = np.array([1.0 + 1e-8, 8.9, 1.0 + 1e-8, 1.0 + 1e-8])
        alpha = np.full(4, 5.0)
        beta = np.full(4, 5.0)
        inp = PerInstanceLossInput.from_live_params(
            lam, alpha, beta, lam, alpha, beta, (1,))
        bound = map_upper_bound(inp, BoundConfig())
        assert np.isfinite(bound.value)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        cfg = BoundConfig(rho=10.0)
        instances = [self._bound_ready_instance(rng, c=6) for _ in range(16)]
        theta = np.stack([i.theta_hat for i in instances])
        z = np.stack([i.z_hat for i in instances])
        lam = np.stack([i.lam for i in instances])
        alpha = np.stack([i.alpha for i in instances])
        beta = np.stack([i.beta for i in instances])
        mask = np.stack([i.occurrence() for i in instances])
        batch = map_upper_bound_batch(theta, z, lam, alpha, beta, mask, cfg.rho)
        for i, inp in enumerate(instances):
            expected = brute_force_bound(inp, cfg.rho)
            assert batch.value[i] == pytest.approx(expected, rel=1e-12)
            assert map_upper_bound(inp, cfg).value == pytest.approx(expected, rel=1e-12)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(rho=0.0)


class TestLossCeiling:
    def test_map_loss_below_sup_constant(self):
        rng = np.random.default_rng(14)
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        clamp, c = 3.0, 5
        lo, hi = lambda_range(cfg, clamp)
        ceiling = loss_sup(cfg, clamp, c)
        for _ in range(2000):
            lam = rng.uniform(lo, hi, size=c)
            alpha = rng.uniform(lo, hi, size=c)
            beta = rng.uniform(lo, hi, size=c)
            size = int(rng.integers(1, c))
            cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
            inp = PerInstanceLossInput.from_live_params(
                lam, alpha, beta, lam, alpha, beta, cands)
            assert map_loss(inp).value <= ceiling


class TestDegenerateUniform:
    def test_all_ones_prior_reduces_to_ml_term(self):
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        val = degenerate_uniform_loss(theta, (0, 2), 0.3, np.ones(4))
        assert val == pytest.approx(-np.log(0.6), rel=1e-12)

    def test_constant_offset_identity(self):
        """ml with z == p differs from the degenerate term by a theta-free
        constant: -log[(1-p)^(c+1-|S|) p^(|S|-1)]."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            c = int(rng.integers(2, 9))
            size = int(rng.integers(1, c))
            cands = tuple(sorted(rng.choice(c, size=size, replace=False).tolist()))
            p = float(rng.uniform(0.1, 0.9))
            offsets = []
            for _ in range(100):
                theta = rng.uniform(0.05, 1.0, size=c)
                full, _, _ = ml_loss(theta, np.full(c, p), cands)
                degen = degenerate_uniform_loss(theta, cands, p, np.ones(c))
                offsets.append(full - degen)
            offsets = np.array(offsets)
            expected = -np.log((1 - p) ** (c + 1 - size) * p ** (size - 1))
            assert offsets.var() < 1e-18
            assert np.max(np.abs(offsets - expected)) < 1e-12

    def test_near_full_set_uniform_theta(self):
        for c in (3, 5, 8):
            theta = np.full(c, 1.0 / c)
            cands = tuple(j for j in range(c) if j != c - 1)
            val = degenerate_uniform_loss(theta, cands, 0.5, np.ones(c))
            assert val == pytest.approx(-np.log((c - 1) / c), rel=1e-12)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            degenerate_uniform_loss(np.array([0.5, 0.5]), (0,), 1.0, np.ones(2))
