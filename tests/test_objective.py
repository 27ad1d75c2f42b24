"""Likelihood/regularizer/MAP losses, the concavity upper bound, and the
uniform-flip degeneration, all pinned against hand arithmetic and
brute-force recomputation."""

import numpy as np
import pytest

from idgp.data import occurrence_vector
from idgp.distributions import beta_posterior_mean, dirichlet_posterior_mean
from idgp.generation import candidate_set_density
from idgp.network import TransformConfig, lambda_range, loss_sup
from idgp.objective import (
    chain_to_alpha_beta,
    chain_to_lambda,
    degenerate_uniform_loss,
    map_loss,
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


def brute_force_bound(theta, z, lam, alpha, beta, o, rho):
    """The concavity bound of one (c,) row from its definition, one label at a time."""
    c = len(o)
    cands = set(np.flatnonzero(o).tolist())
    size = len(cands)

    def log_q(j):  # log prod_{k in S\{j}} z_k prod_{k not in S\{j}} (1 - z_k)
        return sum(np.log(z[k]) if k in cands and k != j else np.log1p(-z[k])
                   for k in range(c))

    k_term = (np.log(size) + sum(log_q(j) for j in cands) / size
              + sum((alpha[k] - 1.0) * np.log(z[k])
                    + (beta[k] - 1.0) * np.log1p(-z[k]) for k in range(c)))
    weights = [min(max(lam[j] - 1.0 + (1.0 / size if j in cands else 0.0), 0.0), rho)
               for j in range(c)]
    return -(k_term + sum(w * np.log(t) for w, t in zip(weights, theta)))


def random_rows(rng, b=1, c=None, lam_range=(1.0, 5.0)):
    """``b`` random rows ``(lam, alpha, beta, mask, lambda_hat, alpha_hat,
    beta_hat)``, each shaped (b, c): the arguments of :func:`map_loss`."""
    c = c or int(rng.integers(2, 9))
    rows = []
    for _ in range(b):
        size = int(rng.integers(1, c))
        cands = rng.choice(c, size=size, replace=False)
        live = [rng.uniform(*lam_range, size=c) for _ in range(3)]
        prior = [rng.uniform(0.5, 3.0, size=c) for _ in range(3)]
        rows.append((*live, occurrence_vector(cands, c), *prior))
    return tuple(np.stack(column) for column in zip(*rows))


def posterior_means(lam, alpha, beta, mask, *_):
    return dirichlet_posterior_mean(lam, mask), beta_posterior_mean(alpha, beta, mask)


def bound_of(rows, rho):
    """:func:`map_upper_bound_batch` of :func:`random_rows`-style rows."""
    return map_upper_bound_batch(*posterior_means(*rows), *rows[:4], rho)


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

    def test_empty_candidate_set_is_rejected(self):
        theta = np.array([0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="empty candidate set"):
            ml_loss(theta, np.full(3, 0.3), ())
        with pytest.raises(ValueError, match="empty candidate set"):
            degenerate_uniform_loss(theta, (), 0.3, np.ones(3))

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
            rows = random_rows(rng)
            res = map_loss(*rows)
            theta, z = posterior_means(*rows)
            cands = np.flatnonzero(rows[3][0])
            ml_v, _, _ = ml_loss(theta[0], z[0], cands)
            reg_v, _, _ = reg_loss(theta[0], z[0], *(h[0] for h in rows[4:]))
            assert res.value[0] == ml_v + reg_v
            assert res.ml_value[0] == ml_v and res.reg_value[0] == reg_v

    def test_rows_match_one_row_calls_bitwise(self):
        rng = np.random.default_rng(16)
        rows = random_rows(rng, b=8, c=5)
        res = map_loss(*rows)
        assert res.value.shape == (8,) and res.d_lambda.shape == (8, 5)
        for i in range(8):
            one = map_loss(*(v[i:i + 1] for v in rows))
            for field in res.__dataclass_fields__:
                assert np.array_equal(getattr(res, field)[i], getattr(one, field)[0])

    def test_stacked_nets_match_each_slice_bitwise(self):
        # K nets' parameters on one batch: every sum runs over the labels, not the rows
        rng = np.random.default_rng(18)
        k, b, c = 3, 5, 4
        lam, alpha, beta = (rng.uniform(0.5, 4.0, size=(k, b, c)) for _ in range(3))
        _, _, _, mask, *hats = random_rows(rng, b=b, c=c)
        d_theta = rng.normal(size=(k, b, c))
        res = map_loss(lam, alpha, beta, mask, *hats)
        assert res.d_lambda.shape == (k, b, c)
        stacked_chains = (chain_to_lambda(d_theta, lam, mask),
                          *chain_to_alpha_beta(d_theta, alpha, beta, mask))
        for i in range(k):
            one = map_loss(lam[i], alpha[i], beta[i], mask, *hats)
            for field in res.__dataclass_fields__:
                assert np.array_equal(getattr(res, field)[i], getattr(one, field))
            one_chains = (chain_to_lambda(d_theta[i], lam[i], mask),
                          *chain_to_alpha_beta(d_theta[i], alpha[i], beta[i], mask))
            for whole, part in zip(stacked_chains, one_chains):
                assert np.array_equal(whole[i], part)

    def test_prior_shifts_value_but_returns_no_prior_gradient(self):
        rng = np.random.default_rng(7)
        lam, alpha, beta, mask, lam_hat, a_hat, b_hat = rows = random_rows(rng, c=4)
        res = map_loss(*rows)
        res2 = map_loss(lam, alpha, beta, mask, lam_hat + 0.25, a_hat, b_hat)
        assert res2.value[0] != res.value[0]
        # gradient fields cover exactly the live parameters, nothing else
        assert {f for f in res.__dataclass_fields__ if f.startswith("d_")} == {
            "d_lambda", "d_alpha", "d_beta"}

    def test_nonpositive_prior_rejected(self):
        rows = list(random_rows(np.random.default_rng(17), c=3))
        rows[5] = rows[5] * 0.0
        with pytest.raises(ValueError, match="alpha_hat"):
            map_loss(*rows)

    def test_live_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            rows = random_rows(rng, b=3, c=5)
            res = map_loss(*rows)
            # each row's value depends on that row's parameters only
            for k, grad in enumerate((res.d_lambda, res.d_alpha, res.d_beta)):
                for r, i in np.ndindex(3, 5):
                    e = np.zeros((3, 5))
                    e[r, i] = h

                    def value_at(shift):
                        moved = list(rows)
                        moved[k] = rows[k] + shift
                        return map_loss(*moved).value.sum()

                    assert grad[r, i] == pytest.approx(
                        (value_at(e) - value_at(-e)) / (2 * h), rel=1e-5, abs=1e-7)


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

    def _bound_ready_rows(self, rng, b=1, c=None):
        # live lambda in [1, 9] keeps the pre-clamp weights inside [0, 10]
        lam, alpha, beta, mask, *_ = random_rows(rng, b=b, c=c, lam_range=(1.0, 9.0))
        return lam, alpha, beta, mask, lam, alpha, beta

    def test_bound_dominates_loss(self):
        rng = np.random.default_rng(10)
        rho = 10.0
        for _ in range(1000):
            rows = self._bound_ready_rows(rng)
            bound = bound_of(rows, rho)
            assert np.all(bound.weights_preclamp >= 0.0)
            assert np.all(bound.weights_preclamp <= rho)
            assert map_loss(*rows).value[0] <= bound.value[0] + 1e-9

    def test_singleton_ml_component_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = int(rng.integers(2, 9))
            lam = rng.uniform(1.0, 9.0, size=(1, c))
            alpha = rng.uniform(1.0, 9.0, size=(1, c))
            beta = rng.uniform(1.0, 9.0, size=(1, c))
            mask = occurrence_vector((int(rng.integers(c)),), c)[None]
            rows = (lam, alpha, beta, mask, lam, alpha, beta)
            gap = bound_of(rows, 10.0).value[0] - map_loss(*rows).value[0]
            assert abs(gap) <= 1e-12

    def test_clamp_at_rho_only_in_bound(self):
        rng = np.random.default_rng(12)
        rows = self._bound_ready_rows(rng, c=5)
        bound = bound_of(rows, 2.0)
        assert np.all(bound.weights <= 2.0)
        # the clamp is active here, and it changes the bound's value
        assert np.any(bound.weights_preclamp > 2.0)
        unclamped = float(bound.weights_preclamp.max()) + 1.0
        assert bound_of(rows, unclamped).value[0] != bound.value[0]

    def test_degenerate_theta_keeps_bound_finite(self):
        lam = np.array([[1.0 + 1e-8, 8.9, 1.0 + 1e-8, 1.0 + 1e-8]])
        alpha = np.full((1, 4), 5.0)
        beta = np.full((1, 4), 5.0)
        mask = occurrence_vector((1,), 4)[None]
        bound = bound_of((lam, alpha, beta, mask), 10.0)
        assert np.isfinite(bound.value[0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        rho = 10.0
        rows = self._bound_ready_rows(rng, b=16, c=6)
        batch = bound_of(rows, rho)
        theta, z = posterior_means(*rows)
        for i in range(16):
            expected = brute_force_bound(theta[i], z[i], *(v[i] for v in rows[:4]), rho)
            assert batch.value[i] == pytest.approx(expected, rel=1e-12)
            one = bound_of(tuple(v[i:i + 1] for v in rows), rho)
            assert one.value[0] == pytest.approx(expected, rel=1e-12)

    def test_accepts_lists(self):
        rows = self._bound_ready_rows(np.random.default_rng(18), b=3, c=4)
        args = (*posterior_means(*rows), *rows[:4])
        as_lists = map_upper_bound_batch(*(v.tolist() for v in args), 10.0)
        assert np.array_equal(as_lists.value, map_upper_bound_batch(*args, 10.0).value)

    def test_rho_validation(self):
        rows = self._bound_ready_rows(np.random.default_rng(19), c=3)
        for rho in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="rho"):
                bound_of(rows, rho)


class TestLossCeiling:
    def test_map_loss_below_sup_constant(self):
        rng = np.random.default_rng(14)
        cfg = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        clamp, c = 3.0, 5
        lo, hi = lambda_range(cfg, clamp)
        ceiling = loss_sup(cfg, clamp, c)
        rows = []
        for _ in range(2000):
            lam = rng.uniform(lo, hi, size=c)
            alpha = rng.uniform(lo, hi, size=c)
            beta = rng.uniform(lo, hi, size=c)
            size = int(rng.integers(1, c))
            mask = occurrence_vector(rng.choice(c, size=size, replace=False), c)
            rows.append((lam, alpha, beta, mask, lam, alpha, beta))
        assert np.all(map_loss(*(np.stack(v) for v in zip(*rows))).value <= ceiling)


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
