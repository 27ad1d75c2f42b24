"""The public losses, chain rules and bound equal their textbook bodies bit for bit.

``objective`` builds these functions, and the trainer's batch, from one set
of shared private pieces.  Each ``textbook_*`` function below writes one of
them out as plain numpy expressions, in the order of evaluation that fixes
its bits.  On random (B, c) rows and (K, B, c) stacks the two must give the
same IEEE bits, so a piece cannot drift from the formula it stands for.
The unchecked pieces the trainer calls in place of a checked public
function (the posterior means with their terms, the Beta chain rule on
those terms, the transform's shared exp) must equal that function too.
"""

import numpy as np
import pytest

from idgp.distributions import (
    _beta_mean,
    _dirichlet_mean,
    beta_posterior_mean,
    dirichlet_posterior_mean,
    floor_params,
)
from idgp.network import (
    TransformConfig,
    _transform_exp,
    _transform_from_exp,
    _transform_grad,
    lambda_transform,
    lambda_transform_grad,
)
from idgp.objective import (
    _chain_alpha_beta,
    chain_to_alpha_beta,
    chain_to_lambda,
    map_loss,
    map_upper_bound_batch,
    ml_loss_batch,
    reg_loss_batch,
)
from idgp.trainer import _live_params


def textbook_ml(theta, z, mask):
    cand = mask > 0.0
    log_theta = np.log(theta)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    sum_log_z = (mask * log_z).sum(axis=-1, keepdims=True)
    sum_log_1mz = ((1.0 - mask) * log_1mz).sum(axis=-1, keepdims=True)
    log_terms = log_theta + sum_log_z - log_z + sum_log_1mz + log_1mz
    log_terms = np.where(cand, log_terms, -np.inf)
    shift = log_terms.max(axis=-1, keepdims=True)
    expd = np.exp(log_terms - shift)
    total = expd.sum(axis=-1, keepdims=True)
    values = -(shift + np.log(total))[..., 0]
    w = expd / total
    d_theta = np.where(cand, -w / theta, 0.0)
    d_z = np.where(cand, -(1.0 - w) / z + w / (1.0 - z), 1.0 / (1.0 - z))
    return values, d_theta, d_z


def textbook_reg(theta, z, lambda_hat, alpha_hat, beta_hat):
    lam_c, alp_c, bet_c = lambda_hat - 1.0, alpha_hat - 1.0, beta_hat - 1.0
    log_theta = np.log(theta)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    values = -(lam_c * log_theta + alp_c * log_z + bet_c * log_1mz).sum(axis=-1)
    return values, -lam_c / theta, -alp_c / z + bet_c / (1.0 - z)


def textbook_chain_lambda(d_theta, lam, mask):
    denom = (lam + mask).sum(axis=-1, keepdims=True)
    theta_hat = (mask + lam) / denom
    inner = (d_theta * theta_hat).sum(axis=-1, keepdims=True)
    return (d_theta - inner) / denom


def textbook_chain_alpha_beta(d_z, alpha, beta, mask):
    denom_sq = (alpha + beta + mask) ** 2
    return d_z * beta / denom_sq, d_z * (-(mask + alpha)) / denom_sq


def textbook_map(lam, alpha, beta, mask, lambda_hat, alpha_hat, beta_hat):
    theta = dirichlet_posterior_mean(lam, mask)
    z = beta_posterior_mean(alpha, beta, mask)
    ml_v, ml_dt, ml_dz = textbook_ml(theta, z, mask)
    reg_v, reg_dt, reg_dz = textbook_reg(theta, z, lambda_hat, alpha_hat, beta_hat)
    d_alpha, d_beta = textbook_chain_alpha_beta(ml_dz + reg_dz, alpha, beta, mask)
    return (ml_v + reg_v, ml_v, reg_v,
            textbook_chain_lambda(ml_dt + reg_dt, lam, mask), d_alpha, d_beta)


def textbook_bound(theta, z, lam, alpha, beta, mask, rho):
    sizes = mask.sum(axis=1, keepdims=True)
    log_z = np.log(z)
    log_1mz = np.log1p(-z)
    log_q = ((log_z * mask).sum(axis=1, keepdims=True) - log_z
             + (log_1mz * (1.0 - mask)).sum(axis=1, keepdims=True) + log_1mz)
    k_term = (np.log(sizes[:, 0])
              + (log_q * mask).sum(axis=1) / sizes[:, 0]
              + ((alpha - 1.0) * log_z + (beta - 1.0) * log_1mz).sum(axis=1))
    w_pre = np.where(mask > 0.0, lam - 1.0 + 1.0 / sizes, lam - 1.0)
    w = np.clip(w_pre, 0.0, rho)
    return -(k_term + (w * np.log(theta)).sum(axis=1)), w, w_pre


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(_bits(a), _bits(b))


def draw(seed, stack):
    """Random rows, with a leading K axis on the per-net arrays when ``stack``."""
    rng = np.random.default_rng(seed)
    b, c = int(rng.integers(1, 40)), int(rng.integers(2, 12))
    lead = (int(rng.integers(2, 5)),) if stack else ()
    mask = (rng.random((b, c)) < 0.4).astype(np.float64)
    mask[np.arange(b), rng.integers(0, c, b)] = 1.0  # every row has a candidate

    def per_net(lo, hi):
        return rng.uniform(lo, hi, size=lead + (b, c))

    hats = tuple(rng.uniform(0.2, 4.0, size=(b, c)) for _ in range(3))
    return dict(mask=mask, theta=per_net(0.01, 1.0), z=per_net(0.01, 0.99),
                lam=per_net(0.1, 5.0), alpha=per_net(0.1, 5.0), beta=per_net(0.1, 5.0),
                grad=rng.normal(size=lead + (b, c)), hats=hats)


SEEDS = range(6)


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
class TestTextbookBits:
    def test_ml_loss_batch(self, seed, stack):
        d = draw(seed, stack)
        assert_same_bits(ml_loss_batch(d["theta"], d["z"], d["mask"]),
                         textbook_ml(d["theta"], d["z"], d["mask"]))

    def test_reg_loss_batch(self, seed, stack):
        d = draw(seed, stack)
        assert_same_bits(reg_loss_batch(d["theta"], d["z"], *d["hats"]),
                         textbook_reg(d["theta"], d["z"], *d["hats"]))

    def test_chain_to_lambda(self, seed, stack):
        d = draw(seed, stack)
        assert_same_bits([chain_to_lambda(d["grad"], d["lam"], d["mask"])],
                         [textbook_chain_lambda(d["grad"], d["lam"], d["mask"])])

    def test_chain_to_alpha_beta(self, seed, stack):
        d = draw(seed, stack)
        args = (d["grad"], d["alpha"], d["beta"], d["mask"])
        assert_same_bits(chain_to_alpha_beta(*args), textbook_chain_alpha_beta(*args))

    def test_map_loss(self, seed, stack):
        d = draw(seed, stack)
        args = (d["lam"], d["alpha"], d["beta"], d["mask"], *d["hats"])
        res = map_loss(*args)
        assert_same_bits((res.value, res.ml_value, res.reg_value, res.d_lambda,
                          res.d_alpha, res.d_beta), textbook_map(*args))


@pytest.mark.parametrize("seed", SEEDS)
def test_map_upper_bound_batch(seed):
    d = draw(seed, False)  # the bound takes (B, c) rows only
    args = (d["theta"], d["z"], d["lam"], d["alpha"], d["beta"], d["mask"])
    for rho in (0.5, 10.0):  # weights clamped at rho, and mostly not
        res = map_upper_bound_batch(*args, rho)
        assert_same_bits((res.value, res.weights, res.weights_preclamp),
                         textbook_bound(*args, rho))


@pytest.mark.parametrize("stack", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
class TestTrainerPieceBits:
    def test_dirichlet_mean(self, seed, stack):
        d = draw(seed, stack)
        theta, denom = _dirichlet_mean(d["lam"], d["mask"])
        want = (d["lam"] + d["mask"]).sum(axis=-1, keepdims=True)
        assert_same_bits((theta, denom), ((d["mask"] + d["lam"]) / want, want))
        assert_same_bits((theta,), (dirichlet_posterior_mean(d["lam"], d["mask"]),))

    def test_beta_mean_and_its_terms(self, seed, stack):
        d = draw(seed, stack)
        alpha, beta, mask = d["alpha"], d["beta"], d["mask"]
        assert_same_bits(_beta_mean(alpha, beta, mask),
                         (beta_posterior_mean(alpha, beta, mask), mask + alpha,
                          alpha + beta + mask))

    def test_chain_alpha_beta_on_the_mean_terms(self, seed, stack):
        d = draw(seed, stack)
        alpha, beta, mask = d["alpha"], d["beta"], d["mask"]
        _, num, denom = _beta_mean(alpha, beta, mask)
        assert_same_bits(_chain_alpha_beta(d["grad"], beta, num, denom),
                         chain_to_alpha_beta(d["grad"], alpha, beta, mask))

    def test_transform_from_its_exp(self, seed, stack):
        d = draw(seed, stack)
        rng = np.random.default_rng(seed)
        tc = TransformConfig(a=rng.uniform(0.1, 3.0), b=rng.choice([0.0, 1.0]),
                             gamma=rng.uniform(0.5, 2.0))
        scores = 20.0 * d["grad"]  # some far enough below 0 that b = 0 hits the floor
        e = _transform_exp(scores, tc)
        kept = e.copy()
        assert_same_bits((_transform_grad(e, tc, None), _transform_from_exp(e, tc, None),
                          _live_params(e, tc), e),
                         (lambda_transform_grad(scores, tc), lambda_transform(scores, tc),
                          floor_params(lambda_transform(scores, tc)), kept))
