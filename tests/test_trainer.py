"""Prior cache mixing rules, the alternating training loop, and prediction."""

import tracemalloc
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import idgp.trainer as trainer_mod
from idgp import distributions
from idgp.data import PLLDataset
from idgp.distributions import (
    Z_EPS,
    beta_posterior_mean,
    clamp_z,
    dirichlet_posterior_mean,
    floor_params,
)
from idgp.errors import DataInvariantError, NumericError
from idgp.evaluation import SplitSpec, accuracy, predict_batch, split
from idgp.generation import corrupt_uniform, make_clean_dataset
from idgp.network import (
    DenseNet,
    TransformConfig,
    lambda_transform,
    lambda_transform_grad,
    lambda_transform_pair,
    sgd_step,
)
from idgp.objective import (
    chain_to_alpha_beta,
    chain_to_lambda,
    map_upper_bound_batch,
    ml_loss_batch,
    reg_loss_batch,
)
from idgp.rng import substream
from idgp.trainer import (
    PriorCache,
    TrainConfig,
    fit,
    init_state,
    train_epoch,
)


def toy_dataset(seed=0, n_per=25, c=3, p=0.4):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(c, 2))
    X = np.vstack([ctr + rng.normal(0, 0.7, (n_per, 2)) for ctr in centers])
    y = np.repeat(np.arange(c), n_per)
    perm = rng.permutation(len(y))
    clean = make_clean_dataset(X[perm], y[perm], c)
    corrupted, _ = corrupt_uniform(clean, p, seed)
    return corrupted


def small_config(**kw):
    base = dict(epochs=3, batch_size=16, lr_f=1e-2, lr_g=1e-2, hidden=8,
                r=2, q=2, m=0.5, d=0.5, seed=0, clamp=3.0, b=1.0,
                val_fraction=0.0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_d_equal_one_rejected(self):
        with pytest.raises(ValueError, match="d must lie"):
            small_config(d=1.0)

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            small_config(m=0.0)

    def test_r_must_not_exceed_epochs(self):
        with pytest.raises(ValueError, match="must not exceed epochs"):
            small_config(epochs=3, r=5)

    def test_epochs_zero_skips_r_bound(self):
        cfg = small_config(epochs=0, r=5, q=5)
        assert cfg.epochs == 0

    def test_batch_size(self):
        with pytest.raises(ValueError):
            small_config(batch_size=0)

    def test_overflowing_transform_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            small_config(gamma=0.01, clamp=20.0)

    def test_transform_config_is_built_once_and_is_not_a_field(self):
        cfg = small_config(a=2.0)
        assert cfg.transform_config is cfg.transform_config
        assert cfg.transform_config == TransformConfig(a=2.0, b=1.0, gamma=1.0)
        assert set(asdict(cfg)) == {f.name for f in fields(TrainConfig)}
        assert cfg == small_config(a=2.0) and hash(cfg) == hash(small_config(a=2.0))
        assert replace(cfg, gamma=2.0).transform_config.gamma == 2.0


class TestPriorCacheRules:
    def _cache(self, ds, **kw):
        return PriorCache.initialize(ds, small_config(**kw))

    def test_lambda_mixing_hand_value(self):
        ds = toy_dataset()
        cache = self._cache(ds)
        cache.take_lambda_snapshot(np.full((ds.n, ds.c), 2.0))
        live = np.full(ds.c, 4.0)
        lam_hat = cache.lambda_hat_values(np.array([0]), live[None], t=2)[0]
        on_s = list(ds.candidates[0])
        assert np.all(lam_hat[on_s] == 0.5 * 2.0 + 0.5 * 4.0)  # = 3.0

    def test_off_candidate_entries_pinned(self):
        ds = toy_dataset()
        cache = self._cache(ds, epsilon=1e-3)
        live = np.full(ds.c, 7.0)
        for t in (1, 2, 3):
            lam_hat = cache.lambda_hat_values(np.array([0]), live[None], t)[0]
            off = [j for j in range(ds.c) if j not in ds.candidates[0]]
            assert np.all(lam_hat[off] == 1.0 + 1e-3)

    def test_before_r_identity_on_candidates(self):
        ds = toy_dataset()
        cache = self._cache(ds, r=2, q=2)
        live = np.linspace(1.0, 2.0, ds.c)
        lam_hat = cache.lambda_hat_values(np.array([0]), live[None], t=1)[0]
        on_s = list(ds.candidates[0])
        assert np.array_equal(lam_hat[on_s], live[on_s])  # bitwise

    def test_alpha_beta_mixing_hand_value(self):
        ds = toy_dataset()
        cache = self._cache(ds, d=0.9)
        cache.take_alpha_beta_snapshot(np.ones((ds.n, ds.c)),
                                       np.full((ds.n, ds.c), 3.0))
        a_hat, b_hat = cache.alpha_beta_hat_values(
            np.array([0]), np.full((1, ds.c), 11.0), np.full((1, ds.c), 13.0), t=2)
        assert np.allclose(a_hat, 2.0, rtol=1e-12)  # 0.9*1 + 0.1*11
        assert np.allclose(b_hat, 0.9 * 3.0 + 0.1 * 13.0, rtol=1e-12)

    def test_before_q_identity(self):
        ds = toy_dataset()
        cache = self._cache(ds)
        alpha = np.linspace(0.5, 1.5, ds.c)
        beta = np.linspace(2.0, 3.0, ds.c)
        a_hat, b_hat = cache.alpha_beta_hat_values(np.array([0]), alpha[None],
                                                   beta[None], t=1)
        assert np.array_equal(a_hat[0], alpha) and np.array_equal(b_hat[0], beta)

    def test_snapshots_taken_once(self):
        ds = toy_dataset()
        cache = self._cache(ds)
        cache.take_lambda_snapshot(np.ones((ds.n, ds.c)))
        with pytest.raises(RuntimeError):
            cache.take_lambda_snapshot(np.ones((ds.n, ds.c)))
        cache.take_alpha_beta_snapshot(np.ones((ds.n, ds.c)), np.ones((ds.n, ds.c)))
        with pytest.raises(RuntimeError):
            cache.take_alpha_beta_snapshot(np.ones((ds.n, ds.c)),
                                           np.ones((ds.n, ds.c)))

    def test_initial_lambda_hat_off_candidate_fill(self):
        ds = toy_dataset()
        cfg = small_config(epsilon=0.01)
        cache = PriorCache.initialize(ds, cfg)
        assert np.all(cache.lambda_hat == 1.01)


class TestInstrumentedPriorContract:
    """Eq.-style mixing verified bitwise against hook records of a real run."""

    def test_pre_and_post_snapshot_behaviour(self):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=4, r=2, q=3, m=0.3, d=0.7, batch_size=16)
        # replay once to harvest the snapshots the trainer takes; fit() with
        # the same config is stream-for-stream identical
        state = init_state(cfg, ds)
        snaps = {}
        for t in range(1, cfg.epochs + 1):
            train_epoch(state, t)
            if t == cfg.r:
                snaps["lam"] = state.cache.lambda_snapshot.copy()
            if t == cfg.q:
                snaps["a"] = state.cache.alpha_snapshot.copy()
                snaps["b"] = state.cache.beta_snapshot.copy()
        records = []
        fit(cfg, ds, batch_hook=records.append)
        mask_all = ds.occurrence_matrix()
        assert any(rec["epoch"] > cfg.q for rec in records)
        for rec in records:
            idx = rec["indices"]
            mask = mask_all[idx]
            t = rec["epoch"]
            if t <= cfg.r:  # within epoch r the snapshot does not exist yet
                lam_expected = np.where(mask > 0, rec["live_lambda"],
                                        1.0 + cfg.epsilon)
            else:
                lam_expected = np.where(
                    mask > 0,
                    cfg.m * snaps["lam"][idx] + (1 - cfg.m) * rec["live_lambda"],
                    1.0 + cfg.epsilon)
            assert np.array_equal(rec["lambda_hat"], lam_expected)
            if t <= cfg.q:
                assert np.array_equal(rec["alpha_hat"], rec["live_alpha"])
                assert np.array_equal(rec["beta_hat"], rec["live_beta"])
            else:
                assert np.array_equal(
                    rec["alpha_hat"],
                    cfg.d * snaps["a"][idx] + (1 - cfg.d) * rec["live_alpha"])
                assert np.array_equal(
                    rec["beta_hat"],
                    cfg.d * snaps["b"][idx] + (1 - cfg.d) * rec["live_beta"])

    def test_snapshots_never_change_after_taking(self):
        ds = toy_dataset(n_per=15)
        cfg = small_config(epochs=5, r=2, q=2)
        state = init_state(cfg, ds)
        frozen = {}
        for t in range(1, cfg.epochs + 1):
            train_epoch(state, t)
            if t == cfg.r:
                frozen["lam"] = state.cache.lambda_snapshot.copy()
                frozen["a"] = state.cache.alpha_snapshot.copy()
                frozen["b"] = state.cache.beta_snapshot.copy()
        assert np.array_equal(state.cache.lambda_snapshot, frozen["lam"])
        assert np.array_equal(state.cache.alpha_snapshot, frozen["a"])
        assert np.array_equal(state.cache.beta_snapshot, frozen["b"])


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _count_calls(monkeypatch, owner, *names):
    """Replace each named attribute of ``owner`` by a spy; returns the live call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


class TestSnapshotMemory:
    """Every forward's activation dies at its last use; snapshots are kept as built."""

    def test_snapshot_epoch_peak_budget(self):
        # the wide-fit shapes, with both snapshots taken at the end of epoch 1
        n, q, c, hidden = 4000, 128, 50, 256
        rng = np.random.default_rng(31)
        y = rng.integers(0, c, n)
        X = rng.normal(size=(c, q))[y] + rng.normal(size=(n, q))
        ds, _ = corrupt_uniform(make_clean_dataset(X, y, c), 0.1, 31)
        cfg = small_config(epochs=1, batch_size=256, hidden=hidden, r=1, q=1)
        state = init_state(cfg, ds)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_epoch(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one activation, g's scores and the three snapshots
        assert peak - base <= 1.05 * 8 * (n * hidden + n * 2 * c + 3 * n * c)

    def test_no_activation_outlives_its_last_use(self, monkeypatch):
        ds = toy_dataset(n_per=30)
        cfg = small_config(epochs=1, batch_size=32, r=1, q=1)
        state = init_state(cfg, ds)
        refs, segments = [], [[]]  # one segment per batch, then the snapshots
        real_forward = DenseNet.forward

        def forward(net, x):
            # which earlier forwards' hidden activations are still alive
            segments[-1].append([i for i, ref in enumerate(refs) if ref() is not None])
            scores, cache = real_forward(net, x)
            refs.append(weakref.ref(cache["inputs"][1]))
            return scores, cache

        monkeypatch.setattr(DenseNet, "forward", forward)
        train_epoch(state, 1, batch_hook=lambda rec: segments.append([]))
        *batches, snapshot = segments
        assert len(batches) == 3
        first = 0
        for alive in batches:
            # f and g at batch start, then g after its update: f's batch-start
            # activation lives through both g forwards, g's first one dies
            # with its sub-step
            assert alive == [[], [first], [first]]
            first += len(alive)
        # the f and g snapshot forwards each start with nothing else alive
        assert snapshot == [[], []]

    def test_snapshots_equal_a_fresh_full_forward(self):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=2, r=2, q=1)
        state = init_state(cfg, ds)
        tc = cfg.transform_config
        train_epoch(state, 1)
        alpha, beta = lambda_transform_pair(state.g.forward(ds.features)[0], tc)
        assert np.array_equal(_bits(state.cache.alpha_snapshot), _bits(floor_params(alpha)))
        assert np.array_equal(_bits(state.cache.beta_snapshot), _bits(floor_params(beta)))
        assert state.cache.lambda_snapshot is None
        train_epoch(state, 2)
        lam = floor_params(lambda_transform(state.f.forward(ds.features)[0], tc))
        assert np.array_equal(_bits(state.cache.lambda_snapshot), _bits(lam))


PRIOR_KEYS = ("live_lambda", "live_alpha", "live_beta", "lambda_hat", "alpha_hat", "beta_hat")


def _six_forward_batch(state, t, idx):
    """A batch as six forwards: f and g at batch start, then f and g again in each sub-step."""
    cfg = state.config
    tc = cfg.transform_config
    X, O = state.dataset.features[idx], state.cache.mask[idx]
    lam0 = floor_params(lambda_transform(state.f.forward(X)[0], tc))
    alpha0, beta0 = map(floor_params, lambda_transform_pair(state.g.forward(X)[0], tc))
    hats = state.cache.refresh(idx, lam0, alpha0, beta0, t)

    def sub_step():
        sf, cache_f = state.f.forward(X)
        sg, cache_g = state.g.forward(X)
        lam = floor_params(lambda_transform(sf, tc))
        alpha, beta = map(floor_params, lambda_transform_pair(sg, tc))
        theta = dirichlet_posterior_mean(lam, O)
        z_raw = beta_posterior_mean(alpha, beta, O)
        z = clamp_z(z_raw)
        ml_v, d_theta, d_z = ml_loss_batch(theta, z, O)
        if cfg.ml_only:
            values, reg_v = ml_v, np.zeros_like(ml_v)
        else:
            reg_v, reg_dt, reg_dz = reg_loss_batch(theta, z, *hats)
            values, d_theta, d_z = ml_v + reg_v, d_theta + reg_dt, d_z + reg_dz
        d_lam = chain_to_lambda(d_theta / len(X), lam, O)
        grad_f = state.f.backward(cache_f, d_lam * lambda_transform_grad(sf, tc))
        d_zc = np.where((z_raw > Z_EPS) & (z_raw < 1.0 - Z_EPS), d_z, 0.0) / len(X)
        d_ab = np.concatenate(chain_to_alpha_beta(d_zc, alpha, beta, O), axis=1)
        grad_g = state.g.backward(cache_g, d_ab * lambda_transform_grad(sg, tc))
        bounds = map_upper_bound_batch(theta, z, lam, alpha, beta, O, cfg.rho).value
        return (values, ml_v, reg_v, bounds), grad_f, grad_g

    sgd_step(state.opt_g, state.g, sub_step()[2], cfg.weight_decay)
    outputs, grad_f, _ = sub_step()
    sgd_step(state.opt_f, state.f, grad_f, cfg.weight_decay)
    return (*outputs, dict(zip(PRIOR_KEYS, (lam0, alpha0, beta0, *hats))))


class TestThreeForwards:
    """Each batch runs f once and g twice, bit for bit the six-forward batch."""

    @pytest.mark.parametrize("ml_only", [False, True])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])  # before r, at r, between r and q, after q
    def test_batches_equal_the_six_forward_batch(self, t, ml_only):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=4, r=2, q=3, ml_only=ml_only)
        state, ref = init_state(cfg, ds), init_state(cfg, ds)
        for s in range(1, t):
            train_epoch(state, s)
            train_epoch(ref, s)
        order = substream(cfg.seed, "shuffle", t).permutation(ds.n)
        for start in range(0, ds.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            *got, got_priors = trainer_mod._train_batch(state, t, idx, bound=True)
            *want, want_priors = _six_forward_batch(ref, t, idx)
            for a, b in zip(got, want):  # values, ml and reg parts, bounds
                assert np.array_equal(_bits(a), _bits(b))
            assert list(got_priors) == list(PRIOR_KEYS)
            for key in PRIOR_KEYS:
                assert np.array_equal(_bits(got_priors[key]), _bits(want_priors[key])), key
            for a, b in ((state.f.flat, ref.f.flat), (state.g.flat, ref.g.flat),
                         (state.opt_f.velocity, ref.opt_f.velocity),
                         (state.opt_g.velocity, ref.opt_g.velocity)):
                assert np.array_equal(_bits(a), _bits(b))

    def test_call_counts_per_batch(self, monkeypatch):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=3, r=1, q=2)
        state = init_state(cfg, ds)
        forwards = _count_calls(monkeypatch, DenseNet, "forward")
        calls = _count_calls(monkeypatch, trainer_mod, "_dirichlet_mean", "_beta_mean",
                             "_z_logs", "_ml_softmax", "_map_d_z", "_map_values",
                             "_upper_bound")
        logs = _count_calls(monkeypatch, np, "log", "log1p", "exp")
        checks = _count_calls(monkeypatch, distributions, "_require_positive")
        batches = -(-ds.n // cfg.batch_size)
        # running totals; one snapshot forward at r=1 (lambda), one at q=2 (alpha/beta)
        for t, snapshots in ((1, 1), (2, 2), (3, 2)):
            train_epoch(state, t)
            assert forwards == {"forward": 3 * batches * t + snapshots}
            # theta once per batch, z and its logs once per forward of g, the
            # likelihood weights once per sub-step, d/dz in sub-step 1 only,
            # the values in sub-step 2 only, and one bound per epoch, on its
            # first batch
            assert calls == {"_dirichlet_mean": batches * t,
                             "_beta_mean": 2 * batches * t,
                             "_z_logs": 2 * batches * t, "_ml_softmax": 2 * batches * t,
                             "_map_d_z": batches * t, "_map_values": batches * t,
                             "_upper_bound": t}
            # per batch log theta, log z twice and log of the row total, and
            # the bound's log |S| once per epoch; log(1 - z) twice per batch;
            # exp(s / gamma) once per forward (its derivative reuses it) and
            # the likelihood's softmax once per sub-step
            assert logs == {"log": 4 * batches * t + t, "log1p": 2 * batches * t,
                            "exp": 5 * batches * t + snapshots}
            # lam, alpha and beta are floored transforms of clamped finite
            # scores, so no batch re-checks them
            assert checks == {"_require_positive": 0}


def _epoch_batches(cfg, n, t):
    order = substream(cfg.seed, "shuffle", t).permutation(n)
    return [order[start:start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]


def _state_before(cfg, ds, t):
    """A fresh state trained through epoch t - 1, bit for bit the state of a fit then."""
    state = init_state(cfg, ds)
    for s in range(1, t):
        train_epoch(state, s)
    return state


def _gap(values, bounds):
    """A batch's gap as ``train_epoch`` reads it: mean bound minus mean loss."""
    return float(bounds.sum()) / len(values) - float(values.sum()) / len(values)


class TestBoundGap:
    """``bound_gap`` is the gap of each epoch's first batch, and the bound trains nothing."""

    @pytest.mark.parametrize("ml_only", [False, True])
    def test_gap_is_the_first_batch_gap(self, ml_only):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=4, r=2, q=3, ml_only=ml_only)
        assert len(_epoch_batches(cfg, ds.n, 1)) == 4
        state = init_state(cfg, ds)
        for t in range(1, cfg.epochs + 1):
            # the epoch's first batch, rebuilt by the six-forward reference on a twin
            twin = _state_before(cfg, ds, t)
            values, _, _, bounds, _ = _six_forward_batch(twin, t, _epoch_batches(cfg, ds.n, t)[0])
            assert train_epoch(state, t)["bound_gap"].hex() == _gap(values, bounds).hex()

    def test_one_batch_epoch_gap_is_the_all_batch_mean(self):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=4, r=2, q=3, batch_size=ds.n)
        state = init_state(cfg, ds)
        for t in range(1, cfg.epochs + 1):
            # the gap as a mean over every batch of the epoch, replayed on a twin
            twin = _state_before(cfg, ds, t)
            gaps = [_gap(values, bounds) for values, _, _, bounds, _ in
                    (trainer_mod._train_batch(twin, t, idx, bound=True)
                     for idx in _epoch_batches(cfg, ds.n, t))]
            assert len(gaps) == 1
            assert train_epoch(state, t)["bound_gap"].hex() == float(np.mean(gaps)).hex()

    @pytest.mark.parametrize("ml_only", [False, True])
    def test_bound_trains_nothing(self, monkeypatch, ml_only):
        ds = toy_dataset(n_per=20)
        cfg = small_config(epochs=4, r=2, q=3, ml_only=ml_only, val_fraction=0.2)
        f1, g1, h1 = fit(cfg, ds)
        real = trainer_mod._upper_bound

        def nan_bound(*args):
            bound = real(*args)
            return replace(bound, value=np.full_like(bound.value, np.nan))

        monkeypatch.setattr(trainer_mod, "_upper_bound", nan_bound)
        f2, g2, h2 = fit(cfg, ds)
        assert np.array_equal(_bits(f1.get_flat()), _bits(f2.get_flat()))
        assert np.array_equal(_bits(g1.get_flat()), _bits(g2.get_flat()))
        assert len(h1) == len(h2) == cfg.epochs
        for a, b in zip(h1, h2):
            assert np.isnan(b.pop("bound_gap")) and np.isfinite(a.pop("bound_gap"))
            assert a == b and a["val_acc"] is not None


class TestTrainingLoop:
    def test_deterministic_replay(self):
        ds = toy_dataset()
        cfg = small_config(epochs=4)
        f1, g1, h1 = fit(cfg, ds)
        f2, g2, h2 = fit(cfg, ds)
        assert h1 == h2
        assert np.array_equal(f1.get_flat(), f2.get_flat())
        assert np.array_equal(g1.get_flat(), g2.get_flat())

    def test_different_seeds_differ(self):
        ds = toy_dataset()
        h1 = fit(small_config(epochs=2, seed=1), ds)[2]
        h2 = fit(small_config(epochs=2, seed=2), ds)[2]
        assert h1 != h2

    def test_epochs_zero_returns_initial_nets(self):
        ds = toy_dataset()
        cfg = small_config(epochs=0)
        f, g, history = fit(cfg, ds)
        assert history == []
        fresh = init_state(cfg, ds)
        assert np.array_equal(f.get_flat(), fresh.f.get_flat())
        assert np.array_equal(g.get_flat(), fresh.g.get_flat())

    def test_ml_only_ignores_prior_constants(self):
        ds = toy_dataset()
        h1 = fit(small_config(epochs=3, ml_only=True, epsilon=1e-3, m=0.2, d=0.2), ds)[2]
        h2 = fit(small_config(epochs=3, ml_only=True, epsilon=0.5, m=0.8, d=0.8), ds)[2]
        assert h1 == h2
        h3 = fit(small_config(epochs=3, ml_only=False, epsilon=0.5, m=0.8, d=0.8), ds)[2]
        assert h3 != h1

    def test_ml_only_history_has_zero_reg_loss(self):
        history = fit(small_config(epochs=2, ml_only=True, val_fraction=0.2),
                      toy_dataset())[2]
        for rec in history:
            assert rec["reg_loss"] == 0.0
            assert rec["ml_loss"] == rec["train_loss"]

    def test_alternating_steps_touch_one_net_each(self, monkeypatch):
        ds = toy_dataset(n_per=10)
        cfg = small_config(epochs=1, batch_size=30, r=1, q=1)
        touched = []
        real_step = trainer_mod.sgd_step
        holder = {}

        def spy(state, net, grads, weight_decay=0.0):
            other = holder["f"] if net is holder["g"] else holder["g"]
            other_before = other.get_flat()
            before = net.get_flat()
            real_step(state, net, grads, weight_decay)
            touched.append((id(net),
                            not np.array_equal(before, net.get_flat()),
                            np.array_equal(other_before, other.get_flat())))

        monkeypatch.setattr(trainer_mod, "sgd_step", spy)
        state = init_state(cfg, ds)
        holder["f"], holder["g"] = state.f, state.g
        train_epoch(state, 1)
        ids = [t[0] for t in touched]
        # strict alternation: g then f for each batch
        assert ids == [id(state.g), id(state.f)] * (len(ids) // 2)
        assert all(changed for _, changed, _ in touched)
        # fixing one network really fixes it: the partner is bitwise untouched
        assert all(other_fixed for _, _, other_fixed in touched)

    def test_each_chain_rule_runs_once_per_batch(self, monkeypatch):
        ds = toy_dataset(n_per=10)
        cfg = small_config(epochs=1, batch_size=8, r=1, q=1)
        calls = _count_calls(monkeypatch, trainer_mod, "_chain_lambda", "_chain_alpha_beta")
        train_epoch(init_state(cfg, ds), 1)
        batches = -(-ds.n // cfg.batch_size)
        assert calls == {"_chain_lambda": batches, "_chain_alpha_beta": batches}

    def test_nonfinite_loss_reports_location(self, monkeypatch):
        ds = toy_dataset(n_per=10)
        cfg = small_config(epochs=1, batch_size=30, r=1, q=1)
        real = trainer_mod.map_step_batch

        def poisoned(*args):
            step = real(*args)
            values = step.values.copy()
            values[2] = np.inf
            return step._replace(values=values)

        monkeypatch.setattr(trainer_mod, "map_step_batch", poisoned)
        state = init_state(cfg, ds)
        # Batch 0 of epoch 1 is the head of that epoch's shuffle; its row 2 is
        # the poisoned one, reported by its dataset index.
        bad = int(substream(cfg.seed, "shuffle", 1).permutation(ds.n)[2])
        with pytest.raises(NumericError,
                           match=rf"epoch 1, batch 0, instance {bad}$"):
            train_epoch(state, 1)

    def test_nonfinite_weights_report_epoch_and_batch(self):
        ds = toy_dataset(n_per=10)
        state = init_state(small_config(epochs=1, batch_size=30, r=1, q=1), ds)
        state.f.weights[0][:] = np.nan
        with pytest.raises(NumericError, match=r"^epoch 1, batch 0: "):
            train_epoch(state, 1)

    def test_smoke_training_reduces_loss(self):
        ds = toy_dataset(seed=3, n_per=17, p=0.3)  # ~50 instances
        cfg = small_config(epochs=200, batch_size=64, r=5, q=5, lr_f=2e-2,
                           lr_g=2e-2)
        _, _, history = fit(cfg, ds)
        # train_loss holds a prior that moves with the fit and can rise while
        # it improves; the ML term alone is the progress signal
        assert history[-1]["ml_loss"] < history[0]["ml_loss"]

    def test_history_record_shape(self):
        ds = toy_dataset()
        cfg = small_config(epochs=2, val_fraction=0.2)
        _, _, history = fit(cfg, ds)
        assert len(history) == 2
        for i, rec in enumerate(history):
            assert rec["epoch"] == i + 1
            assert set(rec) == {"epoch", "train_loss", "ml_loss", "reg_loss",
                                "bound_gap", "val_acc"}
            assert rec["ml_loss"] + rec["reg_loss"] == pytest.approx(
                rec["train_loss"], rel=1e-12)
            assert 0.0 <= rec["val_acc"] <= 1.0

    def test_val_acc_none_without_labels(self):
        ds = toy_dataset()
        unlabeled = PLLDataset(features=ds.features, mask=ds.mask,
                               c=ds.c, true_labels=None)
        _, _, history = fit(small_config(epochs=1, r=1, q=1, val_fraction=0.2),
                            unlabeled)
        assert history[0]["val_acc"] is None

    def test_val_acc_is_evaluation_accuracy(self):
        ds = toy_dataset()
        cfg = small_config(epochs=2)
        train, val = ds.subset(np.arange(60)), ds.subset(np.arange(60, ds.n))
        f, _, history = fit(cfg, train, val_dataset=val)
        assert history[-1]["val_acc"] == accuracy(f, val, cfg.transform_config)

    def test_val_fraction_holds_out_the_split_val_part(self):
        # fit's hold-out is evaluation.split's: train rows first, val rows next
        ds = toy_dataset()
        cfg = small_config(epochs=3, seed=4, val_fraction=0.2)
        train, val, _ = split(ds, SplitSpec(0.8, 0.2, 0.0, cfg.seed))
        runs = []
        for args in ((ds,), (train, val)):
            records = []
            f, g, history = fit(cfg, *args, batch_hook=records.append)
            runs.append((f.get_flat(), g.get_flat(), history, records))
        (f1, g1, h1, r1), (f2, g2, h2, r2) = runs
        assert np.array_equal(_bits(f1), _bits(f2)) and np.array_equal(_bits(g1), _bits(g2))
        assert h1 == h2 and h1[-1]["val_acc"] is not None
        # the hook's indices index the training part
        assert all(np.array_equal(a["indices"], b["indices"]) for a, b in zip(r1, r2))
        assert len(r1) == len(r2) == cfg.epochs * -(-train.n // cfg.batch_size)

    def test_empty_hold_out_raises_naming_the_split(self):
        ds = toy_dataset().subset(np.arange(4))
        with pytest.raises(DataInvariantError, match=r"^val split is empty for n=4, fraction=0\.1$"):
            fit(small_config(epochs=1, r=1, q=1, val_fraction=0.1), ds)

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_init_state_net_shapes(self, hidden):
        ds = toy_dataset()
        state = init_state(small_config(hidden=hidden), ds)
        inner = [hidden] if hidden else []
        assert state.f.layer_sizes == (ds.q, *inner, ds.c)
        assert state.g.layer_sizes == (ds.q, *inner, 2 * ds.c)


class TestPredict:
    def _const_net(self, scores):
        cfg = small_config()
        ds = toy_dataset(c=len(scores))
        state = init_state(cfg, ds)
        net = state.f
        for W in net.weights:
            W[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        net.biases[-1][:] = scores
        return net

    def test_hand_value(self):
        net = self._const_net([1.0, 0.0, -1.0])
        tc = TransformConfig(a=1.0, b=0.0, gamma=1.0)
        labels, theta = predict_batch(net, np.array([[0.3, -0.2]]), tc)
        lam = np.exp(np.array([1.0, 0.0, -1.0]))
        assert labels.tolist() == [0]
        assert np.allclose(theta[0], lam / lam.sum(), rtol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        net = self._const_net([0.5, 0.5, 0.1])
        labels, _ = predict_batch(net, np.zeros((1, 2)), TransformConfig())
        assert labels.tolist() == [0]

    def test_argmax_invariant_to_transform(self):
        rng = np.random.default_rng(20)
        scores = rng.uniform(-3, 3, size=(2000, 6))
        raw_argmax = scores.argmax(axis=1)
        for tc in (TransformConfig(a=0.001, b=5.0, gamma=0.5),
                   TransformConfig(a=1000.0, b=0.0, gamma=3.0)):
            lam = tc.a * np.exp(scores / tc.gamma) + tc.b
            theta = lam / lam.sum(axis=1, keepdims=True)
            assert np.array_equal(theta.argmax(axis=1), raw_argmax)


