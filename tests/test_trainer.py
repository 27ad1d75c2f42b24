"""Prior cache mixing rules, the alternating training loop, and prediction."""

import numpy as np
import pytest

import idgp.trainer as trainer_mod
from idgp.data import PLLDataset
from idgp.errors import NumericError
from idgp.generation import corrupt_uniform, make_clean_dataset
from idgp.network import TransformConfig
from idgp.rng import substream
from idgp.trainer import (
    PriorCache,
    TrainConfig,
    fit,
    init_state,
    predict_batch,
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
        calls = {"chain_to_lambda": 0, "chain_to_alpha_beta": 0}

        def counting(name):
            real = getattr(trainer_mod, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)
            return spy

        for name in calls:
            monkeypatch.setattr(trainer_mod, name, counting(name))
        train_epoch(init_state(cfg, ds), 1)
        batches = -(-ds.n // cfg.batch_size)
        assert calls == {"chain_to_lambda": batches, "chain_to_alpha_beta": batches}

    def test_nonfinite_loss_reports_location(self, monkeypatch):
        ds = toy_dataset(n_per=10)
        cfg = small_config(epochs=1, batch_size=30, r=1, q=1)
        real = trainer_mod.ml_loss_batch

        def poisoned(theta, z, mask):
            values, d_t, d_z = real(theta, z, mask)
            values = values.copy()
            values[2] = np.inf
            return values, d_t, d_z

        monkeypatch.setattr(trainer_mod, "ml_loss_batch", poisoned)
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
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_history_record_shape(self):
        ds = toy_dataset()
        cfg = small_config(epochs=2, val_fraction=0.2)
        _, _, history = fit(cfg, ds)
        assert len(history) == 2
        for i, rec in enumerate(history):
            assert rec["epoch"] == i + 1
            assert set(rec) == {"epoch", "train_loss", "bound_gap", "val_acc"}
            assert 0.0 <= rec["val_acc"] <= 1.0

    def test_val_acc_none_without_labels(self):
        ds = toy_dataset()
        unlabeled = PLLDataset(features=ds.features, candidates=ds.candidates,
                               c=ds.c, true_labels=None)
        _, _, history = fit(small_config(epochs=1, r=1, q=1, val_fraction=0.2),
                            unlabeled)
        assert history[0]["val_acc"] is None


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


