"""Alternating two-network training loop with iteratively refined priors.

Each minibatch step runs through the same sequence: forward both networks,
turn their outputs into posterior means, refresh the frozen prior constants
from the prior cache, then update the auxiliary network with the main one
fixed and the main network with the (just-updated) auxiliary fixed.  Each
of the two sub-steps recomputes its forward passes so the frozen partner
contributes its current values as constants.

The prior cache implements the epoch-indexed mixing rules: per instance,

    lambda_hat_j = m * lambda_j^(r) + (1 - m) * lambda_j^(t)   j in S, t >= r
    lambda_hat_j = lambda_j^(t)                                 j in S, t < r
    lambda_hat_j = 1 + epsilon                                  j not in S

and analogously alpha_hat/beta_hat mix epoch-q snapshots with weight d
(identity before q, all labels).  Snapshots are taken from a full forward
pass at the end of epochs r and q and never change afterwards.  Within
epoch r itself the snapshot does not exist yet; mixing current values with
themselves would be the identity, which is exactly what the fallback does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import PLLDataset
from .distributions import (
    Z_EPS,
    beta_posterior_mean,
    clamp_z,
    dirichlet_posterior_mean,
    floor_params,
)
from .errors import NumericError
from .network import (
    ACTIVATIONS,
    DenseNet,
    SGDState,
    TransformConfig,
    lambda_transform,
    lambda_transform_grad,
    lambda_transform_pair,
    sgd_step,
    validate_transform_clamp,
)
from .objective import (
    chain_to_alpha_beta,
    chain_to_lambda,
    map_upper_bound_batch,
    ml_loss_batch,
    reg_loss_batch,
)
from .rng import substream

@dataclass(frozen=True)
class TrainConfig:
    """Every knob the training procedure exposes."""

    epochs: int = 200
    batch_size: int = 256
    lr_f: float = 1e-2
    lr_g: float = 1e-2
    momentum_f: float = 0.9
    momentum_g: float = 0.9
    weight_decay: float = 0.0
    a: float = 1.0
    b: float = 0.0
    gamma: float = 1.0
    clamp: float = 20.0
    m: float = 0.5
    d: float = 0.5
    r: int = 5
    q: int = 5
    epsilon: float = 1e-3
    rho: float = 10.0
    hidden: int = 64
    activation: str = "relu"
    seed: int = 0
    ml_only: bool = False
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        for name in ("lr_f", "lr_g", "epsilon", "rho"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and strictly positive")
        for name in ("momentum_f", "momentum_g"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        if not (0.0 <= self.weight_decay < np.inf):
            raise ValueError("weight_decay must be finite and nonnegative")
        for name in ("m", "d"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        for name in ("r", "q"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
            if self.epochs >= 1 and getattr(self, name) > self.epochs:
                raise ValueError(f"{name} must not exceed epochs")
        if self.hidden < 0:
            raise ValueError("hidden width must be nonnegative (0 means linear)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        validate_transform_clamp(self.transform_config, self.clamp)

    @property
    def transform_config(self) -> TransformConfig:
        return TransformConfig(a=self.a, b=self.b, gamma=self.gamma)


@dataclass
class PriorCache:
    """Per-instance prior constants plus the epoch-r/q snapshots."""

    lambda_hat: np.ndarray
    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    mask: np.ndarray
    config: TrainConfig  # epsilon, m, d, r and q of the mixing rules
    lambda_snapshot: Optional[np.ndarray] = None
    alpha_snapshot: Optional[np.ndarray] = None
    beta_snapshot: Optional[np.ndarray] = None

    @classmethod
    def initialize(cls, dataset: PLLDataset, config: TrainConfig) -> "PriorCache":
        n, c = dataset.n, dataset.c
        return cls(
            lambda_hat=np.full((n, c), 1.0 + config.epsilon),
            alpha_hat=np.ones((n, c)),
            beta_hat=np.ones((n, c)),
            mask=dataset.occurrence_matrix(),
            config=config,
        )

    def lambda_hat_values(self, idx: np.ndarray, live_lam: np.ndarray,
                          t: int) -> np.ndarray:
        """Frozen lambda constants for the given rows at epoch t."""
        cfg = self.config
        if t >= cfg.r and self.lambda_snapshot is not None:
            mixed = cfg.m * self.lambda_snapshot[idx] + (1.0 - cfg.m) * live_lam
        else:
            mixed = live_lam
        return np.where(self.mask[idx] > 0.0, mixed, 1.0 + cfg.epsilon)

    def alpha_beta_hat_values(self, idx, live_alpha, live_beta, t: int):
        d = self.config.d
        if t >= self.config.q and self.alpha_snapshot is not None:
            a_hat = d * self.alpha_snapshot[idx] + (1.0 - d) * live_alpha
            b_hat = d * self.beta_snapshot[idx] + (1.0 - d) * live_beta
            return a_hat, b_hat
        return live_alpha.copy(), live_beta.copy()

    def refresh(self, idx, live_lam, live_alpha, live_beta, t: int):
        """Compute, store and return the prior constants for a batch."""
        lam_hat = self.lambda_hat_values(idx, live_lam, t)
        a_hat, b_hat = self.alpha_beta_hat_values(idx, live_alpha, live_beta, t)
        self.lambda_hat[idx] = lam_hat
        self.alpha_hat[idx] = a_hat
        self.beta_hat[idx] = b_hat
        return lam_hat, a_hat, b_hat

    def take_lambda_snapshot(self, lam: np.ndarray) -> None:
        if self.lambda_snapshot is not None:
            raise RuntimeError("lambda snapshot already taken")
        self.lambda_snapshot = lam.copy()

    def take_alpha_beta_snapshot(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        if self.alpha_snapshot is not None:
            raise RuntimeError("alpha/beta snapshot already taken")
        self.alpha_snapshot = alpha.copy()
        self.beta_snapshot = beta.copy()


@dataclass
class TrainerState:
    config: TrainConfig
    f: DenseNet
    g: DenseNet
    opt_f: SGDState
    opt_g: SGDState
    cache: PriorCache
    dataset: PLLDataset


def init_state(config: TrainConfig, dataset: PLLDataset) -> TrainerState:
    sizes_f = ([dataset.q, dataset.c] if config.hidden == 0
               else [dataset.q, config.hidden, dataset.c])
    sizes_g = ([dataset.q, 2 * dataset.c] if config.hidden == 0
               else [dataset.q, config.hidden, 2 * dataset.c])
    f = DenseNet(sizes_f, activation=config.activation, clamp=config.clamp,
                 rng=substream(config.seed, "init", 0))
    g = DenseNet(sizes_g, activation=config.activation, clamp=config.clamp,
                 rng=substream(config.seed, "init", 1))
    return TrainerState(
        config=config,
        f=f,
        g=g,
        opt_f=SGDState(lr=config.lr_f, momentum=config.momentum_f),
        opt_g=SGDState(lr=config.lr_g, momentum=config.momentum_g),
        cache=PriorCache.initialize(dataset, config),
        dataset=dataset,
    )


def _live_lambda(net: DenseNet, X: np.ndarray, tc: TransformConfig):
    scores, cache = net.forward(X)
    return floor_params(lambda_transform(scores, tc)), scores, cache


def _live_alpha_beta(net: DenseNet, X: np.ndarray, tc: TransformConfig):
    scores, cache = net.forward(X)
    alpha, beta = lambda_transform_pair(scores, tc)
    return floor_params(alpha), floor_params(beta), scores, cache


def map_step_batch(f: DenseNet, g: DenseNet, X: np.ndarray, tc: TransformConfig,
                   mask, lam_hat, a_hat, b_hat, ml_only: bool):
    """Forward both nets on ``X`` and take the MAP loss of their posterior means.

    Returns ``(values, theta, z, lam, alpha, beta, grads_f, grads_g)`` with z
    clamped.  ``grads_f()``/``grads_g()`` give one net's parameter gradients of
    the batch-mean loss, running only that net's chain rule and backward;
    clamped z entries and the frozen hats get no gradient.
    """
    lam, sf, cache_f = _live_lambda(f, X, tc)
    alpha, beta, sg, cache_g = _live_alpha_beta(g, X, tc)
    theta = dirichlet_posterior_mean(lam, mask)
    z_raw = beta_posterior_mean(alpha, beta, mask)
    z = clamp_z(z_raw)
    values, d_theta, d_z = ml_loss_batch(theta, z, mask)
    if not ml_only:
        reg_v, reg_dt, reg_dz = reg_loss_batch(theta, z, lam_hat, a_hat, b_hat)
        values, d_theta, d_z = values + reg_v, d_theta + reg_dt, d_z + reg_dz

    def grads_f():
        d_lam = chain_to_lambda(d_theta / len(X), lam, mask)
        return f.backward(cache_f, d_lam * lambda_transform_grad(sf, tc))

    def grads_g():
        d_zc = np.where((z_raw > Z_EPS) & (z_raw < 1.0 - Z_EPS), d_z, 0.0) / len(X)
        d_ab = np.concatenate(chain_to_alpha_beta(d_zc, alpha, beta, mask), axis=1)
        return g.backward(cache_g, d_ab * lambda_transform_grad(sg, tc))

    return values, theta, z, lam, alpha, beta, grads_f, grads_g


def _train_batch(state: TrainerState, t: int, idx: np.ndarray):
    """Both alternating sub-steps on the rows ``idx`` of epoch ``t``.

    Returns the MAP loss values of the rows after the auxiliary update, their
    upper-bound values and the batch's live and frozen prior parameters.
    """
    cfg = state.config
    tc = cfg.transform_config
    X = state.dataset.features[idx]
    O = state.cache.mask[idx]
    # Batch-start forwards feed the prior constants for both sub-steps.
    lam0, _, _ = _live_lambda(state.f, X, tc)
    alpha0, beta0, _, _ = _live_alpha_beta(state.g, X, tc)
    lam_hat, a_hat, b_hat = state.cache.refresh(idx, lam0, alpha0, beta0, t)
    step = (state.f, state.g, X, tc, O, lam_hat, a_hat, b_hat, cfg.ml_only)

    # Sub-step 1: main branch fixed, auxiliary branch updated.
    *_, grads_g = map_step_batch(*step)
    sgd_step(state.opt_g, state.g, grads_g(), cfg.weight_decay)

    # Sub-step 2: auxiliary branch (just updated) fixed, main branch updated.
    values, theta, z, lam, alpha, beta, grads_f, _ = map_step_batch(*step)
    sgd_step(state.opt_f, state.f, grads_f(), cfg.weight_decay)

    bounds = map_upper_bound_batch(theta, z, lam, alpha, beta, O, cfg.rho).value
    priors = {"live_lambda": lam0, "live_alpha": alpha0, "live_beta": beta0,
              "lambda_hat": lam_hat, "alpha_hat": a_hat, "beta_hat": b_hat}
    return values, bounds, priors


def train_epoch(state: TrainerState, t: int,
               batch_hook: Optional[Callable[[dict], None]] = None) -> dict:
    """One pass over the shuffled dataset; returns the epoch metrics record.

    A numeric failure in a batch names its epoch and batch, and a non-finite
    loss also the dataset index of its row.
    """
    cfg = state.config
    tc = cfg.transform_config
    ds = state.dataset
    order = substream(cfg.seed, "shuffle", t).permutation(ds.n)
    losses, gaps = [], []
    for k, start in enumerate(range(0, ds.n, cfg.batch_size)):
        idx = order[start:start + cfg.batch_size]
        try:
            values, bounds, priors = _train_batch(state, t, idx)
        except NumericError as exc:
            raise NumericError(f"epoch {t}, batch {k}: {exc}") from exc
        if not np.all(np.isfinite(values)):
            bad = int(idx[int(np.flatnonzero(~np.isfinite(values))[0])])
            raise NumericError(f"non-finite loss at epoch {t}, batch {k}, instance {bad}")
        batch_loss = float(values.mean())
        gaps.append(float(bounds.mean()) - batch_loss)
        losses.append(batch_loss)
        if batch_hook is not None:
            batch_hook({"epoch": t, "batch": k, "indices": idx.copy(), **priors})

    if t == cfg.r:
        lam_all, _, _ = _live_lambda(state.f, ds.features, tc)
        state.cache.take_lambda_snapshot(lam_all)
    if t == cfg.q:
        alpha_all, beta_all, _, _ = _live_alpha_beta(state.g, ds.features, tc)
        state.cache.take_alpha_beta_snapshot(alpha_all, beta_all)
    return {
        "epoch": t,
        "train_loss": float(np.mean(losses)),
        "bound_gap": float(np.mean(gaps)),
    }


def fit(config: TrainConfig, dataset: PLLDataset,
        val_dataset: Optional[PLLDataset] = None,
        batch_hook: Optional[Callable[[dict], None]] = None):
    """Run the full training schedule; returns (f, g, history).

    When ``val_dataset`` is omitted and ``val_fraction`` is positive, that
    fraction of instances is held out (seed-deterministically) before
    training and only ever used to compute the reported validation
    accuracy.  Accuracy entries are None when true labels are unavailable.
    """
    train_ds = dataset
    if val_dataset is None and config.val_fraction > 0.0 and dataset.n >= 2:
        perm = substream(config.seed, "split").permutation(dataset.n)
        n_val = max(1, int(round(dataset.n * config.val_fraction)))
        if n_val >= dataset.n:
            n_val = dataset.n - 1
        val_dataset = dataset.subset(perm[:n_val])
        train_ds = dataset.subset(perm[n_val:])
    state = init_state(config, train_ds)
    history = []
    for t in range(1, config.epochs + 1):
        record = train_epoch(state, t, batch_hook)
        record["val_acc"] = _maybe_accuracy(state.f, val_dataset, config.transform_config)
        history.append(record)
    return state.f, state.g, history


def _maybe_accuracy(net_f, dataset, tc) -> Optional[float]:
    if dataset is None or dataset.true_labels is None:
        return None
    labels, _ = predict_batch(net_f, dataset.features, tc)
    return float(np.mean(labels == dataset.true_labels))


def predict_batch(net_f: DenseNet, X: np.ndarray, tc: TransformConfig):
    """Labels and label-confidence rows for a feature matrix.

    At test time there is no candidate set, so the occurrence vector is
    zero and the posterior mean reduces to lam / sum(lam); its argmax
    coincides with the raw score argmax because the transform is strictly
    increasing coordinate-wise.  Ties go to the lowest label index.
    """
    scores, _ = net_f.forward(np.atleast_2d(X))
    lam = lambda_transform(scores, tc)
    theta = lam / lam.sum(axis=1, keepdims=True)
    return np.argmax(theta, axis=1), theta
