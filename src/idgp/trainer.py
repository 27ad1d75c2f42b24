"""Alternating two-network training loop with iteratively refined priors.

Each minibatch step forwards both networks, turns their outputs into
posterior means, refreshes the frozen prior constants from the prior cache,
then updates the auxiliary network g with the main network f fixed
(sub-step 1, :func:`aux_gradient`) and f with the just-updated g fixed
(sub-step 2, :func:`map_step_batch`).  f does not change before the
batch's last update, so its one batch-start forward serves the refresh and
both sub-steps; g runs again after its update: three forwards per batch.
The concavity upper bound on the loss trains nothing and only feeds the
epoch record's ``bound_gap``, so it runs on each epoch's first batch alone.

A forward (:func:`forward_f`, :func:`forward_g`) computes once each array
its sub-step reads, and a sub-step evaluates only what it applies.  Both
compose the unchecked pieces that the public functions of
:mod:`idgp.network`, :mod:`idgp.distributions` and :mod:`idgp.objective`
are built from, so each domain check runs where its guarantee is made: the
forward checks its input, the transform its scores and ``sgd_step`` each
gradient (see :func:`forward_f`).

The prior cache implements the epoch-indexed mixing rules: per instance,

    lambda_hat_j = m * lambda_j^(r) + (1 - m) * lambda_j^(t)   j in S, t >= r
    lambda_hat_j = lambda_j^(t)                                 j in S, t < r
    lambda_hat_j = 1 + epsilon                                  j not in S

and analogously alpha_hat/beta_hat mix epoch-q snapshots with weight d
(identity before q, all labels).  Snapshots are taken from a full forward
pass at the end of epochs r and q and are read-only afterwards.  Within
epoch r itself the snapshot does not exist yet; mixing current values with
themselves would be the identity, which is exactly what the fallback does.

Each forward's cache lives until its net's update.  A fit's memory peak
is the epoch-r/q snapshot: one ``(n, hidden)`` activation plus one
``(n, 2c)`` score array above a steady epoch.  The snapshots are the only
``(n, c)`` float state: the hats live per batch, the mask is the dataset's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .data import PLLDataset
from .distributions import (
    Z_EPS,
    _beta_mean,
    _chain_alpha_beta,
    _chain_lambda,
    _dirichlet_mean,
    clamp_z,
    floor_params,
)
from .errors import NumericError
from .evaluation import SplitSpec, accuracy, split
from .network import (
    DenseNet,
    SGDState,
    TransformConfig,
    _transform_exp,
    _transform_from_exp,
    _transform_grad,
    layer_sizes,
    sgd_step,
    validate_transform_clamp,
)
from .objective import (
    _map_d_z,
    _map_values,
    _ml_softmax,
    _prior_terms,
    _upper_bound,
    _z_logs,
    _ZLogs,
    ml_loss_batch,  # noqa: F401  unused here; perfbench's tracer tests rebind trainer.ml_loss_batch
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
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        validate_transform_clamp(self.transform_config, self.clamp)

    @cached_property  # built once; not a field, so asdict, replace and == ignore it
    def transform_config(self) -> TransformConfig:
        return TransformConfig(a=self.a, b=self.b, gamma=self.gamma)


@dataclass
class PriorCache:
    """The epoch-r/q snapshots, from which :meth:`refresh` computes a batch's prior constants."""

    # Always None; only perfbench/tracing.prior_cache_mb reads them, and
    # ROADMAP item 1b deletes them.
    lambda_hat = alpha_hat = beta_hat = None

    mask: np.ndarray  # the dataset's read-only bool mask itself, not a copy
    config: TrainConfig  # epsilon, m, d, r and q of the mixing rules
    lambda_snapshot: Optional[np.ndarray] = None
    alpha_snapshot: Optional[np.ndarray] = None
    beta_snapshot: Optional[np.ndarray] = None

    @classmethod
    def initialize(cls, dataset: PLLDataset, config: TrainConfig) -> "PriorCache":
        return cls(mask=dataset.mask, config=config)

    def lambda_hat_values(self, idx: np.ndarray, live_lam: np.ndarray, t: int) -> np.ndarray:
        """Frozen lambda constants for the given rows at epoch t."""
        cfg = self.config
        if t >= cfg.r and self.lambda_snapshot is not None:
            mixed = cfg.m * self.lambda_snapshot[idx] + (1.0 - cfg.m) * live_lam
        else:
            mixed = live_lam
        return np.where(self.mask[idx], mixed, 1.0 + cfg.epsilon)

    def alpha_beta_hat_values(self, idx, live_alpha, live_beta, t: int):
        """Frozen alpha and beta constants for the rows idx at epoch t; before q, the live ones."""
        d = self.config.d
        if t >= self.config.q and self.alpha_snapshot is not None:
            a_hat = d * self.alpha_snapshot[idx] + (1.0 - d) * live_alpha
            b_hat = d * self.beta_snapshot[idx] + (1.0 - d) * live_beta
            return a_hat, b_hat
        return live_alpha, live_beta

    def refresh(self, idx, live_lam, live_alpha, live_beta, t: int):
        """Compute and return the prior constants (lambda_hat, alpha_hat, beta_hat) for a batch."""
        return (self.lambda_hat_values(idx, live_lam, t),
                *self.alpha_beta_hat_values(idx, live_alpha, live_beta, t))

    def take_lambda_snapshot(self, lam: np.ndarray) -> None:
        """Store ``lam`` itself, not a copy, and make it read-only."""
        if self.lambda_snapshot is not None:
            raise RuntimeError("lambda snapshot already taken")
        lam.flags.writeable = False
        self.lambda_snapshot = lam

    def take_alpha_beta_snapshot(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Store both arrays themselves, not copies, and make them read-only."""
        if self.alpha_snapshot is not None:
            raise RuntimeError("alpha/beta snapshot already taken")
        alpha.flags.writeable = False
        beta.flags.writeable = False
        self.alpha_snapshot = alpha
        self.beta_snapshot = beta


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
    f, g = (DenseNet(layer_sizes(dataset.q, config.hidden, out), config.clamp,
                     rng=substream(config.seed, "init", k))
            for k, out in enumerate((dataset.c, 2 * dataset.c)))
    return TrainerState(
        config=config,
        f=f,
        g=g,
        opt_f=SGDState(lr=config.lr_f, momentum=config.momentum_f),
        opt_g=SGDState(lr=config.lr_g, momentum=config.momentum_g),
        cache=PriorCache.initialize(dataset, config),
        dataset=dataset,
    )


def _live_params(e: np.ndarray, tc: TransformConfig) -> np.ndarray:
    """``floor_params(lambda_transform(s))`` bit for bit, from e = exp(s / gamma)."""
    return floor_params(_transform_from_exp(e, tc, None))


def _live_alpha_beta(e: np.ndarray, tc: TransformConfig):
    """The floored Beta parameters (alpha, beta) of the two halves of g's e."""
    half = e.shape[-1] // 2
    return _live_params(e[..., :half], tc), _live_params(e[..., half:], tc)


class ForwardF(NamedTuple):
    """The main net's forward on a batch, its Dirichlet posterior mean and log."""

    net: DenseNet
    cache: dict
    e: np.ndarray  # exp(scores / gamma), shared by lam and d lam / d score
    lam: np.ndarray
    theta: np.ndarray
    denom: np.ndarray  # (B, 1): theta's denominator, sum_k (lam_k + o_k)
    log_theta: np.ndarray
    cand: np.ndarray  # the batch's candidate sets, mask > 0


class ForwardG(NamedTuple):
    """The auxiliary net's forward on a batch and its clamped Beta posterior mean."""

    net: DenseNet
    cache: dict
    e: np.ndarray  # exp(scores / gamma), as in ForwardF
    alpha: np.ndarray
    beta: np.ndarray
    z_raw: np.ndarray  # before the z clamp, which decides where z gets a gradient
    num: np.ndarray  # z_raw's numerator o + alpha
    denom: np.ndarray  # and its denominator alpha + beta + o
    zl: _ZLogs  # z after the clamp, with its logs and masked row sums


def forward_f(f: DenseNet, X: np.ndarray, tc: TransformConfig, mask) -> ForwardF:
    """f's forward on a batch, with lam, theta, theta's denominator and log theta.

    Nothing here checks lam: it is the floored transform of scores that
    :meth:`DenseNet.forward` clamps to [-A, A] and that the transform finds
    finite (the check of :func:`lambda_transform`), so every entry is finite
    and at least ``PARAM_FLOOR`` whenever ``tc`` and the net's clamp A pass
    :func:`validate_transform_clamp`, as every :class:`TrainConfig` does.
    """
    scores, cache = f.forward(X)
    e = _transform_exp(scores, tc)
    lam = _live_params(e, tc)
    theta, denom = _dirichlet_mean(lam, mask)
    return ForwardF(f, cache, e, lam, theta, denom, np.log(theta), mask > 0.0)


def forward_g(g: DenseNet, X: np.ndarray, tc: TransformConfig, mask) -> ForwardG:
    """g's forward on a batch, with alpha, beta, the Beta mean's terms and the z logs.

    alpha and beta are unchecked under the precondition of :func:`forward_f`.
    """
    scores, cache = g.forward(X)
    e = _transform_exp(scores, tc)
    alpha, beta = _live_alpha_beta(e, tc)
    z_raw, num, denom = _beta_mean(alpha, beta, mask)
    return ForwardG(g, cache, e, alpha, beta, z_raw, num, denom,
                    _z_logs(clamp_z(z_raw), mask))


def aux_gradient(fwd_f: ForwardF, fwd_g: ForwardG, tc: TransformConfig,
                 mask, prior) -> np.ndarray:
    """Sub-step 1: g's flat (P,) gradient of the batch-mean MAP loss, f fixed.

    Only the z side is evaluated: the likelihood weights, d/dz of the loss
    (of its likelihood part when ``prior`` is None), the Beta chain rule on
    the forward's numerator and denominator, and g's backward; clamped z
    entries and the frozen hats get no gradient.  ``prior`` is
    :func:`objective._prior_terms` of the batch's hats.
    """
    cand = fwd_f.cand
    _, _, w = _ml_softmax(fwd_f.log_theta, fwd_g.zl, cand)
    z_raw = fwd_g.z_raw
    d_z = np.where((z_raw > Z_EPS) & (z_raw < 1.0 - Z_EPS),
                   _map_d_z(w, fwd_g.zl, cand, prior), 0.0) / len(mask)
    d_ab = np.concatenate(_chain_alpha_beta(d_z, fwd_g.beta, fwd_g.num, fwd_g.denom), axis=1)
    d_ab *= _transform_grad(fwd_g.e, tc, None)
    return fwd_g.net.backward(fwd_g.cache, d_ab)


class MapStep(NamedTuple):
    """Per-row MAP loss of one batch, its parts, and the main net's gradient."""

    values: np.ndarray
    ml_values: np.ndarray
    reg_values: np.ndarray  # zero under ``ml_only``
    grads_f: Callable[[], np.ndarray]


def map_step_batch(fwd_f: ForwardF, fwd_g: ForwardG, tc: TransformConfig,
                   mask, prior) -> MapStep:
    """Sub-step 2: the MAP loss of two forwards on the same batch, g fixed.

    Evaluates the values, their likelihood and prior parts and d/d(theta_hat);
    ``prior`` is as in :func:`aux_gradient`.  ``grads_f()`` gives f's flat
    (P,) parameter gradient of the batch-mean loss, in the
    :meth:`DenseNet.get_flat` layout that :func:`sgd_step` takes, running the
    Dirichlet chain rule on the forward's theta and denominator and f's
    backward on its cache.
    """
    cand = fwd_f.cand
    shift, total, w = _ml_softmax(fwd_f.log_theta, fwd_g.zl, cand)
    values, ml_v, reg_v, d_theta = _map_values(shift, total, w, fwd_f.theta,
                                               fwd_f.log_theta, fwd_g.zl, cand, prior)
    rows = len(mask)

    def grads_f():
        d_lam = _chain_lambda(d_theta / rows, fwd_f.theta, fwd_f.denom)
        d_lam *= _transform_grad(fwd_f.e, tc, None)
        return fwd_f.net.backward(fwd_f.cache, d_lam)

    return MapStep(values, ml_v, reg_v, grads_f)


def _train_batch(state: TrainerState, t: int, idx: np.ndarray, bound: bool):
    """Both alternating sub-steps on the rows ``idx`` of epoch ``t``, in three forwards.

    f is fixed until the batch's last update, so its batch-start forward
    (with log theta and the candidate mask) serves the prior refresh, both
    sub-steps, the bound and f's backward.  g's batch-start forward serves
    the refresh and g's update; g then runs once more for the main sub-step
    and the bound.  The bound trains nothing and is evaluated only when
    ``bound`` is true.  Returns the MAP loss values of the rows after the
    auxiliary update, their likelihood and prior parts, their upper-bound
    values (None when ``bound`` is false) and the batch's live and frozen
    prior parameters.
    """
    cfg = state.config
    tc = cfg.transform_config
    X = state.dataset.features[idx]
    O = state.dataset.mask[idx].astype(np.float64)
    fwd_f = forward_f(state.f, X, tc, O)
    fwd_g = forward_g(state.g, X, tc, O)
    hats = state.cache.refresh(idx, fwd_f.lam, fwd_g.alpha, fwd_g.beta, t)
    priors = {"live_lambda": fwd_f.lam, "live_alpha": fwd_g.alpha, "live_beta": fwd_g.beta,
              "lambda_hat": hats[0], "alpha_hat": hats[1], "beta_hat": hats[2]}
    prior = None if cfg.ml_only else _prior_terms(*hats)

    # Sub-step 1: main branch fixed, auxiliary branch updated; nothing of it
    # is kept, so g's batch-start cache is freed before g runs again.
    sgd_step(state.opt_g, state.g, aux_gradient(fwd_f, fwd_g, tc, O, prior),
             cfg.weight_decay)
    del fwd_g

    # Sub-step 2: auxiliary branch (just updated) fixed, main branch updated;
    # g's second forward is freed before f's backward.
    fwd_g = forward_g(state.g, X, tc, O)
    step = map_step_batch(fwd_f, fwd_g, tc, O, prior)
    bounds = _upper_bound(fwd_f.log_theta, fwd_g.zl, fwd_f.lam, fwd_g.alpha, fwd_g.beta,
                          O, fwd_f.cand, cfg.rho).value if bound else None
    del fwd_g
    sgd_step(state.opt_f, state.f, step.grads_f(), cfg.weight_decay)
    return step.values, step.ml_values, step.reg_values, bounds, priors


def train_epoch(state: TrainerState, t: int,
               batch_hook: Optional[Callable[[dict], None]] = None) -> dict:
    """One pass over the shuffled dataset; returns the epoch metrics record.

    The losses are means over the epoch's batches.  ``bound_gap`` is the
    first batch's alone (bound minus loss, per row), so it describes the
    nets as the epoch starts, and the bound, a diagnostic that trains
    nothing, runs once per epoch.  A numeric failure in a batch names its
    epoch and batch, and a non-finite loss also the dataset index of its row.
    """
    cfg = state.config
    tc = cfg.transform_config
    ds = state.dataset
    order = substream(cfg.seed, "shuffle", t).permutation(ds.n)
    losses, ml_losses, reg_losses = [], [], []
    for k, start in enumerate(range(0, ds.n, cfg.batch_size)):
        idx = order[start:start + cfg.batch_size]
        try:
            values, ml_v, reg_v, bounds, priors = _train_batch(state, t, idx, bound=k == 0)
        except NumericError as exc:
            raise NumericError(f"epoch {t}, batch {k}: {exc}") from exc
        if not np.isfinite(values).all():
            bad = int(idx[int(np.flatnonzero(~np.isfinite(values))[0])])
            raise NumericError(f"non-finite loss at epoch {t}, batch {k}, instance {bad}")
        rows = len(idx)
        batch_loss = float(values.sum()) / rows
        if bounds is not None:
            gap = float(bounds.sum()) / rows - batch_loss
        losses.append(batch_loss)
        ml_losses.append(float(ml_v.sum()) / rows)
        reg_losses.append(float(reg_v.sum()) / rows)
        if batch_hook is not None:
            batch_hook({"epoch": t, "batch": k, "indices": idx.copy(), **priors})

    if t == cfg.r:
        state.cache.take_lambda_snapshot(
            _live_params(_transform_exp(state.f.forward(ds.features)[0], tc), tc))
    if t == cfg.q:
        state.cache.take_alpha_beta_snapshot(
            *_live_alpha_beta(_transform_exp(state.g.forward(ds.features)[0], tc), tc))
    return {
        "epoch": t,
        "train_loss": float(np.mean(losses)),
        "ml_loss": float(np.mean(ml_losses)),
        "reg_loss": float(np.mean(reg_losses)),
        "bound_gap": gap,
    }


def fit(config: TrainConfig, dataset: PLLDataset,
        val_dataset: Optional[PLLDataset] = None,
        batch_hook: Optional[Callable[[dict], None]] = None):
    """Run the full training schedule; returns (f, g, history).

    When ``val_dataset`` is omitted and ``val_fraction`` v is positive, the
    hold-out is :func:`evaluation.split` with fractions (1 - v, v, 0) and
    ``config.seed``: f and g train on its first part only, and its second
    part only ever gives the reported validation accuracy (a part that
    rounds to no rows raises ``split``'s DataInvariantError).  Accuracy
    entries are None when true labels are unavailable.
    """
    if val_dataset is None and (v := config.val_fraction) > 0.0:
        dataset, val_dataset, _ = split(dataset, SplitSpec(1.0 - v, v, 0.0, config.seed))
    state = init_state(config, dataset)
    history = []
    for t in range(1, config.epochs + 1):
        record = train_epoch(state, t, batch_hook)
        record["val_acc"] = _maybe_accuracy(state.f, val_dataset, config.transform_config)
        history.append(record)
    return state.f, state.g, history


def _maybe_accuracy(net_f, dataset, tc) -> Optional[float]:
    if dataset is None or dataset.true_labels is None:
        return None
    return accuracy(net_f, dataset, tc)
