"""Forward sampling of candidate sets and synthetic corruption of clean data.

A candidate set S for an instance arises in two stages: the correct label
is drawn from Cat(theta), then every other label joins the set
independently, label k with probability z_k.  The induced density of a
fixed set S is

    p(S) = sum_{j in S} theta_j * prod_{k in S\\{j}} z_k
                              * prod_{k not in S\\{j}} (1 - z_k),

the sum running over which member could have been the correct label.
Summed over all 2^c subsets this telescopes to sum_j theta_j (1 - z_j),
which the test suite uses as a brute-force identity.

Corruption turns a clean labelled dataset into a partial-label one.  The
instance-dependent mode obtains per-label flip probabilities
sigmoid(g_j(x)) from a separately trained clean scorer; the uniform mode
uses one constant flip probability.  Either way the correct label always
stays in the set, and a set that would cover all labels loses one
uniformly chosen incorrect member so it remains a strict subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import expit

from .data import PLLDataset
from .errors import DataInvariantError, NumericError
from .network import ACTIVATIONS, DenseNet, SGDState, sgd_step
from .rng import substream

MODE_INSTANCE = "instance_dependent"
MODE_UNIFORM = "uniform"


@dataclass(frozen=True)
class CorruptionReport:
    """Summary of one corruption run, persisted in the dataset sidecar."""

    mode: str
    seed: int
    avg_set_size: float
    per_class_ambiguity: np.ndarray
    params: dict = field(default_factory=dict)

    def to_metadata(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "avg_set_size": self.avg_set_size,
            "per_class_ambiguity": [float(v) for v in self.per_class_ambiguity],
            "params": self.params,
        }


@dataclass(frozen=True)
class CleanScorerConfig:
    """Training hyperparameters for the clean network behind instance-dependent flips."""

    hidden: int = 64
    activation: str = "relu"
    clamp: float = 20.0
    epochs: int = 50
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 0:
            raise ValueError("hidden must be nonnegative (0 means linear)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not (self.clamp > 0.0):
            raise ValueError("clamp must be strictly positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 < self.lr < np.inf):
            raise ValueError("lr must be finite and strictly positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def candidate_set_density(candidates: Sequence[int], theta: np.ndarray,
                          z: np.ndarray) -> float:
    """Probability of one candidate set under the two-stage model."""
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    c = theta.shape[0]
    members = sorted(set(int(j) for j in candidates))
    if not members or members[0] < 0 or members[-1] >= c:
        raise ValueError("candidate set must be a nonempty subset of the label range")
    in_set = np.zeros(c, dtype=bool)
    in_set[members] = True
    total = 0.0
    for j in members:
        factors = np.where(in_set, z, 1.0 - z)
        factors[j] = 1.0 - z[j]  # j itself is never an incorrect candidate
        total += theta[j] * float(np.prod(factors))
    return total


def _require_clean(ds: PLLDataset) -> np.ndarray:
    if ds.true_labels is None:
        raise DataInvariantError("corruption needs a dataset with true labels")
    for i, s in enumerate(ds.candidates):
        if len(s) != 1 or s[0] != int(ds.true_labels[i]):
            raise DataInvariantError(
                f"instance {i} is already ambiguous; corruption expects a clean dataset"
            )
    return ds.true_labels


def make_clean_dataset(features: np.ndarray, labels: np.ndarray, c: int) -> PLLDataset:
    """Wrap labelled data as a trivially-candidate partial-label dataset."""
    labels = np.asarray(labels, dtype=np.int64)
    return PLLDataset(
        features=np.asarray(features, dtype=np.float64),
        candidates=tuple((int(y),) for y in labels),
        c=c,
        true_labels=labels,
    )


def _corrupt(ds: PLLDataset, flip_probs: np.ndarray, seed: int, mode: str,
             params: dict):
    labels = _require_clean(ds)
    n, c = ds.n, ds.c
    sets = []
    for i in range(n):
        gen = substream(seed, "corrupt", i)
        u = gen.random(c)
        members = u < flip_probs[i]
        members[labels[i]] = True
        if members.all():
            wrong = np.flatnonzero(members)
            wrong = wrong[wrong != labels[i]]
            members[wrong[gen.integers(wrong.size)]] = False
        sets.append(tuple(int(j) for j in np.flatnonzero(members)))
    corrupted = PLLDataset(features=ds.features.copy(), candidates=tuple(sets),
                           c=c, true_labels=labels.copy())
    sizes = np.array([len(s) for s in sets], dtype=np.float64)
    occ = corrupted.occurrence_matrix()
    occ[np.arange(n), labels] = 0.0  # count only incorrect-candidate appearances
    report = CorruptionReport(
        mode=mode,
        seed=int(seed),
        avg_set_size=float(sizes.mean()),
        per_class_ambiguity=occ.mean(axis=0),
        params=params,
    )
    return corrupted, report


def corrupt_instance_dependent(ds: PLLDataset, flip_scores: np.ndarray, seed: int,
                               scorer_params: dict | None = None):
    """Corrupt using per-instance flip probabilities sigmoid(flip_scores).

    ``flip_scores`` holds the raw clean-scorer outputs, one row per
    instance; the true-label column is ignored.  Returns the corrupted
    dataset and a :class:`CorruptionReport`.
    """
    flip_scores = np.asarray(flip_scores, dtype=np.float64)
    if not np.all(np.isfinite(flip_scores)):
        raise NumericError("flip scores contain non-finite values")
    if flip_scores.shape != (ds.n, ds.c):
        raise DataInvariantError(
            f"flip scores shape {flip_scores.shape} != ({ds.n}, {ds.c})"
        )
    params = {"scorer": scorer_params or {}}
    return _corrupt(ds, expit(flip_scores), seed, MODE_INSTANCE, params)


def corrupt_uniform(ds: PLLDataset, p: float, seed: int):
    """Corrupt with one constant flip probability p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"flip probability p must lie in (0, 1), got {p}")
    flip_probs = np.full((ds.n, ds.c), float(p))
    return _corrupt(ds, flip_probs, seed, MODE_UNIFORM, {"p": float(p)})


def train_clean_scorer(ds: PLLDataset, config: CleanScorerConfig | None = None):
    """Fit a softmax classifier on the true labels; returns (scores, net).

    ``scores`` is the n x c matrix of raw clamped outputs on the training
    instances, the input expected by :func:`corrupt_instance_dependent`.
    Deterministic given the config seed.
    """
    config = config or CleanScorerConfig()
    labels = _require_clean(ds)
    sizes = [ds.q, ds.c] if config.hidden == 0 else [ds.q, config.hidden, ds.c]
    net = DenseNet(sizes, activation=config.activation, clamp=config.clamp,
                   rng=substream(config.seed, "init", 0))
    state = SGDState(lr=config.lr, momentum=config.momentum)
    onehot = np.zeros((ds.n, ds.c))
    onehot[np.arange(ds.n), labels] = 1.0
    for epoch in range(config.epochs):
        order = substream(config.seed, "shuffle", epoch).permutation(ds.n)
        for start in range(0, ds.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            scores, cache = net.forward(ds.features[idx])
            shifted = scores - scores.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            grad = (probs - onehot[idx]) / idx.size
            sgd_step(state, net, net.backward(cache, grad))
    scores, _ = net.forward(ds.features)
    return scores, net
