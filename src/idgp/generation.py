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

Both modes draw from one stream, ``substream(seed, "corrupt")``, in rows of
c + 1 uniforms: row i's first c are its flips, and its last, u, drops the
wrong label at index floor(u (c - 1)) among the c - 1 in label order when
the set came out full.  So corrupting the first k rows of a dataset gives
the first k rows of its whole corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import PLLDataset, candidate_mask
from .errors import DataInvariantError, NumericError
from .network import DenseNet, SGDState, layer_sizes, sgd_step
from .rng import substream

MODE_INSTANCE = "instance_dependent"
MODE_UNIFORM = "uniform"

SCORER_BATCH_SIZE = 64
SCORER_MOMENTUM = 0.9


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
    """The clean scorer's settable hyperparameters; the ``SCORER_*`` constants fix the rest."""

    hidden: int = 64
    clamp: float = 20.0
    epochs: int = 50
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 0:
            raise ValueError("hidden must be nonnegative (0 means linear)")
        if not (self.clamp > 0.0):
            raise ValueError("clamp must be strictly positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (0.0 < self.lr < np.inf):
            raise ValueError("lr must be finite and strictly positive")


def candidate_set_density(candidates: Sequence[int], theta: np.ndarray,
                          z: np.ndarray) -> float:
    """Probability of one candidate set under the two-stage model."""
    theta = np.asarray(theta, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    c = theta.shape[0]
    members = sorted(set(int(j) for j in candidates))
    if not members or members[0] < 0 or members[-1] >= c:
        raise ValueError("candidate set must be a nonempty subset of the label range")
    flips = 1.0 - z  # a label outside the set did not flip in
    flips[members] = z[members]
    total = 0.0
    for j in members:
        factors = flips.copy()
        factors[j] = 1.0 - z[j]  # j itself is never an incorrect candidate
        total += theta[j] * float(np.prod(factors))
    return total


def _require_clean(ds: PLLDataset) -> np.ndarray:
    if ds.true_labels is None:
        raise DataInvariantError("corruption needs a dataset with true labels")
    # a valid set holds its true label, so a singleton set is exactly {label}
    ambiguous = np.flatnonzero(np.count_nonzero(ds.mask, axis=1) != 1)
    if ambiguous.size:
        raise DataInvariantError(f"instance {ambiguous[0]} is already ambiguous; "
                                 "corruption expects a clean dataset")
    return ds.true_labels


def make_clean_dataset(features: np.ndarray, labels: np.ndarray, c: int) -> PLLDataset:
    """Wrap labelled data as a trivially-candidate partial-label dataset."""
    labels = np.asarray(labels, dtype=np.int64)
    return PLLDataset(features, candidate_mask(labels[:, None].tolist(), c), c, labels)


def _corrupt(ds: PLLDataset, flip_probs: np.ndarray | float, seed: int, mode: str,
             params: dict):
    labels = _require_clean(ds)
    n, c = ds.n, ds.c
    # row i reads c + 1 uniforms: its c flips, then the pick of a full set's dropped label
    u = substream(seed, "corrupt").random((n, c + 1))
    mask = u[:, :c] < flip_probs
    mask[np.arange(n), labels] = True
    full = np.flatnonzero(mask.all(axis=1))
    k = (u[full, c] * (c - 1)).astype(np.int64)  # floor: the k-th wrong label, in label order
    mask[full, k + (k >= labels[full])] = False
    corrupted = PLLDataset(features=ds.features.copy(), mask=mask, c=c, true_labels=labels.copy())
    occ = corrupted.occurrence_matrix()
    avg_set_size = float(occ.sum(axis=1).mean())
    occ[np.arange(n), labels] = 0.0  # count only incorrect-candidate appearances
    return corrupted, CorruptionReport(mode, int(seed), avg_set_size, occ.mean(axis=0), params)


def corrupt_instance_dependent(ds: PLLDataset, flip_scores: np.ndarray, seed: int,
                               scorer_params: dict | None = None):
    """Corrupt using per-instance flip probabilities sigmoid(flip_scores).

    ``flip_scores`` holds the raw clean-scorer outputs, one row per
    instance; the true-label column is ignored.  Returns the corrupted
    dataset and a :class:`CorruptionReport`.
    """
    flip_scores = np.asarray(flip_scores, dtype=np.float64)
    if not np.isfinite(flip_scores).all():
        raise NumericError("flip scores contain non-finite values")
    if flip_scores.shape != (ds.n, ds.c):
        raise DataInvariantError(
            f"flip scores shape {flip_scores.shape} != ({ds.n}, {ds.c})"
        )
    params = {"scorer": scorer_params or {}}
    with np.errstate(over="ignore"):  # exp(-s) overflows to inf for s << 0: probability 0
        flip_probs = 1.0 / (1.0 + np.exp(-flip_scores))
    return _corrupt(ds, flip_probs, seed, MODE_INSTANCE, params)


def corrupt_uniform(ds: PLLDataset, p: float, seed: int):
    """Corrupt with one constant flip probability p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"flip probability p must lie in (0, 1), got {p}")
    return _corrupt(ds, float(p), seed, MODE_UNIFORM, {"p": float(p)})


def train_clean_scorer(ds: PLLDataset, config: CleanScorerConfig | None = None):
    """Fit a softmax classifier on the true labels; returns (scores, net).

    ``scores`` is the n x c matrix of raw clamped outputs on the training
    instances, the input expected by :func:`corrupt_instance_dependent`.
    Deterministic given the config seed.
    """
    config = config or CleanScorerConfig()
    labels = _require_clean(ds)
    net = DenseNet(layer_sizes(ds.q, config.hidden, ds.c), config.clamp,
                   rng=substream(config.seed, "init", 0))
    state = SGDState(lr=config.lr, momentum=SCORER_MOMENTUM)
    onehot = np.zeros((ds.n, ds.c))
    onehot[np.arange(ds.n), labels] = 1.0
    for epoch in range(config.epochs):
        order = substream(config.seed, "shuffle", epoch).permutation(ds.n)
        for start in range(0, ds.n, SCORER_BATCH_SIZE):
            idx = order[start:start + SCORER_BATCH_SIZE]
            scores, cache = net.forward(ds.features[idx])
            shifted = scores - scores.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            grad = (probs - onehot[idx]) / idx.size
            sgd_step(state, net, net.backward(cache, grad))
    scores, _ = net.forward(ds.features)
    return scores, net
