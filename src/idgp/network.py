"""Small dense scorer with manual backprop, output clamp and SGD-momentum.

Two instances of :class:`DenseNet` play distinct roles during training: a
main branch whose c clamped scores parameterize the Dirichlet prior through
``lam = a * exp(scores / gamma) + b``, and an auxiliary branch whose 2c
scores split into the Beta parameters (alpha, beta) through the same
transform.  Scores are hard-clamped to [-A, A] with zero gradient outside,
which keeps every transformed parameter inside a known interval; the
resulting floors/ceilings on the posterior means are exposed at the bottom
of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import NumericError

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class TransformConfig:
    """Constants of the score-to-parameter transform a * exp(s / gamma) + b."""

    a: float = 1.0
    b: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("a", "gamma"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and strictly positive")
        if not (0.0 <= self.b < np.inf):
            raise ValueError("b must be finite and nonnegative")


def validate_transform_clamp(cfg: TransformConfig, clamp: float) -> None:
    """Reject (transform, clamp) combinations whose lambda range overflows."""
    if not (clamp > 0.0):
        raise ValueError("clamp bound A must be strictly positive")
    with np.errstate(over="ignore"):
        hi = cfg.a * np.exp(clamp / cfg.gamma) + cfg.b
    if not np.isfinite(hi):
        raise ValueError(
            f"a*exp(A/gamma)+b overflows for a={cfg.a}, A={clamp}, gamma={cfg.gamma}"
        )


def lambda_transform(scores: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """Map clamped scores to strictly positive Dirichlet parameters."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores passed to lambda_transform")
    return cfg.a * np.exp(scores / cfg.gamma) + cfg.b


def lambda_transform_grad(scores: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """Elementwise derivative d lambda / d score = (a / gamma) * exp(s / gamma)."""
    scores = np.asarray(scores, dtype=np.float64)
    return (cfg.a / cfg.gamma) * np.exp(scores / cfg.gamma)


def lambda_transform_pair(scores: np.ndarray, cfg: TransformConfig):
    """Split a 2c score vector (or batch) into Beta parameters (alpha, beta)."""
    scores = np.asarray(scores, dtype=np.float64)
    width = scores.shape[-1]
    if width % 2 != 0:
        raise ValueError(f"auxiliary scores must have even width, got {width}")
    lam = lambda_transform(scores, cfg)
    half = width // 2
    return lam[..., :half], lam[..., half:]


def _check_net_spec(layer_sizes, activation: str, clamp: float) -> None:
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        # numpy reports a byte count past the address space as a ValueError
        if int(fan_in) * int(fan_out) > np.iinfo(np.intp).max // 8:
            raise MemoryError(f"a {fan_in} x {fan_out} weight matrix cannot be allocated")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}")
    if not (clamp > 0.0):
        raise ValueError("clamp bound must be strictly positive")


class DenseNet:
    """Fully connected scorer; hidden activations relu or identity.

    Parameters are 64-bit; the final linear output is hard-clamped to
    [-clamp, clamp] and gradients do not flow through clamped coordinates.
    Weights and biases start uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].
    """

    def __init__(self, layer_sizes, activation: str = "relu", clamp: float = 20.0,
                 rng: np.random.Generator | None = None):
        _check_net_spec(layer_sizes, activation, clamp)
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.activation = activation
        self.clamp = float(clamp)
        rng = rng if rng is not None else np.random.default_rng()
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @classmethod
    def from_params(cls, layer_sizes, activation: str, clamp: float,
                    weights, biases) -> "DenseNet":
        """A net holding the given parameters, under the checks of ``__init__``.

        Every weight and bias must also be finite.
        """
        _check_net_spec(layer_sizes, activation, clamp)
        if not all(np.all(np.isfinite(p)) for p in (*weights, *biases)):
            raise ValueError("weights and biases must be finite")
        net = cls.__new__(cls)
        net.layer_sizes = tuple(int(s) for s in layer_sizes)
        net.activation = activation
        net.clamp = float(clamp)
        net.weights, net.biases = list(weights), list(biases)
        return net

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def _act(self, pre: np.ndarray) -> np.ndarray:
        return np.maximum(pre, 0.0) if self.activation == "relu" else pre

    def _act_grad(self, pre: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return (pre > 0.0).astype(np.float64)
        return np.ones_like(pre)

    def forward(self, x: np.ndarray):
        """Clamped scores plus the cache needed by :meth:`backward`.

        Accepts a single (q,) vector or a (B, q) batch; the returned scores
        match the input's dimensionality.  The weights may also be a stack of
        K nets, shaped (K, in, out) with biases (K, 1, out) as
        :meth:`stacked` builds them: a (B, q) batch then gives (K, B, out)
        scores, one row block per net.
        """
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise NumericError("non-finite network input")
        single = x.ndim == 1
        h = np.atleast_2d(x)
        if h.shape[-1] != self.in_dim:
            raise ValueError(f"input width {h.shape[-1]} != expected {self.in_dim}")
        inputs = []
        preacts = []
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            inputs.append(h)
            pre = h @ W + b
            preacts.append(pre)
            h = self._act(pre)
        inputs.append(h)
        pre_out = h @ self.weights[-1] + self.biases[-1]
        scores = np.clip(pre_out, -self.clamp, self.clamp)
        cache = {"inputs": inputs, "preacts": preacts, "pre_out": pre_out}
        return (scores[0] if single else scores), cache

    def backward(self, cache, grad_scores: np.ndarray):
        """Exact reverse-mode parameter gradients for the cached forward.

        ``grad_scores`` is d(loss)/d(clamped scores); coordinates where the
        clamp was active contribute nothing.  Returns [(gW, gb), ...] in
        layer order; batch contributions are summed.  Only an unstacked net
        has a backward pass.
        """
        g = np.atleast_2d(np.asarray(grad_scores, dtype=np.float64)).copy()
        interior = np.abs(cache["pre_out"]) < self.clamp
        g *= interior
        grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            grads[i] = (cache["inputs"][i].T @ g, g.sum(axis=0))
            if i > 0:
                g = (g @ self.weights[i].T) * self._act_grad(cache["preacts"][i - 1])
        return grads

    # Flat parameter vectors, used by the gradient checks.

    def get_flat(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def stacked(self, rows: np.ndarray) -> "DenseNet":
        """K nets of this spec, one per row of a (K, P) stack of :meth:`get_flat` vectors.

        The inverse of :meth:`get_flat` for a stack: layer i holds weights
        (K, in, out) and biases (K, 1, out), which :meth:`forward` runs at once.
        """
        rows = np.asarray(rows, dtype=np.float64)
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(rows[:, pos:pos + fan_in * fan_out].reshape(-1, fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(rows[:, pos:pos + fan_out].reshape(-1, 1, fan_out))
            pos += fan_out
        if pos != rows.shape[-1]:
            raise ValueError(f"flat rows have {rows.shape[-1]} entries, expected {pos}")
        return DenseNet.from_params(self.layer_sizes, self.activation, self.clamp,
                                    weights, biases)

    @staticmethod
    def flatten_grads(grads) -> np.ndarray:
        parts = []
        for gW, gb in grads:
            parts.append(gW.ravel())
            parts.append(gb.ravel())
        return np.concatenate(parts)


@dataclass
class SGDState:
    """Classical (non-Nesterov) momentum state for one network.

    A zero learning rate is tolerated here (a frozen optimizer, useful as a
    degenerate sanity case); training configs require a positive rate.
    """

    lr: float
    momentum: float = 0.0
    velocity: list = field(default_factory=list)

    def __post_init__(self):
        if self.lr < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def sgd_step(state: SGDState, net: DenseNet, grads, weight_decay: float = 0.0) -> None:
    """v <- mu v + g;  w <- w - lr v.  Aborts on non-finite gradients."""
    if not state.velocity:
        state.velocity = [(np.zeros_like(W), np.zeros_like(b))
                          for W, b in zip(net.weights, net.biases)]
    for i, (gW, gb) in enumerate(grads):
        if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
            raise NumericError(f"non-finite gradient in layer {i}")
        if weight_decay:
            gW = gW + weight_decay * net.weights[i]
            gb = gb + weight_decay * net.biases[i]
        vW, vb = state.velocity[i]
        vW *= state.momentum
        vW += gW
        vb *= state.momentum
        vb += gb
        net.weights[i] -= state.lr * vW
        net.biases[i] -= state.lr * vb


# ---------------------------------------------------------------------------
# Intervals induced by the output clamp.
#
# With scores confined to [-A, A], every transformed parameter lies in
# [a e^{-A/g} + b, a e^{A/g} + b]; pushing that interval through the two
# posterior-mean formulas yields a floor B on theta_hat and an interval
# [E, F] containing z_hat, and from those a finite ceiling on the training
# loss itself.
# ---------------------------------------------------------------------------

def lambda_range(cfg: TransformConfig, clamp: float):
    lo = cfg.a * np.exp(-clamp / cfg.gamma) + cfg.b
    hi = cfg.a * np.exp(clamp / cfg.gamma) + cfg.b
    return float(lo), float(hi)


def theta_floor(cfg: TransformConfig, clamp: float, c: int) -> float:
    """Lower bound B on every entry of the Dirichlet posterior mean."""
    lo, hi = lambda_range(cfg, clamp)
    return lo / (c * hi + c)


def z_hat_bounds(cfg: TransformConfig, clamp: float):
    """Interval [E, F] containing every Beta posterior mean entry."""
    lo, hi = lambda_range(cfg, clamp)
    e = lo / (2.0 * hi + 1.0)
    f = (hi + 1.0) / (hi + lo + 1.0)
    return float(e), float(f)


def loss_sup(cfg: TransformConfig, clamp: float, c: int) -> float:
    """Finite ceiling M on the per-instance MAP loss under the clamps.

    Maximizes the candidate-set-size dependent term over all admissible
    sizes 1..c-1.
    """
    b_floor = theta_floor(cfg, clamp, c)
    e, f = z_hat_bounds(cfg, clamp)
    _, hi = lambda_range(cfg, clamp)
    reg_part = -c * hi * np.log(b_floor * e * (1.0 - f))
    sizes = np.arange(1, c)
    ml_part = -(np.log(sizes) + np.log(b_floor)
                + (c + 1.0 - sizes) * np.log1p(-f) + (sizes - 1.0) * np.log(e))
    return float(np.max(ml_part) + reg_part)
