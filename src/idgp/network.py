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

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


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
        _, hi = lambda_range(cfg, clamp)
    if not np.isfinite(hi):
        raise ValueError(
            f"a*exp(A/gamma)+b overflows for a={cfg.a}, A={clamp}, gamma={cfg.gamma}"
        )


def lambda_transform(scores: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """Map clamped scores to strictly positive Dirichlet parameters."""
    e = _transform_exp(scores, cfg)
    return _transform_from_exp(e, cfg, e)


def lambda_transform_grad(scores: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """Elementwise derivative d lambda / d score = (a / gamma) * exp(s / gamma)."""
    e = _transform_exp(scores, cfg)
    return _transform_grad(e, cfg, e)


def _transform_exp(scores, cfg: TransformConfig) -> np.ndarray:
    """e = exp(s / gamma) of finite scores as a new array, the factor lambda and its grad share."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores passed to lambda_transform")
    e = np.divide(scores, cfg.gamma, out=np.empty_like(scores))
    return np.exp(e, out=e)


def _transform_from_exp(e, cfg: TransformConfig, out) -> np.ndarray:
    """lambda = a * e + b from e = exp(s / gamma), into ``out`` (a new array if None)."""
    lam = np.multiply(e, cfg.a, out=out)
    lam += cfg.b
    return lam


def _transform_grad(e, cfg: TransformConfig, out) -> np.ndarray:
    """d lambda / d score = (a / gamma) * e, into ``out`` (a new array if None)."""
    return np.multiply(e, cfg.a / cfg.gamma, out=out)


def lambda_transform_pair(scores: np.ndarray, cfg: TransformConfig):
    """Split a 2c score vector (or batch) into Beta parameters (alpha, beta)."""
    width = np.shape(scores)[-1]
    if width % 2 != 0:
        raise ValueError(f"auxiliary scores must have even width, got {width}")
    lam = lambda_transform(scores, cfg)
    half = width // 2
    return lam[..., :half], lam[..., half:]


def layer_sizes(q: int, hidden: int, out: int) -> list:
    """Layer sizes of a net from q features to ``out`` scores; ``hidden == 0`` means linear."""
    return [q, out] if hidden == 0 else [q, hidden, out]


def _check_net_spec(layer_sizes, clamp: float) -> tuple:
    """The layer sizes as a tuple of ints, once the net spec is known valid."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be at least 1, got {list(sizes)}")
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        # numpy reports a byte count past the address space as a ValueError
        if fan_in * fan_out > np.iinfo(np.intp).max // 8:
            raise MemoryError(f"a {fan_in} x {fan_out} weight matrix cannot be allocated")
    if not (clamp > 0.0):
        raise ValueError("clamp bound must be strictly positive")
    return sizes


def param_count(layer_sizes) -> int:
    """Length of :attr:`DenseNet.flat` for a net of these layer sizes."""
    sizes = [int(s) for s in layer_sizes]
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _unflatten(layer_sizes, flat: np.ndarray):
    """Per-layer weight and bias views of a (P,) or (K, P) :attr:`DenseNet.flat` array."""
    lead = flat.shape[:-1]
    row = (*lead, 1) if lead else ()  # a stack's biases broadcast over the batch
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[..., pos:pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[..., pos:pos + fan_out].reshape(*row, fan_out))
        pos += fan_out
    return weights, biases


class DenseNet:
    """Fully connected scorer with relu hidden layers; two layer sizes give a linear net.

    Parameters are 64-bit; the final linear output is hard-clamped to
    [-clamp, clamp] and gradients do not flow through clamped coordinates.
    Weights and biases start uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].
    """

    def __init__(self, layer_sizes, clamp: float, *, rng: np.random.Generator):
        sizes = _check_net_spec(layer_sizes, clamp)
        # one draw per layer: its weights in row-major order, then its biases
        self._bind(sizes, clamp, np.concatenate([
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in),
                        size=fan_in * fan_out + fan_out)
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]))

    @classmethod
    def from_flat(cls, layer_sizes, clamp: float, flat) -> "DenseNet":
        """The net whose :attr:`flat` vector is ``flat``, under the checks of ``__init__``.

        A (K, P) stack of such vectors gives K nets that :meth:`forward` runs
        at once: layer i then holds weights (K, in, out) and biases (K, 1, out).
        Every entry must be finite.  The layers are views of ``flat``.
        """
        sizes = _check_net_spec(layer_sizes, clamp)
        flat = np.asarray(flat, dtype=np.float64)
        expected = param_count(sizes)
        if flat.shape[-1] != expected:
            raise ValueError(f"flat parameters have {flat.shape[-1]} entries, expected {expected}")
        if not np.isfinite(flat).all():
            raise ValueError("weights and biases must be finite")
        net = cls.__new__(cls)
        net._bind(sizes, clamp, flat)
        return net

    def _bind(self, sizes, clamp: float, flat: np.ndarray) -> None:
        self.layer_sizes = sizes
        self.clamp = float(clamp)
        # ``flat`` is the one parameter store, and the one layout of the
        # parameters, their gradients, the optimizer state and the model file:
        # layer by layer, W (in, out) in row-major order, then b (out,).  The
        # layers are views of it.
        self.flat = flat
        self.weights, self.biases = _unflatten(sizes, flat)

    def forward(self, x: np.ndarray):
        """Clamped scores plus the cache needed by :meth:`backward`.

        Accepts a single (q,) vector or a (B, q) batch; the returned scores
        match the input's dimensionality.  The weights may also be a stack of
        K nets, shaped (K, in, out) with biases (K, 1, out) as
        :meth:`from_flat` builds them: a (B, q) batch then gives (K, B, out)
        scores, one row block per net.

        The cache holds ``"inputs"`` (the batch, then each hidden activation,
        one array per layer) and ``"scores"``.  The returned scores are (a view
        of) that cached array: a caller must not write to them before :meth:`backward`.
        """
        x = np.asarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise NumericError("non-finite network input")
        single = x.ndim == 1
        h = np.atleast_2d(x)
        if h.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input width {h.shape[-1]} != expected {self.layer_sizes[0]}")
        inputs = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
            inputs.append(h)
        scores = h @ self.weights[-1]
        scores += self.biases[-1]
        np.maximum(scores, -self.clamp, out=scores)
        np.minimum(scores, self.clamp, out=scores)
        return (scores[0] if single else scores), {"inputs": inputs, "scores": scores}

    def backward(self, cache, grad_scores: np.ndarray) -> np.ndarray:
        """Exact reverse-mode parameter gradient for the cached forward.

        ``grad_scores`` is d(loss)/d(clamped scores); coordinates where the
        clamp was active contribute nothing.  Returns the (P,) gradient in the
        layout of :attr:`flat`; batch contributions are summed.  Only an
        unstacked net has a backward pass.  The clamp was active where the cached
        |scores| reach it, and a relu was off where its cached output is 0.
        """
        g = np.asarray(grad_scores, dtype=np.float64) * (np.abs(cache["scores"]) < self.clamp)
        parts = []
        for i in range(len(self.weights) - 1, -1, -1):
            parts[:0] = [(cache["inputs"][i].T @ g).ravel(), g.sum(axis=0)]
            if i > 0:
                g = g @ self.weights[i].T
                g *= cache["inputs"][i] > 0.0
        # joined at the end: a (P,) buffer held through the loop made wide nets slower
        return np.concatenate(parts)


@dataclass
class SGDState:
    """Classical (non-Nesterov) momentum state for one network.

    ``velocity`` is a (P,) vector in the :attr:`DenseNet.flat` layout,
    ``None`` until the first step.  A zero learning rate is tolerated here (a
    frozen optimizer, useful as a degenerate sanity case); training configs
    require a positive rate.
    """

    lr: float
    momentum: float = 0.0
    velocity: np.ndarray | None = None

    def __post_init__(self):
        if self.lr < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


def sgd_step(state: SGDState, net: DenseNet, grad: np.ndarray,
             weight_decay: float = 0.0) -> None:
    """v <- mu v + g;  w <- w - lr v for a flat :meth:`DenseNet.backward` gradient g.

    Aborts on a non-finite gradient.
    """
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    if weight_decay:
        grad = grad + weight_decay * net.flat
    if state.velocity is None:
        state.velocity = np.zeros_like(net.flat)
    state.velocity *= state.momentum
    state.velocity += grad
    net.flat -= state.lr * state.velocity


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
