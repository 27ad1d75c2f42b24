"""The finite-difference routine itself and a fault in the bare network's backward."""

import numpy as np

from idgp.gradcheck import TOLERANCE, central_difference, check_forward
from idgp.network import DenseNet


def test_central_difference_matches_closed_form_jacobian():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(5, 8))  # 80 points: more than one chunk
    seen = []

    def fun(points):  # sin(x) * x[0, 0], one (5, 8) value per point
        seen.append(points.shape)
        return np.sin(points) * points[:, :1, :1]

    numeric = central_difference(fun, x)
    analytic = np.zeros(x.shape + x.shape)
    for j, k in np.ndindex(x.shape):
        analytic[j, k, j, k] = np.cos(x[j, k]) * x[0, 0]
        analytic[j, k, 0, 0] += np.sin(x[j, k])
    assert numeric.shape == x.shape + x.shape
    assert np.max(np.abs(numeric - analytic)) < 1e-9
    assert sum(m for m, *_ in seen) == 2 * x.size
    assert all(m <= 64 and rest == list(x.shape) for m, *rest in seen)


def test_central_difference_of_scalar_function_is_gradient():
    x = np.array([0.3, -1.2, 2.0])
    numeric = central_difference(lambda p: (p ** 3).sum(axis=-1) / 3.0, x)
    assert numeric.shape == x.shape
    assert np.max(np.abs(numeric - x ** 2)) < 1e-9


def test_offset_in_backward_fails_check_forward(monkeypatch):
    real = DenseNet.backward

    def offset(self, cache, grad_scores):
        grad = real(self, cache, grad_scores)
        grad[0] += 1e-3  # entry 0 of the flat gradient is W[0][0, 0]
        return grad

    assert check_forward(np.random.default_rng(1)) <= TOLERANCE
    monkeypatch.setattr(DenseNet, "backward", offset)
    assert check_forward(np.random.default_rng(1)) > TOLERANCE
