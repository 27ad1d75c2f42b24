#!/usr/bin/env python3
"""Verify every analytic derivative against central finite differences.

Same harness as the `idgp gradcheck` subcommand.  Each component reports
the worst |analytic - numeric| / max(1, |analytic|, |numeric|) over random
well-conditioned instances.
"""

import numpy as np

from idgp.gradcheck import COMPONENTS, TOLERANCE, central_difference, run_suite
from idgp.objective import ml_loss_batch

print("hand check first: likelihood-loss gradient on one instance")
theta = np.array([0.5, 0.3, 0.2])
z = np.array([0.1, 0.2, 0.3])
mask = np.array([[1.0, 1.0, 0.0]])  # candidate set {1, 2}
_, d_theta, _ = ml_loss_batch(theta[None], z[None], mask)
d_theta = d_theta[0]
# central_difference hands over every perturbed theta at once, as the rows
# of one (6, 3) stack; the batch loss returns one value per row
numeric = central_difference(lambda t: ml_loss_batch(t, z[None], mask)[0], theta)
for j in range(3):
    print(f"  d/d theta_{j + 1}: analytic {d_theta[j]:+.8f}   "
          f"numeric {numeric[j]:+.8f}")

print("\nfull suite (20 random instances per component):")
errors = run_suite(seed=0, trials=20)
for name in COMPONENTS:
    flag = "ok" if errors[name] <= TOLERANCE else "FAIL"
    print(f"  {name:22} max err {errors[name]:.3e}  {flag}")
