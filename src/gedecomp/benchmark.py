"""Constrained Bayes benchmarking of group-level inequality estimates.

Given Bayes estimates for the groups of one parent unit, a benchmark total
for the parent, and the between-group term, ``solve`` shifts the estimates
by the minimum weighted squared amount needed to make the weighted
decomposition identity hold exactly:

    sum_j w_j * constrained_j + between == target.

The closed form is constrained_j = bayes_j + (r_j / q) * residual with
r_j = w_j / phi_j, q = sum_j w_j**2 / phi_j and residual = target - between
- sum_j w_j * bayes_j, where phi are the loss weights.  phi = w gives a
uniform additive shift; phi = w / bayes gives the multiplicative raking
estimator.  A negative constrained value is returned as it is, never
clipped.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateProblemError",
    "RakingInadmissibleError",
    "solve",
]


class DegenerateProblemError(ValueError):
    """Raised when the constraint cannot determine an adjustment (q = 0)."""


class RakingInadmissibleError(ValueError):
    """Raised when raking is requested with nonpositive Bayes estimates."""


def solve(bayes, weights, target: float, between: float, loss_weights) -> np.ndarray:
    """The constrained values: minimize sum phi_j (d_j - bayes_j)^2 subject to the exact identity."""
    bayes, w, phi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (bayes, weights, loss_weights))
    if bayes.shape != w.shape:
        raise ValueError("bayes estimates and weights must have equal length")
    if not np.all(np.isfinite(bayes)):
        raise ValueError("bayes estimates must be finite")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weights must be positive and finite")
    if phi.shape != bayes.shape:
        raise ValueError("loss weights must align with bayes estimates")
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
        raise ValueError("loss weights must be positive and finite")
    r = w / phi
    q = float(np.sum(w * w / phi))
    if not np.isfinite(q) or q <= 0.0:
        raise DegenerateProblemError(f"constraint has no leverage (q = {q})")
    residual = float(target - between - float(w @ bayes))
    return bayes + (r / q) * residual
