"""Constrained Bayes benchmarking of group-level inequality estimates.

Given Bayes estimates for the groups of one parent unit, a benchmark total
for the parent, and the between-group term, the solver shifts the estimates
by the minimum weighted squared amount needed to make the weighted
decomposition identity hold exactly:

    sum_j w_j * adjusted_j + between == target.

The closed form is adjusted_j = bayes_j + (r_j / q) * residual with
r_j = w_j / phi_j and q = sum_j w_j**2 / phi_j, where phi are the loss
weights.  phi = w gives a uniform additive shift; phi = w / bayes gives the
multiplicative raking estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BenchmarkProblem",
    "BenchmarkSolution",
    "DegenerateProblemError",
    "RakingInadmissibleError",
    "solve",
]


class DegenerateProblemError(ValueError):
    """Raised when the constraint cannot determine an adjustment (q = 0)."""


class RakingInadmissibleError(ValueError):
    """Raised when raking is requested with nonpositive Bayes estimates."""


@dataclass(frozen=True)
class BenchmarkProblem:
    """One benchmarking problem: estimates, weights, and the target identity.

    loss_weights may be omitted; the solver then takes the decomposition
    weights, the uniform shift.
    """

    bayes: np.ndarray
    weights: np.ndarray
    target: float
    between: float
    loss_weights: np.ndarray | None = None

    def __post_init__(self):
        bayes = np.atleast_1d(np.asarray(self.bayes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "bayes", bayes)
        object.__setattr__(self, "weights", weights)
        if bayes.shape != weights.shape:
            raise ValueError("bayes estimates and weights must have equal length")
        if not np.all(np.isfinite(bayes)):
            raise ValueError("bayes estimates must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be positive and finite")
        if self.loss_weights is not None:
            phi = np.atleast_1d(np.asarray(self.loss_weights, dtype=float))
            object.__setattr__(self, "loss_weights", phi)
            if phi.shape != bayes.shape:
                raise ValueError("loss weights must align with bayes estimates")
            if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
                raise ValueError("loss weights must be positive and finite")

    @property
    def residual(self) -> float:
        """target - between - sum(w * bayes); zero when already compatible."""
        return float(self.target - self.between - float(self.weights @ self.bayes))


@dataclass(frozen=True)
class BenchmarkSolution:
    constrained: np.ndarray
    residual: float
    adjustments: np.ndarray
    negative: np.ndarray = field(repr=False)  # diagnostic only, never clipped

    @property
    def any_negative(self) -> bool:
        return bool(self.negative.any())


def solve(problem: BenchmarkProblem) -> BenchmarkSolution:
    """Minimize sum phi_j (d_j - bayes_j)^2 subject to the exact identity."""
    phi = problem.loss_weights if problem.loss_weights is not None else problem.weights
    w = problem.weights
    r = w / phi
    q = float(np.sum(w * w / phi))
    if not np.isfinite(q) or q <= 0.0:
        raise DegenerateProblemError(f"constraint has no leverage (q = {q})")
    adjustments = (r / q) * problem.residual
    constrained = problem.bayes + adjustments
    return BenchmarkSolution(
        constrained=constrained,
        residual=problem.residual,
        adjustments=adjustments,
        negative=constrained < 0.0,
    )
