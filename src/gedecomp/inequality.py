"""Finite-population generalized entropy and its exact additive decomposition.

The decomposition splits total inequality into a weighted sum of per-group
inequalities (within term) plus the inequality of group means (between term),
with weights share**(1-theta) * income_share**theta.  The same formulas also
turn estimated group means into a between-group estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _NEAR_LIMIT, theta_kind

__all__ = [
    "DomainError",
    "GroupTerm",
    "GroupDecomposition",
    "BetweenEstimate",
    "ge_finite",
    "decompose_finite",
    "between_from_means",
    "decomposition_weights",
]


class DomainError(ValueError):
    """Raised for invalid finite-population inputs (nonpositive incomes etc.)."""


def _check_incomes(incomes) -> np.ndarray:
    x = np.asarray(incomes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("incomes must be a non-empty 1-d array")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("all incomes must be positive and finite")
    return x


def _power_mean_excess(average, r: np.ndarray, theta: float):
    """average(r**theta) - 1 for ratios whose average is exactly 1 in real arithmetic.

    Within _NEAR_LIMIT of 0 or 1 the difference would cancel, so there it is
    averaged from expm1 terms.
    """
    if abs(theta) < _NEAR_LIMIT:
        return average(np.expm1(theta * np.log(r)))
    if abs(theta - 1.0) < _NEAR_LIMIT:
        # r**theta - 1 = r * expm1((theta - 1) log r) + (r - 1), and r - 1 averages to 0
        return average(r * np.expm1((theta - 1.0) * np.log(r)))
    return average(r**theta) - 1.0


def ge_finite(incomes, theta: float) -> float:
    """Generalized entropy of a finite population of positive incomes.

    Dispatches to the mean log deviation at theta ~ 0 and the Theil index
    at theta ~ 1; constant incomes give exactly 0.
    """
    x = _check_incomes(incomes)
    mu = x.mean()
    r = x / mu
    kind = theta_kind(theta)
    if kind == "mld":
        return float(-np.mean(np.log(r)))
    if kind == "theil":
        return float(np.mean(r * np.log(r)))
    return float(_power_mean_excess(np.mean, r, theta) / (theta * (theta - 1.0)))


def decomposition_weights(shares, income_shares, theta: float) -> np.ndarray:
    """Within-term weights share**(1-theta) * income_share**theta.

    Exactly the population shares at theta=0 and the income shares at
    theta=1 (limit dispatch keeps the identity checks exact).
    """
    lam = np.asarray(shares, dtype=float)
    s = np.asarray(income_shares, dtype=float)
    kind = theta_kind(theta)
    if kind == "mld":
        return lam.copy()
    if kind == "theil":
        return s.copy()
    return lam ** (1.0 - theta) * s**theta


@dataclass(frozen=True)
class GroupTerm:
    """Per-group quantities entering the decomposition."""

    label: object
    n: int
    share: float  # lambda_j = N_j / N
    mean: float
    income_share: float  # s_j = lambda_j * mu_j / mu
    weight: float  # lambda_j**(1-theta) * s_j**theta
    ge: float


@dataclass(frozen=True)
class GroupDecomposition:
    theta: float
    total: float
    within: float
    between: float
    groups: tuple[GroupTerm, ...]

    @property
    def identity_gap(self) -> float:
        return self.total - (self.within + self.between)


def decompose_finite(incomes, labels, theta: float) -> GroupDecomposition:
    """Exact additive decomposition of finite-population GE by group labels."""
    x = _check_incomes(incomes)
    labels = np.asarray(labels)
    if labels.shape != x.shape:
        raise DomainError("labels must align with incomes")
    return _decompose_groups(x, *_split_by_label(labels, x), theta)


def _split_by_label(labels: np.ndarray, x: np.ndarray):
    """The distinct labels in first-appearance order, and the elements of x under each."""
    uniq = list(dict.fromkeys(labels.tolist()))
    return uniq, [x[labels == label] for label in uniq]


def _decompose_groups(x: np.ndarray, labels, parts, theta: float, total: float | None = None) -> GroupDecomposition:
    """Decomposition of the population x already split into groups.

    The j-th of the iterable parts holds the incomes of group labels[j];
    together the parts are exactly the elements of x.  Callers that know
    the grouping (a population laid out group by group) pass slices and
    skip the label search; a caller that already has ge_finite(x, theta)
    passes it as total.
    """
    labels = list(labels)
    sizes, means, ge = [], [], []
    for label, xj in zip(labels, parts):
        if xj.size == 0:
            raise DomainError(f"group {label!r} is empty")
        sizes.append(int(xj.size))
        means.append(xj.mean())
        ge.append(ge_finite(xj, theta))
    lam = np.array(sizes) / x.size
    s, w, between = _shares_weights_between(lam, np.array(means), x.mean(), theta)
    return GroupDecomposition(
        theta=theta,
        total=ge_finite(x, theta) if total is None else total,
        within=float(np.sum(w * np.array(ge))),
        between=between,
        groups=tuple(
            GroupTerm(
                label=label,
                n=n,
                share=float(lam_j),
                mean=mu_j,
                income_share=s_j,
                weight=float(w_j),
                ge=ge_j,
            )
            for label, n, lam_j, mu_j, s_j, w_j, ge_j in zip(labels, sizes, lam, means, s, w, ge)
        ),
    )


def _shares_weights_between(lam: np.ndarray, mu_j: np.ndarray, mu: float, theta: float):
    """Income shares, within-term weights and between term of groups with shares lam and means mu_j.

    mu is the overall mean: sum(lam * mu_j) for estimated means, the
    population's own mean for a finite population.
    """
    s = lam * mu_j / mu
    w = decomposition_weights(lam, s, theta)
    t = mu_j / mu
    kind = theta_kind(theta)
    if kind == "mld":
        return s, w, float(-np.sum(lam * np.log(t)))
    if kind == "theil":
        return s, w, float(np.sum(s * np.log(t)))
    return s, w, float(_power_mean_excess(lambda v: np.sum(lam * v), t, theta) / (theta * (theta - 1.0)))


@dataclass(frozen=True)
class BetweenEstimate:
    """Between-group estimate built from group shares and estimated means."""

    theta: float
    mean: float  # mu_hat = sum lambda_j * mu_hat_j
    income_shares: np.ndarray  # s_hat_j
    weights: np.ndarray  # w_j
    between: float  # B_hat


def between_from_means(shares, means, theta: float) -> BetweenEstimate:
    """Between-group inequality implied by estimated group mean incomes."""
    lam = np.asarray(shares, dtype=float)
    mu_j = np.asarray(means, dtype=float)
    if lam.shape != mu_j.shape or lam.ndim != 1 or lam.size == 0:
        raise DomainError("shares and means must be aligned non-empty vectors")
    if np.any(lam <= 0.0) or np.any(mu_j <= 0.0):
        raise DomainError("shares and means must be positive")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise DomainError(f"population shares must sum to 1, got {lam.sum()!r}")
    mu = float(np.sum(lam * mu_j))
    s, w, between = _shares_weights_between(lam, mu_j, mu, theta)
    return BetweenEstimate(theta=theta, mean=mu, income_shares=s, weights=w, between=between)
