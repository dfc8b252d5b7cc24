"""Finite-population generalized entropy and its exact additive decomposition.

The decomposition splits total inequality into a weighted sum of per-group
inequalities (within term) plus the inequality of group means (between term),
with weights share**(1-theta) * income_share**theta.  The same formulas also
turn estimated group means into a between-group estimate.  GE at many thetas
takes one ratio pass per node for all thetas, with at most one node's ratio
array alive at a time.
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


def _ge(theta: float, r: np.ndarray, average, income_average) -> float:
    """GE at theta of the ratios r to their mean, which average to exactly 1 in real arithmetic.

    average(v) weights v by population share, income_average(v) by income
    share: it is average(r * v), and may overwrite v.  Within _NEAR_LIMIT of 0
    or 1 the generic form would cancel, so there it is averaged from expm1 terms.
    """
    kind = theta_kind(theta)
    if kind == "mld":
        return float(-average(np.log(r)))
    if kind == "theil":
        return float(income_average(np.log(r)))
    if abs(theta) < _NEAR_LIMIT:
        excess = average(np.expm1(theta * np.log(r)))
    elif abs(theta - 1.0) < _NEAR_LIMIT:
        # r**theta - 1 = r * expm1((theta - 1) log r) + (r - 1), and r - 1 averages to 0; the between
        # term's sum(lam * (r * v)) rounds apart from its income_average sum(s * v), and reports hold the former
        excess = average(r * np.expm1((theta - 1.0) * np.log(r)))
    else:
        excess = average(r**theta) - 1.0
    return float(excess / (theta * (theta - 1.0)))


def _node_ge(x: np.ndarray, thetas) -> tuple[int, float, list[float]]:
    """Size, mean and GE at every theta of the positive incomes x, all from one ratio array r = x / mean.

    Each theta that needs log r recomputes it, and the income-share mean
    multiplies into that temporary, so a caller going node by node holds at
    most one node's ratios and one temporary at a time.
    """
    mu = x.mean()
    r = x / mu
    return x.size, mu, [_ge(theta, r, np.mean, lambda v: np.mean(np.multiply(r, v, out=v))) for theta in thetas]


def ge_finite(incomes, theta: float) -> float:
    """Generalized entropy of a finite population of positive incomes.

    Dispatches to the mean log deviation at theta ~ 0 and the Theil index
    at theta ~ 1; constant incomes give exactly 0.
    """
    return _node_ge(_check_incomes(incomes), (theta,))[2][0]


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
    return _decompose_two_levels(x, *_split_by_label(labels, x), (), (theta,))[0][0]


def _split_by_label(labels: np.ndarray, x: np.ndarray):
    """The distinct labels in first-appearance order, and the elements of x under each."""
    uniq = list(dict.fromkeys(labels.tolist()))
    return uniq, [x[labels == label] for label in uniq]


def _decompose_groups(labels, groups, mu: float, total: float, theta: float) -> GroupDecomposition:
    """Decomposition at theta of a population with mean mu and GE total into groups.

    groups holds the (size, mean, GE at theta) of each group of labels; together they are the population.
    """
    sizes, means, ge = zip(*groups)
    lam = np.array(sizes) / sum(sizes)
    s, w, between = _shares_weights_between(lam, np.array(means), mu, theta)
    return GroupDecomposition(
        theta=theta,
        total=total,
        within=float(np.sum(w * np.array(ge))),
        between=between,
        groups=tuple(
            GroupTerm(label=label, n=n, share=float(lam_j), mean=mu_j, income_share=s_j, weight=float(w_j), ge=ge_j)
            for label, n, lam_j, mu_j, s_j, w_j, ge_j in zip(labels, sizes, lam, means, s, w, ge)
        ),
    )


def _decompose_two_levels(x: np.ndarray, labels, parts, nested, thetas):
    """One (top, subs) pair per theta: the decomposition of x into groups, and of each group into its subgroups.

    The j-th of parts holds the non-empty incomes of group labels[j], and
    the parts are exactly the elements of x; nested holds each group's
    subgroup labels and parts, or nothing for one level only.  x is checked
    once, then each node takes one ratio pass for all thetas (_node_ge); a
    group's GE is its subgroups' total.
    """
    thetas = tuple(thetas)  # read once per node
    _, mu, total = _node_ge(_check_incomes(x), thetas)
    groups = [_node_ge(xj, thetas) for xj in parts]
    subgroups = [[_node_ge(xk, thetas) for xk in sub_parts] for _, sub_parts in nested]
    out = []
    for i, theta in enumerate(thetas):
        top = _decompose_groups(labels, [(n, m, ge[i]) for n, m, ge in groups], mu, total[i], theta)
        subs = [_decompose_groups(sub_labels, [(n, m, ge[i]) for n, m, ge in sub], term.mean, term.ge, theta)
                for term, (sub_labels, _), sub in zip(top.groups, nested, subgroups)]
        out.append((top, subs))
    return out


def _shares_weights_between(lam: np.ndarray, mu_j: np.ndarray, mu: float, theta: float):
    """Income shares, within-term weights and between term of groups with shares lam and means mu_j.

    mu is the overall mean: sum(lam * mu_j) for estimated means, the
    population's own mean for a finite population.  The between term is the
    GE of the distribution that puts share lam_j on mean mu_j.
    """
    s = lam * mu_j / mu
    w = decomposition_weights(lam, s, theta)
    return s, w, _ge(theta, mu_j / mu, lambda v: np.sum(lam * v), lambda v: np.sum(s * v))


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
    if not all(np.all((v > 0.0) & np.isfinite(v)) for v in (lam, mu_j)):  # NaN fails v > 0
        raise DomainError("shares and means must be positive and finite")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise DomainError(f"population shares must sum to 1, got {lam.sum()!r}")
    mu = float(np.sum(lam * mu_j))
    s, w, between = _shares_weights_between(lam, mu_j, mu, theta)
    return BetweenEstimate(theta=theta, mean=mu, income_shares=s, weights=w, between=between)
