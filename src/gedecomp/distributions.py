"""Parametric income distributions: GB2, Singh-Maddala, and lognormal.

Each family provides the cdf, density, theta-order moments, closed-form
generalized-entropy values (with the mean-log-deviation and Theil limits),
and seeded sampling.  The Singh-Maddala family is the GB2 family with its
first shape parameter fixed at 1 and shares the same internal formulas.

All gamma-function arithmetic is kept in log space so large shape values do
not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special

__all__ = [
    "GB2",
    "SM",
    "LN",
    "FAMILIES",
    "LIMIT_TOL",
    "ParameterDomainError",
    "MomentExistenceError",
    "theta_kind",
    "make_family",
    "make_batch",
    "family_dim",
    "family_param_names",
    "ge_over_draws",
    "mean_over_draws",
]

#: theta values within this distance of 0 or 1 dispatch to the MLD / Theil
#: closed forms instead of the generic 1/(theta*(theta-1)) expression.
LIMIT_TOL = 1e-9


class ParameterDomainError(ValueError):
    """Raised when distribution parameters violate their domain."""


class MomentExistenceError(ValueError):
    """Raised when a requested moment does not exist.

    Carries the open interval of admissible moment orders.
    """

    def __init__(self, theta: float, low: float, high: float, detail: str = ""):
        self.theta = theta
        self.low = low
        self.high = high
        msg = f"moment of order {theta} does not exist; admissible orders are ({low}, {high})"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def theta_kind(theta: float) -> str:
    """Classify a sensitivity parameter: 'mld', 'theil', or 'general'."""
    if not math.isfinite(theta):
        raise ValueError(f"sensitivity parameter must be finite, got {theta}")
    if abs(theta) <= LIMIT_TOL:
        return "mld"
    if abs(theta - 1.0) <= LIMIT_TOL:
        return "theil"
    return "general"


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterDomainError(f"{name} must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------------------
# GB2 kernels, shared by GB2 and SM.  All operate on float arrays and assume
# parameters already validated.
# ---------------------------------------------------------------------------

def _gb2_cdf(x, a, b, p, q):
    x = np.asarray(x, dtype=float)
    pos = x > 0
    with np.errstate(divide="ignore", over="ignore"):
        z = a * (np.log(np.where(pos, x, 1.0)) - np.log(b))
    u = special.expit(z)
    out = np.where(pos, special.betainc(p, q, u), 0.0)
    return np.where(np.isposinf(x), 1.0, out)


def _sm_cdf(x, a, b, q):
    # algebraic closed form 1 - (1 + (x/b)^a)^(-q), evaluated via log1p(exp)
    x = np.asarray(x, dtype=float)
    pos = x > 0
    with np.errstate(divide="ignore", over="ignore"):
        z = a * (np.log(np.where(pos, x, 1.0)) - np.log(b))
    out = -np.expm1(-q * np.logaddexp(0.0, z))
    out = np.where(pos, out, 0.0)
    return np.where(np.isposinf(x), 1.0, out)


def _gb2_logpdf(x, a, b, p, q):
    x = np.asarray(x, dtype=float)
    z = a * (np.log(x) - np.log(b))
    return (
        np.log(a)
        + (a * p - 1.0) * (np.log(x) - np.log(b))
        - np.log(b)
        - special.betaln(p, q)
        - (p + q) * np.logaddexp(0.0, z)
    )


def _gb2_log_moment_ratio(theta, a, p, q):
    # log E[(X/b)^theta]; caller handles the existence window
    return (
        special.gammaln(p + theta / a)
        + special.gammaln(q - theta / a)
        - special.gammaln(p)
        - special.gammaln(q)
    )


def _gb2_ge_vec(theta, a, b, p, q):
    """Vectorized GB2 generalized entropy with an admissibility mask.

    Returns (values, ok): entries with the moment window excluding theta or
    1 (mean nonexistent) are masked out and left as NaN.
    """
    a, p, q = (np.asarray(v, dtype=float) for v in (a, p, q))
    ok = (a * q > 1.0) & (-a * p < theta) & (theta < a * q)
    values = np.full(ok.shape, np.nan)
    if not np.any(ok):
        return values, ok
    av, pv, qv = a[ok], p[ok], q[ok]
    kind = theta_kind(theta)
    log_mean_ratio = _gb2_log_moment_ratio(1.0, av, pv, qv)
    if kind == "mld":
        vals = -(special.digamma(pv) - special.digamma(qv)) / av + log_mean_ratio
    elif kind == "theil":
        vals = (special.digamma(pv + 1.0 / av) - special.digamma(qv - 1.0 / av)) / av - log_mean_ratio
    else:
        log_ratio = _gb2_log_moment_ratio(theta, av, pv, qv) - theta * log_mean_ratio
        vals = np.expm1(log_ratio) / (theta * (theta - 1.0))
    values[ok] = vals
    return values, ok


def _ln_ge_vec(theta, sigma2):
    sigma2 = np.asarray(sigma2, dtype=float)
    kind = theta_kind(theta)
    if kind in ("mld", "theil"):
        vals = sigma2 / 2.0
    else:
        c = theta * (theta - 1.0)
        vals = np.expm1(sigma2 * c / 2.0) / c
    return vals, np.ones(sigma2.shape, dtype=bool)


@dataclass(frozen=True)
class GB2:
    """Generalized beta distribution of the second kind.

    Constructed as b * T**(1/a) with T = U/(1-U), U ~ Beta(p, q); a is the
    power parameter, b the scale (in income units), p and q the shapes.
    """

    a: float
    b: float
    p: float
    q: float

    tag: ClassVar[str] = "gb2"
    param_names: ClassVar[tuple[str, ...]] = ("a", "b", "p", "q")

    def __post_init__(self):
        for name in self.param_names:
            _require_positive(name, getattr(self, name))

    @property
    def moment_window(self) -> tuple[float, float]:
        """Open interval of moment orders with finite moments."""
        return (-self.a * self.p, self.a * self.q)

    def to_vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.p, self.q])

    @classmethod
    def from_vector(cls, vec) -> "GB2":
        return cls(*(float(v) for v in vec))

    def cdf(self, x):
        """P(X <= x), via the regularized incomplete beta function."""
        return _gb2_cdf(x, self.a, self.b, self.p, self.q)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("density is defined for x > 0 only")
        return np.exp(_gb2_logpdf(x, self.a, self.b, self.p, self.q))

    def moment(self, theta: float) -> float:
        """E[X**theta]; exists only for -a*p < theta < a*q (open interval)."""
        low, high = self.moment_window
        if not (low < theta < high):
            raise MomentExistenceError(theta, low, high)
        return float(np.exp(theta * np.log(self.b) + _gb2_log_moment_ratio(theta, self.a, self.p, self.q)))

    def mean(self) -> float:
        return self.moment(1.0)

    def ge(self, theta: float) -> float:
        """Generalized entropy of order theta (MLD at 0, Theil at 1)."""
        low, high = self.moment_window
        if high <= 1.0:
            raise MomentExistenceError(1.0, low, high, "mean does not exist (requires q > 1/a)")
        if not (low < theta < high):
            raise MomentExistenceError(theta, low, high)
        values, _ = _gb2_ge_vec(theta, np.array([self.a]), self.b, np.array([self.p]), np.array([self.q]))
        return float(values[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n incomes via the beta construction; deterministic given rng."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        u = rng.beta(self.p, self.q, size=n)
        return self.b * (u / (1.0 - u)) ** (1.0 / self.a)


@dataclass(frozen=True)
class SM:
    """Singh-Maddala distribution: GB2 with the first shape fixed at 1."""

    a: float
    b: float
    q: float

    tag: ClassVar[str] = "sm"
    param_names: ClassVar[tuple[str, ...]] = ("a", "b", "q")

    def __post_init__(self):
        for name in self.param_names:
            _require_positive(name, getattr(self, name))

    @property
    def moment_window(self) -> tuple[float, float]:
        return (-self.a, self.a * self.q)

    def to_vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.q])

    @classmethod
    def from_vector(cls, vec) -> "SM":
        return cls(*(float(v) for v in vec))

    def as_gb2(self) -> GB2:
        return GB2(self.a, self.b, 1.0, self.q)

    def cdf(self, x):
        """P(X <= x), algebraic form 1 - (1 + (x/b)^a)^(-q)."""
        return _sm_cdf(x, self.a, self.b, self.q)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("density is defined for x > 0 only")
        return np.exp(_gb2_logpdf(x, self.a, self.b, 1.0, self.q))

    def moment(self, theta: float) -> float:
        low, high = self.moment_window
        if not (low < theta < high):
            raise MomentExistenceError(theta, low, high)
        return float(np.exp(theta * np.log(self.b) + _gb2_log_moment_ratio(theta, self.a, 1.0, self.q)))

    def mean(self) -> float:
        return self.moment(1.0)

    def ge(self, theta: float) -> float:
        low, high = self.moment_window
        if high <= 1.0:
            raise MomentExistenceError(1.0, low, high, "mean does not exist (requires q > 1/a)")
        if not (low < theta < high):
            raise MomentExistenceError(theta, low, high)
        values, _ = _gb2_ge_vec(theta, np.array([self.a]), self.b, np.array([1.0]), np.array([self.q]))
        return float(values[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        u = rng.beta(1.0, self.q, size=n)
        return self.b * (u / (1.0 - u)) ** (1.0 / self.a)


@dataclass(frozen=True)
class LN:
    """Lognormal distribution LN(xi, sigma2); log X ~ N(xi, sigma2).

    sigma2 == 0 is admitted as a degenerate point mass at exp(xi) so tests
    can exercise the zero-inequality corner; fitting rejects it.
    """

    xi: float
    sigma2: float

    tag: ClassVar[str] = "ln"
    param_names: ClassVar[tuple[str, ...]] = ("xi", "sigma2")

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise ParameterDomainError(f"xi must be finite, got {self.xi}")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ParameterDomainError(f"sigma2 must be >= 0 and finite, got {self.sigma2}")

    @property
    def moment_window(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def to_vector(self) -> np.ndarray:
        return np.array([self.xi, self.sigma2])

    @classmethod
    def from_vector(cls, vec) -> "LN":
        return cls(*(float(v) for v in vec))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.ndim(self.sigma2) == 0 and self.sigma2 == 0.0:
            return np.where(x >= math.exp(self.xi), 1.0, 0.0)
        pos = x > 0
        with np.errstate(divide="ignore"):
            z = (np.log(np.where(pos, x, 1.0)) - self.xi) / np.sqrt(self.sigma2)
        out = np.where(pos, special.ndtr(z), 0.0)
        return np.where(np.isposinf(x), 1.0, out)

    def pdf(self, x):
        if self.sigma2 == 0.0:
            raise ParameterDomainError("degenerate lognormal (sigma2 = 0) has no density")
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("density is defined for x > 0 only")
        sigma = math.sqrt(self.sigma2)
        z = (np.log(x) - self.xi) / sigma
        return np.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2.0 * math.pi))

    def moment(self, theta: float) -> float:
        """E[X**theta] = exp(xi*theta + sigma2*theta^2/2); exists for all theta."""
        if not math.isfinite(theta):
            raise ValueError("moment order must be finite")
        return math.exp(self.xi * theta + self.sigma2 * theta * theta / 2.0)

    def mean(self) -> float:
        return self.moment(1.0)

    def ge(self, theta: float) -> float:
        """GE of order theta; equals sigma2/2 at both limits."""
        values, _ = _ln_ge_vec(theta, np.array([self.sigma2]))
        return float(values[0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        sigma = math.sqrt(self.sigma2)
        return np.exp(self.xi + sigma * rng.standard_normal(n))


FamilyParams = GB2 | SM | LN

FAMILIES: dict[str, type] = {"gb2": GB2, "sm": SM, "ln": LN}


def make_family(tag: str, vector) -> FamilyParams:
    """Build family parameters from a tag and a native-order vector."""
    try:
        cls = FAMILIES[tag]
    except KeyError:
        raise ParameterDomainError(f"unknown family tag {tag!r}; expected one of {sorted(FAMILIES)}") from None
    return cls.from_vector(vector)


def make_batch(tag: str, matrix: np.ndarray) -> FamilyParams:
    """Parameters of K units of one family from a native-order (K, d) matrix.

    Each field is a (K, 1) column, so ``cdf`` broadcasts over a leading unit
    axis: x of shape (K, n) gives one row of n values per unit.  The fields
    are not validated one by one; the caller checks the matrix once.  Every
    row must lie in the family's domain, with LN's sigma2 > 0.
    """
    cls = FAMILIES[tag]
    params = object.__new__(cls)
    vars(params).update(zip(cls.param_names, matrix.T[:, :, None]))
    return params


def family_dim(tag: str) -> int:
    return len(family_param_names(tag))


def family_param_names(tag: str) -> tuple[str, ...]:
    try:
        return FAMILIES[tag].param_names
    except KeyError:
        raise ParameterDomainError(f"unknown family tag {tag!r}; expected one of {sorted(FAMILIES)}") from None


def ge_over_draws(tag: str, draws: np.ndarray, theta: float):
    """GE of each parameter draw (rows), with an admissibility mask.

    Draws outside the moment-existence window are masked, not raised, so
    posterior summaries can count and report them.
    """
    draws = np.asarray(draws, dtype=float)
    if tag == "gb2":
        return _gb2_ge_vec(theta, draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3])
    if tag == "sm":
        return _gb2_ge_vec(theta, draws[:, 0], draws[:, 1], np.ones(len(draws)), draws[:, 2])
    if tag == "ln":
        return _ln_ge_vec(theta, draws[:, 1])
    raise ParameterDomainError(f"unknown family tag {tag!r}")


def mean_over_draws(tag: str, draws: np.ndarray):
    """Distribution mean of each parameter draw, with an admissibility mask."""
    draws = np.asarray(draws, dtype=float)
    if tag == "gb2":
        a, b, p, q = draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3]
        ok = a * q > 1.0
        values = np.full(len(draws), np.nan)
        values[ok] = b[ok] * np.exp(_gb2_log_moment_ratio(1.0, a[ok], p[ok], q[ok]))
        return values, ok
    if tag == "sm":
        a, b, q = draws[:, 0], draws[:, 1], draws[:, 2]
        ok = a * q > 1.0
        values = np.full(len(draws), np.nan)
        values[ok] = b[ok] * np.exp(_gb2_log_moment_ratio(1.0, a[ok], np.ones(ok.sum()), q[ok]))
        return values, ok
    if tag == "ln":
        values = np.exp(draws[:, 0] + draws[:, 1] / 2.0)
        return values, np.ones(len(draws), dtype=bool)
    raise ParameterDomainError(f"unknown family tag {tag!r}")
