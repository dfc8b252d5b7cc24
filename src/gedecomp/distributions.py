"""Parametric income distributions: GB2, Singh-Maddala, and lognormal.

Each family provides the cdf, density, theta-order moments, closed-form
generalized-entropy values (with the mean-log-deviation and Theil limits),
and seeded sampling.  Singh-Maddala is the GB2 with p fixed at 1 (McDonald
1984): ``SM`` subclasses ``GB2`` and keeps only its algebraic cdf.  Each
family class states its parameter layout (``param_names``, ``n_real``).

All gamma-function arithmetic is kept in log space so large shape values do
not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "family_class",
    "make_family",
    "make_batch",
    "ge_terms",
]

#: theta values within this distance of 0 or 1 dispatch to the MLD / Theil
#: closed forms instead of the generic 1/(theta*(theta-1)) expression.
LIMIT_TOL = 1e-9

# Outside the LIMIT_TOL windows but this close to 0 or 1, generic GE forms
# cancel to about eps/|theta| (or eps/|theta - 1|) of their value.
_NEAR_LIMIT = 0.1

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


def _cdf(x, of_log):
    """A family's cdf at x from its kernel of log x: 0 for x <= 0 (and NaN), 1 at x = +inf.

    The kernel's output may be larger than x (x broadcasts against the
    parameters), so it is masked only when x holds such an entry.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & (x < math.inf)
    with np.errstate(divide="ignore", over="ignore"):
        out = of_log(np.log(np.where(inside, x, 1.0)))
    if inside.all():
        return np.asarray(out)
    return np.where(inside, out, np.where(np.isposinf(x), 1.0, 0.0))


# ---------------------------------------------------------------------------
# GB2 kernels, shared by GB2 and SM.  All operate on float arrays and assume
# parameters already validated.
# ---------------------------------------------------------------------------

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


def _gb2_log_moment_ratio(theta, a, p, q, gammaln_p, gammaln_q):
    # log E[(X/b)^theta] from gammaln(p) and gammaln(q); caller handles the existence window
    return special.gammaln(p + theta / a) + special.gammaln(q - theta / a) - gammaln_p - gammaln_q


def _gammaln_increment(x, h):
    """gammaln(x + h) - gammaln(x) without the cancellation of the difference.

    Gamma(x + 1) = x Gamma(x) moves the interval to [x + 1, x + 1 + h], away
    from the pole at 0 that x + h may approach; there the 16-point
    Gauss-Legendre rule integrates digamma to double precision, summed in node
    order so that no entry depends on its neighbours (a matrix product's may).
    """
    half = 0.5 * h
    total = sum(w * special.digamma(x + 1.0 + half * (1.0 + node)) for node, w in zip(_GL_NODES, _GL_WEIGHTS))
    return half * total - np.log1p(h / x)


class _GB2Terms:
    """GB2-type rows' columns and, over the rows with a mean (a*q > 1), gammaln(p), gammaln(q) and log E[X/b]."""

    def __init__(self, a, b, p, q):
        self.a, self.b, self.p, self.q = a, b, p, q
        self.has_mean = m = a * q > 1.0
        gammaln_p, gammaln_q = special.gammaln(p[m]), special.gammaln(q[m])
        self.logs = gammaln_p, gammaln_q, _gb2_log_moment_ratio(1.0, a[m], p[m], q[m], gammaln_p, gammaln_q)

    def ge(self, theta):
        """GE of each row and its mask: rows without theta or 1 in the moment window are NaN."""
        ok = self.has_mean & (-self.a * self.p < theta) & (theta < self.a * self.q)
        values = np.full(ok.shape, np.nan)
        if not np.any(ok):
            return values, ok
        av, pv, qv = self.a[ok], self.p[ok], self.q[ok]
        gammaln_p, gammaln_q, log_mean_ratio = (row[ok[self.has_mean]] for row in self.logs)
        kind = theta_kind(theta)
        if kind == "mld":
            vals = -(special.digamma(pv) - special.digamma(qv)) / av + log_mean_ratio
        elif kind == "theil":
            vals = (special.digamma(pv + 1.0 / av) - special.digamma(qv - 1.0 / av)) / av - log_mean_ratio
        else:
            limit = 1.0 if theta > 0.5 else 0.0
            if abs(theta - limit) < _NEAR_LIMIT:  # increments of theta - limit about the MLD or Theil arguments
                h = (theta - limit) / av
                log_ratio = (_gammaln_increment(pv + limit / av, h) + _gammaln_increment(qv - limit / av, -h)
                             - (theta - limit) * log_mean_ratio)
            else:
                log_ratio = _gb2_log_moment_ratio(theta, av, pv, qv, gammaln_p, gammaln_q) - theta * log_mean_ratio
            vals = np.expm1(log_ratio) / (theta * (theta - 1.0))
        values[ok] = vals
        return values, ok

    def mean(self):
        values = np.full(len(self.a), np.nan)
        values[self.has_mean] = self.b[self.has_mean] * np.exp(self.logs[2])
        return values, self.has_mean.copy()


@dataclass(frozen=True)
class _LNTerms:
    """LN rows hold no terms beyond their xi and sigma2 columns."""

    xi: np.ndarray
    sigma2: np.ndarray

    def ge(self, theta):
        if theta_kind(theta) in ("mld", "theil"):
            vals = self.sigma2 / 2.0
        else:
            c = theta * (theta - 1.0)
            vals = np.expm1(self.sigma2 * c / 2.0) / c
        return vals, np.ones(len(self.sigma2), dtype=bool)

    def mean(self):
        return np.exp(self.xi + self.sigma2 / 2.0), np.ones(len(self.xi), dtype=bool)


class _Family:
    """Layout and vector round trip shared by the family classes."""

    tag: ClassVar[str]
    param_names: ClassVar[tuple[str, ...]]  # native order
    #: how many leading parameters range over the reals; the rest are positive
    n_real: ClassVar[int] = 0

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.param_names])

    @classmethod
    def from_vector(cls, vec) -> "_Family":
        return cls(*(float(v) for v in vec))

    def mean(self) -> float:
        return self.moment(1.0)


@dataclass(frozen=True)
class GB2(_Family):
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

    def cdf(self, x):
        """P(X <= x), via the regularized incomplete beta function."""
        return _cdf(x, lambda log_x: special.betainc(self.p, self.q, special.expit(self.a * (log_x - np.log(self.b)))))

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
        log_ratio = _gb2_log_moment_ratio(theta, self.a, self.p, self.q, *special.gammaln([self.p, self.q]))
        return float(self.b**theta * np.exp(log_ratio))  # at theta = 1, the mean of ``ge_terms`` bitwise

    def ge(self, theta: float) -> float:
        """Generalized entropy of order theta (MLD at 0, Theil at 1)."""
        low, high = self.moment_window
        if high <= 1.0:
            raise MomentExistenceError(1.0, low, high, "mean does not exist (requires q > 1/a)")
        if not (low < theta < high):
            raise MomentExistenceError(theta, low, high)
        return float(_GB2Terms(np.array([self.a]), self.b, np.array([self.p]), np.array([self.q])).ge(theta)[0][0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n incomes via the beta construction; deterministic given rng."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        u = rng.beta(self.p, self.q, size=n)
        return self.b * (u / (1.0 - u)) ** (1.0 / self.a)


@dataclass(frozen=True)
class SM(GB2):
    """Singh-Maddala distribution: the GB2 with its first shape p fixed at 1."""

    p: float = field(default=1.0, init=False, repr=False)

    tag: ClassVar[str] = "sm"
    param_names: ClassVar[tuple[str, ...]] = ("a", "b", "q")

    def cdf(self, x):
        """P(X <= x), algebraic form 1 - (1 + (x/b)^a)^(-q), evaluated via log1p(exp)."""
        return _cdf(x, lambda log_x: -np.expm1(-self.q * np.logaddexp(0.0, self.a * (log_x - np.log(self.b)))))


@dataclass(frozen=True)
class LN(_Family):
    """Lognormal distribution LN(xi, sigma2); log X ~ N(xi, sigma2).

    sigma2 == 0 is admitted as a degenerate point mass at exp(xi) so tests
    can exercise the zero-inequality corner; fitting rejects it.
    """

    xi: float
    sigma2: float

    tag: ClassVar[str] = "ln"
    param_names: ClassVar[tuple[str, ...]] = ("xi", "sigma2")
    n_real: ClassVar[int] = 1

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise ParameterDomainError(f"xi must be finite, got {self.xi}")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ParameterDomainError(f"sigma2 must be >= 0 and finite, got {self.sigma2}")

    @property
    def moment_window(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def cdf(self, x):
        if np.ndim(self.sigma2) == 0 and self.sigma2 == 0.0:
            return np.where(np.asarray(x, dtype=float) >= math.exp(self.xi), 1.0, 0.0)
        return _cdf(x, lambda log_x: special.ndtr((log_x - self.xi) / np.sqrt(self.sigma2)))

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

    def ge(self, theta: float) -> float:
        """GE of order theta; equals sigma2/2 at both limits."""
        return float(_LNTerms(np.array([self.xi]), np.array([self.sigma2])).ge(theta)[0][0])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("sample size must be >= 1")
        sigma = math.sqrt(self.sigma2)
        return np.exp(self.xi + sigma * rng.standard_normal(n))


FamilyParams = GB2 | LN

FAMILIES: dict[str, type] = {"gb2": GB2, "sm": SM, "ln": LN}


def family_class(tag: str) -> type:
    """The family class of a tag; ParameterDomainError for an unknown tag."""
    try:
        return FAMILIES[tag]
    except KeyError:
        raise ParameterDomainError(f"unknown family tag {tag!r}; expected one of {sorted(FAMILIES)}") from None


def make_family(tag: str, vector) -> FamilyParams:
    """Build family parameters from a tag and a native-order vector."""
    return family_class(tag).from_vector(vector)


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


def ge_terms(tag: str, draws):
    """Theta-invariant GE terms of parameter draws (rows, native order).

    ``.ge(theta)`` and ``.mean()`` give each row's value and admissibility mask: draws
    outside the moment window are masked, not raised, so posterior summaries can count them.
    """
    cls = family_class(tag)
    draws = np.asarray(draws, dtype=float)
    columns = dict(zip(cls.param_names, draws.T))
    if cls is LN:
        return _LNTerms(**columns)
    return _GB2Terms(*(columns[name] if name in columns else np.broadcast_to(getattr(cls, name), len(draws))
                       for name in GB2.param_names))
