"""Grouped-data likelihood and random-walk Metropolis-Hastings fitting.

Income is observed only as counts over brackets with an open top bracket.
Each positive parameter carries an inverse-gamma(1, 1) prior; the lognormal
location gets an improper flat prior.  The sampler walks log-transformed
positive parameters (the lognormal location stays on its natural scale) and
may adapt its proposal during burn-in only, so retained draws always come
from a fixed kernel.

Units of one family and bracket count are fitted together (``fit_batch``):
one lockstep random walk over a (K, d) state, with one vectorised log
density per iteration for all K units.  Each unit keeps its own random
stream, step sizes and adaptation, so its draws are those of the same unit
fitted alone (``fit`` is the batch of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    FAMILIES,
    LN,
    FamilyParams,
    ParameterDomainError,
    family_dim,
    family_param_names,
    ge_over_draws,
    make_batch,
    mean_over_draws,
)

__all__ = [
    "GroupedSample",
    "McmcConfig",
    "PosteriorDraws",
    "PosteriorSummary",
    "UnderIdentifiedError",
    "log_likelihood",
    "log_prior",
    "fit",
    "fit_batch",
    "posterior_ge",
    "posterior_mean_income",
    "random_walk_chain",
]

#: estimates with more than this fraction of draws outside the moment window
#: are flagged unreliable (still reported).
UNRELIABLE_FRACTION = 0.01


class UnderIdentifiedError(ValueError):
    """Raised when a family has more parameters than free bracket cells."""


@dataclass(frozen=True)
class GroupedSample:
    """Bracket boundaries and observed counts for one population unit.

    Boundaries run 0 = c_0 < c_1 < ... < c_G = inf; counts may be
    non-integer (published estimates are often rescaled).
    """

    boundaries: np.ndarray
    counts: np.ndarray
    unit: str = ""

    def __post_init__(self):
        bounds = np.asarray(self.boundaries, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "counts", counts)
        if bounds.ndim != 1 or counts.ndim != 1 or len(bounds) != len(counts) + 1:
            raise ValueError("need G+1 boundaries for G bracket counts")
        if len(counts) < 2:
            raise ValueError("need at least two brackets")
        if bounds[0] != 0.0:
            raise ValueError(f"first boundary must be 0, got {bounds[0]}")
        if not math.isinf(bounds[-1]):
            raise ValueError("last boundary must be +inf (open top bracket)")
        if np.any(np.diff(bounds) <= 0.0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(~np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValueError("counts must be finite and nonnegative")
        if counts.sum() <= 0.0:
            raise ValueError("total count must be positive")

    @property
    def n_brackets(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def scaled(self, factor: float) -> "GroupedSample":
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return GroupedSample(self.boundaries, self.counts * factor, self.unit)


@dataclass(frozen=True)
class McmcConfig:
    """Random-walk MH settings; adaptation happens during burn-in only."""

    iterations: int = 10_000
    burnin: int = 2_000
    step_sizes: tuple[float, ...] | None = None
    adapt: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must satisfy 0 <= burnin < iterations")
        if self.step_sizes is not None:
            steps = tuple(float(s) for s in self.step_sizes)
            object.__setattr__(self, "step_sizes", steps)
            if any(s <= 0.0 or not math.isfinite(s) for s in steps):
                raise ValueError("step sizes must be positive")


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained MCMC draws for one unit, in the family's native order."""

    family: str
    unit: str
    draws: np.ndarray  # (iterations - burnin, dim)
    param_names: tuple[str, ...]
    acceptance_rate: float
    config: McmcConfig

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def param_means(self) -> np.ndarray:
        return self.draws.mean(axis=0)

    def param_sds(self) -> np.ndarray:
        return self.draws.std(axis=0, ddof=1)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean/sd of a scalar, with moment-window exclusions counted."""

    value: float
    sd: float
    n_draws: int
    n_excluded: int

    @property
    def unreliable(self) -> bool:
        return self.n_excluded > UNRELIABLE_FRACTION * self.n_draws


def log_likelihood(params: FamilyParams, data: GroupedSample) -> float | np.ndarray:
    """Grouped-data log likelihood sum_g y_g * log(F(c_g) - F(c_{g-1})).

    The open top bracket uses 1 - F(c_{G-1}) exactly.  A bracket with
    positive count but zero model probability yields -inf, never an
    exception; zero-count brackets contribute nothing.

    Also takes K units at once: parameters from ``make_batch`` with data
    whose boundaries are (K, G+1) and counts (K, G); the result is then one
    log likelihood per unit.
    """
    cdf_vals = params.cdf(data.boundaries[..., 1:-1])
    cum = np.zeros(cdf_vals.shape[:-1] + (cdf_vals.shape[-1] + 2,))
    cum[..., 1:-1] = cdf_vals
    cum[..., -1] = 1.0
    probs = cum[..., 1:] - cum[..., :-1]
    y = data.counts
    active = y > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a (rounded) negative probability counts as zero: its term is -inf
        ll = np.where(active, y * np.log(np.maximum(probs, 0.0)), 0.0).sum(axis=-1)
    return ll if ll.ndim else float(ll)


def _ig11_logpdf(x: float) -> float:
    # inverse-gamma(1, 1): log pi(x) = -2 log x - 1/x
    if x <= 0.0:
        return -math.inf
    return -2.0 * math.log(x) - 1.0 / x


def log_prior(params: FamilyParams) -> float:
    """Independent IG(1, 1) priors on positive parameters; flat on LN's xi."""
    if isinstance(params, LN):
        return _ig11_logpdf(params.sigma2)
    return float(sum(_ig11_logpdf(getattr(params, name)) for name in params.param_names))


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

_ADAPT_WINDOW = 50
_COV_REFRESH = 100
_TARGET_RATE = 0.3


def _draw_window(rngs, z_rows, log_u: np.ndarray) -> None:
    """Fill each unit's next n normal vectors and log uniforms.

    z_rows[k] holds unit k's n (d,) output rows and log_u is (n, K).  Unit
    k reads its own stream in the order of a chain run alone: one
    standard_normal(d), then one uniform, every iteration.
    """
    for k, (rng, rows) in enumerate(zip(rngs, z_rows)):
        normal, uniform = rng.standard_normal, rng.random
        u = []
        for row in rows:
            normal(out=row)
            u.append(uniform())
        log_u[:, k] = list(map(math.log, u))


def random_walk_chain(
    log_density,
    start: np.ndarray,
    step_sizes: np.ndarray,
    iterations: int,
    burnin: int,
    rngs,
    adapt: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian random-walk Metropolis chains for K units in lockstep.

    start and step_sizes are (K, d); log_density maps a (K, d) state to K
    log densities, and rngs holds one Generator per unit.  The units share
    only the loop: each reads its own stream and keeps its own proposal.

    With adapt=True each unit's proposal is tuned during burn-in: its
    per-parameter steps are rescaled toward ~30% acceptance, and from
    mid-burn-in on its proposal covariance is estimated from its own chain
    history (the ridge-shaped posteriors of heavy-tailed income fits mix far
    too slowly under diagonal proposals).  The kernel is frozen once burn-in
    ends, so retained draws come from a fixed-kernel chain.

    Returns (retained draws (K, iterations - burnin, d), post-burn-in
    acceptance rate per unit).
    """
    t = np.array(start, dtype=float)
    n_units, d = t.shape
    lp = log_density(t)
    if not np.all(np.isfinite(lp)):
        raise ValueError(f"log density is not finite at the starting point of row {np.argmin(np.isfinite(lp))}")

    steps = np.array(step_sizes, dtype=float)
    scale = np.ones((n_units, 1))
    chol = np.zeros((n_units, d, d))
    has_chol = np.zeros(n_units, dtype=bool)
    n_chol = 0
    cov_phase_start = max(burnin // 2, 2 * _ADAPT_WINDOW) if adapt else iterations
    history = np.empty((n_units, burnin, d)) if (adapt and burnin > 0) else None

    kept = None
    accepted_window = np.zeros(n_units, dtype=np.int64)
    accepted_kept = np.zeros(n_units, dtype=np.int64)
    z_window = np.empty((_ADAPT_WINDOW, n_units, d))
    log_u_window = np.empty((_ADAPT_WINDOW, n_units))
    z_rows = [list(z_window[:, k]) for k in range(n_units)]

    for i in range(iterations):
        j = i % _ADAPT_WINDOW
        if j == 0:
            n = min(_ADAPT_WINDOW, iterations - i)
            _draw_window(rngs, [rows[:n] for rows in z_rows], log_u_window[:n])
        z = z_window[j]
        if n_chol == 0:
            proposal = t + steps * z
        else:
            rotated = t + scale * np.matmul(chol, z[:, :, None])[:, :, 0]
            proposal = rotated if n_chol == n_units else np.where(has_chol[:, None], rotated, t + steps * z)
        lp_prop = log_density(proposal)
        accept = log_u_window[j] < lp_prop - lp
        if accept.any():
            t = np.where(accept[:, None], proposal, t)
            lp = np.where(accept, lp_prop, lp)

        if i >= burnin:
            if kept is None:
                history = None  # freed before the retained draws are allocated
                kept = np.empty((n_units, iterations - burnin, d))
            kept[:, i - burnin] = t
            accepted_kept += accept
            continue
        accepted_window += accept
        if history is not None:
            history[:, i] = t
        if not adapt:
            continue
        if (i + 1) % _ADAPT_WINDOW == 0:
            for k in range(n_units):
                rate = int(accepted_window[k]) / _ADAPT_WINDOW
                factor = float(np.clip(math.exp(0.66 * (rate - _TARGET_RATE)), 0.5, 2.0))
                if has_chol[k]:
                    scale[k] = float(np.clip(scale[k, 0] * factor, 0.1, 10.0))
                else:
                    steps[k] *= factor
            accepted_window[:] = 0
        if i + 1 >= cov_phase_start and (i + 1) % _COV_REFRESH == 0:
            for k in range(n_units):
                cov = np.cov(history[k, (i + 1) // 2 : i + 1].T).reshape(d, d)
                cov += 1e-12 * np.eye(d) * max(1.0, np.trace(cov))
                try:
                    chol[k] = np.linalg.cholesky((2.38**2 / d) * cov)
                except np.linalg.LinAlgError:
                    continue
                has_chol[k] = True
            n_chol = int(has_chol.sum())

    return kept, accepted_kept / max(iterations - burnin, 1)


def _bracket_quantile(data: GroupedSample, prob: float) -> float | None:
    """Linear interpolation of a quantile on the bracket ecdf, if reachable."""
    cum = np.cumsum(data.counts) / data.total
    edges = data.boundaries
    interior_cum = cum[:-1]  # ecdf at c_1 .. c_{G-1}
    idx = int(np.searchsorted(interior_cum, prob))
    if idx >= len(interior_cum):
        return None  # quantile falls in the open top bracket
    lo_edge = edges[idx]
    hi_edge = edges[idx + 1]
    lo_cum = interior_cum[idx - 1] if idx > 0 else 0.0
    hi_cum = interior_cum[idx]
    if hi_cum <= lo_cum:
        return None
    return float(lo_edge + (hi_edge - lo_edge) * (prob - lo_cum) / (hi_cum - lo_cum))


def _initial_guess(family: str, data: GroupedSample) -> np.ndarray:
    """Method-of-quantiles start (median plus an upper quantile), unit fallback."""
    median = _bracket_quantile(data, 0.5)
    cum = np.cumsum(data.counts) / data.total
    upper_prob = min(0.9, 0.5 + 0.9 * (float(cum[-2]) - 0.5)) if cum[-2] > 0.55 else None
    upper = _bracket_quantile(data, upper_prob) if upper_prob else None

    if family == "ln":
        if median is None or median <= 0.0:
            return np.array([0.0, 1.0])
        xi = math.log(median)
        if upper is None or upper <= median or upper_prob is None:
            return np.array([xi, 1.0])
        from scipy.special import ndtri

        sigma = (math.log(upper) - xi) / float(ndtri(upper_prob))
        return np.array([xi, max(sigma * sigma, 1e-3)])

    # Singh-Maddala-style start with unit shapes: the median pins the scale,
    # the upper quantile pins the power parameter.
    if median is None or median <= 0.0:
        b0, a0 = 1.0, 1.0
    else:
        b0 = median
        if upper is None or upper <= median or upper_prob is None:
            a0 = 1.0
        else:
            odds = upper_prob / (1.0 - upper_prob)
            a0 = math.log(odds) / math.log(upper / median)
            if not math.isfinite(a0) or a0 <= 0.0:
                a0 = 1.0
    if family == "sm":
        return np.array([a0, b0, 1.0])
    return np.array([a0, b0, 1.0, 1.0])  # gb2


def _to_chain_space(family: str, params_vec: np.ndarray) -> np.ndarray:
    if family == "ln":
        return np.array([params_vec[0], math.log(params_vec[1])])
    return np.log(params_vec)


def _from_chain_space(family: str, t: np.ndarray) -> np.ndarray:
    """Natural parameters of chain states stacked along the last axis."""
    natural = np.exp(t)
    if family == "ln":
        natural[..., 0] = t[..., 0]
    return natural


def _chain_log_prior(family: str, t: np.ndarray, natural: np.ndarray) -> np.ndarray:
    """log_prior plus the log Jacobian of the log transform, per chain state.

    For a positive parameter x = exp(t) the IG(1, 1) term -2 log x - 1/x and
    the Jacobian term t add up to -(t + 1/x).
    """
    if family == "ln":
        return -(t[:, 1] + 1.0 / natural[:, 1])
    return -(t + 1.0 / natural).sum(axis=1)


def _check_unit(family: str, data: GroupedSample, config: McmcConfig) -> None:
    """Raise when a unit cannot be fitted, before any sampling."""
    if family not in FAMILIES:
        raise ParameterDomainError(f"unknown family tag {family!r}")
    dim = family_dim(family)
    if data.n_brackets - 1 < dim:
        raise UnderIdentifiedError(
            f"{family} needs at least {dim + 1} brackets, got {data.n_brackets}"
        )
    if config.step_sizes is not None and len(config.step_sizes) != dim:
        raise ValueError(f"expected {dim} step sizes for family {family!r}, got {len(config.step_sizes)}")


@dataclass(frozen=True)
class _SampleStack:
    """Boundaries (K, G+1) and counts (K, G) of K samples, for log_likelihood."""

    boundaries: np.ndarray
    counts: np.ndarray


def _chain_log_density(family: str, samples):
    """Log posterior of K samples with G brackets each, as a map (K, d) -> (K,).

    Row k is a chain state of unit k.  Rows off the parameter domain
    (non-finite or nonpositive natural parameters, LN's sigma2 = 0) get
    -inf, found from the whole matrix at once.
    """
    stack = _SampleStack(
        np.array([data.boundaries for data in samples]), np.array([data.counts for data in samples])
    )
    # open lower bounds of the natural parameters
    lower = np.array([-math.inf, 0.0]) if family == "ln" else np.zeros(family_dim(family))

    def log_density(t: np.ndarray) -> np.ndarray:
        natural = _from_chain_space(family, t)
        inside = (natural > lower) & (natural < math.inf)
        if inside.all():
            ll = log_likelihood(make_batch(family, natural), stack)
        else:
            ok = np.logical_and.reduce(inside, axis=1)
            natural = np.where(ok[:, None], natural, 1.0)
            ll = np.where(ok, log_likelihood(make_batch(family, natural), stack), -math.inf)
        # fmax turns NaN (a cdf that failed at extreme parameters) into -inf
        return np.fmax(ll + _chain_log_prior(family, t, natural), -math.inf)

    return log_density


def fit_batch(family: str, samples, configs) -> list[PosteriorDraws]:
    """Posterior sampling for K units of one family in one lockstep chain.

    The units need the same number of brackets, and their configs may differ
    only in seed and step_sizes.  Each unit's draws equal those of
    ``fit(family, sample, config)``: the batch shares the loop and the
    vectorised log density, not the randomness or the adaptation.  Raises
    UnderIdentifiedError when the family has more parameters than free
    bracket cells, and ValueError naming the unit whose log density is not
    finite at its start.
    """
    samples, configs = list(samples), list(configs)
    if not samples or len(samples) != len(configs):
        raise ValueError("need one config per sample, and at least one sample")
    for data, config in zip(samples, configs):
        _check_unit(family, data, config)
    shared = {(c.iterations, c.burnin, c.adapt) for c in configs}
    if len(shared) > 1:
        raise ValueError("configs in one batch may differ only in seed and step_sizes")
    if len({data.n_brackets for data in samples}) > 1:
        raise ValueError("samples in one batch need the same number of brackets")
    iterations, burnin, adapt = shared.pop()
    dim = family_dim(family)
    log_density = _chain_log_density(family, samples)
    start = np.array([_to_chain_space(family, _initial_guess(family, data)) for data in samples])
    bad = ~np.isfinite(log_density(start))
    if bad.any():
        start[bad] = _to_chain_space(family, np.ones(dim) if family != "ln" else np.array([0.0, 1.0]))
        for k in np.flatnonzero(bad & ~np.isfinite(log_density(start))):
            raise ValueError(f"unit {samples[k].unit!r}: log density is not finite at the starting point")
    steps = np.array([c.step_sizes if c.step_sizes is not None else [0.1] * dim for c in configs], dtype=float)

    rngs = [np.random.default_rng(c.seed) for c in configs]
    draws, acc_rates = random_walk_chain(log_density, start, steps, iterations, burnin, rngs, adapt=adapt)
    # to natural parameters in place, so the batch never holds its draws twice
    positive = draws[..., 1] if family == "ln" else draws
    np.exp(positive, out=positive)
    return [
        PosteriorDraws(
            family=family,
            unit=data.unit,
            draws=draws[k],
            param_names=family_param_names(family),
            acceptance_rate=float(acc_rates[k]),
            config=config,
        )
        for k, (data, config) in enumerate(zip(samples, configs))
    ]


def fit(family: str, data: GroupedSample, config: McmcConfig) -> PosteriorDraws:
    """Posterior sampling for one unit's grouped data (a batch of one).

    Deterministic given config.seed.  Raises UnderIdentifiedError when the
    family has more parameters than free bracket cells.
    """
    return fit_batch(family, [data], [config])[0]


def _summarize(values: np.ndarray, ok: np.ndarray) -> PosteriorSummary:
    n = len(values)
    used = values[ok]
    if used.size == 0:
        return PosteriorSummary(value=math.nan, sd=math.nan, n_draws=n, n_excluded=n)
    sd = float(used.std(ddof=1)) if used.size > 1 else 0.0
    return PosteriorSummary(
        value=float(used.mean()),
        sd=sd,
        n_draws=n,
        n_excluded=int(n - used.size),
    )


def posterior_ge(draws: PosteriorDraws, theta: float) -> PosteriorSummary:
    """Posterior mean (and sd) of the generalized entropy over retained draws.

    Draws whose moment window excludes theta are dropped and counted;
    crossing the 1% exclusion fraction marks the summary unreliable.
    """
    values, ok = ge_over_draws(draws.family, draws.draws, theta)
    return _summarize(values, ok)


def posterior_mean_income(draws: PosteriorDraws) -> PosteriorSummary:
    """Posterior mean (and sd) of the distribution mean over retained draws."""
    values, ok = mean_over_draws(draws.family, draws.draws)
    return _summarize(values, ok)


def derive_seed(master_seed: int, name: str) -> int:
    """Stable per-unit seed from the master seed and the unit id.

    Hash-based, so adding or removing one unit never perturbs the chains of
    its siblings.
    """
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def config_for_unit(config: McmcConfig, master_seed: int, unit: str) -> McmcConfig:
    """Config with a per-unit derived seed (see derive_seed)."""
    return replace(config, seed=derive_seed(master_seed, unit))
