"""Grouped-data likelihood and posterior sampling.

Income is observed only as counts over brackets with an open top bracket.
Each positive parameter carries an inverse-gamma(1, 1) prior; a real
parameter (the lognormal location) gets an improper flat prior.  Sampling
runs in chain space: log-transformed positive parameters, real ones on
their natural scale (the family's ``n_real`` says how many lead).

Each unit is sampled by an independence Metropolis-Hastings chain anchored
at its Laplace approximation (Tierney 1994): a damped Newton search finds
the mode, and iterations - burnin proposals are drawn from a multivariate t
(5 degrees of freedom) centred there, scaled by the inverse negative
Hessian.  The search starts from a least-squares line through the bracket
ecdf: the log-logistic (GB2 and SM with unit shapes) for the income
families, the lognormal for LN, and the chain-space origin when the ecdf
has fewer than two distinct values inside (0, 1).  The chain starts at the
mode, so burn-in draws nothing.  A unit whose Hessian is not negative
definite, whose importance weights have a Pareto k-hat above 0.7 (PSIS; see
``diagnostics``), or whose chain accepts fewer than half its proposals
falls back to a fixed-kernel Gaussian
random-walk Metropolis-Hastings chain from the same mode.  Its proposal is
the Laplace covariance scaled by 2.38^2 / d (Roberts, Gelman & Gilks 1997),
with the Hessian's eigenvalues taken in absolute value; a unit whose mode
search stopped at the domain's edge, without a Hessian, steps 0.1 in each
chain coordinate.  The walk discards its first burnin iterations.

Units of one family and bracket count are fitted together (``fit_batch``,
one config and one seed per unit).  The three stages share one contract:
the mode search, the independence chains and the fallback walk read the
batch's log density as ``log_density(rows, units)``, row r a chain state of
the unit at batch index units[r], and a row's value never depends on the
other rows.  The mode search and the walk take one call per step for all
their units, and the proposals are evaluated in blocks of at most 2,048
rows, with one bracket row for the block when the batch's units share
their boundaries.  Both samplers have one output contract: each writes
its units' retained states into their rows of the batch's (K, n, d) draws,
the one store of the batch's chains, and returns only per-unit scalars
(the acceptance rates, and for the Laplace stage the k-hats).  Each
sampler takes the batch indices of its units and their seeds, and spawns
each unit's three streams itself, one per draw kind (normals, chi-squares,
uniforms), so a unit's draws are those of the same unit fitted alone
(``fit`` is the batch of one).  A stream read in pieces gives the draws of
one whole read, so a shorter chain is a prefix of a longer one when both
take the same sampler, and the walk's draws at one burn-in are a slice of
its draws at a shorter one.  The gate reads all of a unit's proposals, so a
unit can pass it at one length and fall back at another.

A fit batch is also what is summarised: its units share one ``_Batch``,
which builds the theta-invariant GE terms of its draws once and makes the
K summaries of a theta (or of the mean income) on the first request for
that key, in one masked reduction per block of whole units, and keeps them.
``posterior_ge`` and ``posterior_mean_income`` return the unit's row of
those summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .diagnostics import pareto_k
from .distributions import FamilyParams, family_class, ge_terms, make_batch

__all__ = [
    "GroupedSample",
    "McmcConfig",
    "PosteriorDraws",
    "PosteriorSummary",
    "UnderIdentifiedError",
    "log_likelihood",
    "fit",
    "fit_batch",
    "posterior_ge",
    "posterior_mean_income",
]

#: estimates with more than this fraction of draws outside the moment window
#: are flagged unreliable (still reported).
UNRELIABLE_FRACTION = 0.01
#: estimates with more than this fraction of draws outside the moment window
#: are undefined: the pipeline raises rather than average the draws left.
UNDEFINED_FRACTION = 0.5


class UnderIdentifiedError(ValueError):
    """Raised when a family has more parameters than free bracket cells."""


def _check_boundaries(bounds: np.ndarray) -> None:
    """The one bracket rule: boundaries 0 = c_0 < c_1 < ... < c_G = inf, with G >= 2."""
    if bounds.ndim != 1 or len(bounds) < 3:
        raise ValueError("need at least two brackets")
    if bounds[0] != 0.0:
        raise ValueError(f"first boundary must be 0, got {bounds[0]}")
    if bounds[-1] != math.inf:
        raise ValueError("last boundary must be +inf (open top bracket)")
    if not np.all(np.diff(bounds) > 0.0):
        raise ValueError("boundaries must be strictly increasing")


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
        _check_boundaries(bounds)
        if counts.ndim != 1 or len(bounds) != len(counts) + 1:
            raise ValueError("need G+1 boundaries for G bracket counts")
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
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError("scale factor must be positive and finite")
        return GroupedSample(self.boundaries, self.counts * factor, self.unit)


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.

    iterations - burnin is the number of retained draws: the independence
    sampler's proposals, or the fallback random walk's iterations after the
    burnin it discards.
    """

    iterations: int = 10_000
    burnin: int = 2_000
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "burnin"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must satisfy 0 <= burnin < iterations")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained MCMC draws for one unit, in the family's native order.

    sampler is "laplace" (the independence sampler) or "random-walk" (the
    fixed-kernel fallback walk from the mode); pareto_k is the k-hat of the
    unit's Laplace importance weights, NaN when its Hessian was not negative
    definite.  A fallback unit with pareto_k <= 0.7 accepted fewer than half
    its Laplace proposals; its acceptance_rate is the random walk's over its
    retained iterations.

    The unit's summaries are row _row of its fit batch's (see ``_Batch``); a
    PosteriorDraws built by hand, or copied with ``dataclasses.replace``, is
    its own batch of one, made on first use.
    """

    family: str
    unit: str
    draws: np.ndarray  # (iterations - burnin, dim)
    acceptance_rate: float
    config: McmcConfig
    sampler: str = "random-walk"
    pareto_k: float = math.nan
    _batch: _Batch | None = field(default=None, init=False, repr=False, compare=False)
    _row: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def param_names(self) -> tuple[str, ...]:
        return family_class(self.family).param_names

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

    @property
    def undefined(self) -> bool:
        return self.n_excluded > UNDEFINED_FRACTION * self.n_draws


def log_likelihood(params: FamilyParams, data: GroupedSample) -> float | np.ndarray:
    """Grouped-data log likelihood sum_g y_g * log(F(c_g) - F(c_{g-1})).

    The open top bracket uses 1 - F(c_{G-1}) exactly.  A bracket with
    positive count but zero model probability yields -inf, never an
    exception; zero-count brackets contribute nothing.

    Also takes K units at once: parameters from ``make_batch`` with data
    whose boundaries are (K, G+1) and counts (K, G), either of them possibly
    one row that every unit shares; the result is then one log likelihood
    per unit.
    """
    cdf = params.cdf(data.boundaries[..., 1:-1])  # F(c_1) .. F(c_{G-1})
    terms = np.empty(cdf.shape[:-1] + (cdf.shape[-1] + 1,))
    terms[..., 0] = cdf[..., 0]
    np.subtract(cdf[..., 1:], cdf[..., :-1], out=terms[..., 1:-1])
    np.subtract(1.0, cdf[..., -1], out=terms[..., -1])
    y = data.counts
    with np.errstate(divide="ignore", invalid="ignore"):
        # a (rounded) negative probability counts as zero: its term is -inf
        np.log(np.maximum(terms, 0.0, out=terms), out=terms)
        terms *= y
    active = y > 0.0
    if not active.all():
        terms = np.where(active, terms, 0.0)
    ll = terms.sum(axis=-1)
    return ll if ll.ndim else float(ll)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 2048  # rows per log density call of the independence sampler


def _unit_streams(seed: int) -> list[np.random.Generator]:
    """A unit's three random streams, one per draw kind: normals, chi-squares, uniforms."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)]


def _random_walk_chains(log_density, units, seeds, start, lp_start, factors, burnin, draws):
    """Fixed-kernel Gaussian random-walk Metropolis chains for K units in lockstep.

    Row k is the unit at batch index units[k]: it starts at start[k] (d,),
    where the log density is lp_start[k], proposes t + factors[k] @ z with z
    standard normal, discards its first burnin iterations and writes the
    next n to draws[units[k]] (n, d) of the batch's draws (K', n, d), as
    the independence chains do (the module's one output contract).  Each
    unit reads its normals from the first stream spawned from its seed, the
    burn-in's (burnin, d) into a scratch array and the retained (n, d) into
    its rows of draws, where each iteration's state overwrites its normal,
    and its burnin + n uniforms from the last stream in one call.  A stream
    read in two pieces gives the draws of one whole read, so the draws at
    (burnin, n) are iterations burnin .. burnin + n - 1 of any longer chain
    from the same start and seed.  The units share only the loop and keep
    their own kernels.

    Returns the acceptance rate per unit over the retained iterations.
    """
    t, lp = np.asarray(start, dtype=float), np.asarray(lp_start, dtype=float)
    (n_units, d), n = t.shape, draws.shape[1]
    burn = np.empty((n_units, burnin, d))
    log_u = np.empty((n_units, burnin + n))
    for unit, seed, z_burn, u_unit in zip(units, seeds, burn, log_u):
        normals, _, uniforms = _unit_streams(seed)
        normals.standard_normal(out=z_burn)
        normals.standard_normal(out=draws[unit])
        uniforms.random(out=u_unit)
    np.log(log_u, out=log_u)
    accepted = np.zeros(n_units, dtype=np.int64)
    for i in range(burnin + n):
        z = burn[:, i] if i < burnin else draws[units, i - burnin]
        # the step factors @ z as an elementwise sum, never BLAS, so no row depends on the batch
        proposal = t + (factors * z[:, None, :]).sum(axis=2)
        lp_prop = log_density(proposal, units)
        accept = log_u[:, i] < lp_prop - lp
        if accept.any():
            t = np.where(accept[:, None], proposal, t)
            lp = np.where(accept, lp_prop, lp)
        if i >= burnin:
            draws[units, i - burnin] = t
            accepted += accept
    return accepted / n


def _initial_guess(family: str, data: GroupedSample) -> np.ndarray:
    """Chain-space start from a least-squares line through the bracket ecdf.

    On the interior boundaries c whose ecdf value F lies inside (0, 1), the
    log-logistic (GB2 and SM with unit shapes) has logit F = a log c - a log b
    and the lognormal has probit F = (log c - xi) / sigma, so the line
    through (log c, logit F) or (log c, probit F) gives the start.  With
    fewer than two distinct ecdf values, or a slope that is not positive,
    the start is the chain-space origin.
    """
    cum = np.cumsum(data.counts)[:-1] / data.total  # ecdf at c_1 .. c_{G-1}
    inside = (cum > 0.0) & (cum < 1.0)
    cum, edges = cum[inside], data.boundaries[1:-1][inside]
    start = np.zeros(len(family_class(family).param_names))
    if len(np.unique(cum)) < 2:
        return start
    y = ndtri(cum) if family == "ln" else np.log(cum / (1.0 - cum))
    slope, intercept = np.polyfit(np.log(edges), y, 1)
    if not slope > 0.0:
        return start
    if family == "ln":
        return np.array([-intercept / slope, -2.0 * math.log(slope)])
    start[:2] = math.log(slope), -intercept / slope
    return start


def _from_chain_space(t: np.ndarray, real: int) -> np.ndarray:
    """Natural parameters of chain states t; the first real (the family's n_real) stay as they are."""
    natural = np.exp(t)
    natural[..., :real] = t[..., :real]
    return natural


def _chain_log_prior(t: np.ndarray, natural: np.ndarray, real: int) -> np.ndarray:
    """The IG(1, 1) log prior plus the log Jacobian of the log transform, per chain state (K,).

    For a positive parameter x = exp(t) the IG(1, 1) term -2 log x - 1/x and
    the Jacobian term t add up to -(t + 1/x); real parameters add nothing.
    """
    return -(t[:, real:] + 1.0 / natural[:, real:]).sum(axis=1)


def _check_unit(family: str, data: GroupedSample) -> None:
    """Raise when a unit cannot be fitted, before any sampling."""
    dim = len(family_class(family).param_names)
    if data.n_brackets - 1 < dim:
        raise UnderIdentifiedError(
            f"{family} needs at least {dim + 1} brackets, got {data.n_brackets}"
        )


@dataclass(frozen=True)
class _SampleStack:
    """Boundaries (K, G+1) and counts (K, G) of K samples, or one row shared by all, for log_likelihood."""

    boundaries: np.ndarray
    counts: np.ndarray


def _chain_log_density(family: str, samples):
    """Log posterior of K samples with G brackets each, as a map (rows (R, d), units (R,)) -> (R,).

    Row r is a chain state of the sample at index units[r], so one call may
    hold several states per unit, and row r's value is that of the call on
    row r alone.  Rows off the parameter domain (non-finite or nonpositive
    natural parameters, LN's sigma2 = 0) get -inf, found from the whole
    matrix at once.  Boundaries that every sample shares pass as one (1, G+1)
    row that broadcasts over the rows, as do the counts of a lone sample.
    """
    boundaries = np.array([data.boundaries for data in samples])
    counts = np.array([data.counts for data in samples])
    shared = (boundaries == boundaries[0]).all()
    cls = family_class(family)
    real, dim = cls.n_real, len(cls.param_names)
    # open lower bounds of the natural parameters
    lower = np.zeros(dim)
    lower[:real] = -math.inf

    def log_density(t: np.ndarray, units: np.ndarray) -> np.ndarray:
        data = _SampleStack(boundaries[:1] if shared else boundaries[units],
                            counts if len(counts) == 1 else counts[units])
        natural = _from_chain_space(t, real)
        inside = (natural > lower) & (natural < math.inf)
        if inside.all():
            ll = log_likelihood(make_batch(family, natural), data)
        else:
            ok = np.logical_and.reduce(inside, axis=1)
            natural = np.where(ok[:, None], natural, 1.0)
            ll = np.where(ok, log_likelihood(make_batch(family, natural), data), -math.inf)
        # fmax turns NaN (a cdf that failed at extreme parameters) into -inf
        return np.fmax(ll + _chain_log_prior(t, natural, real), -math.inf)

    return log_density


# Laplace-anchored independence sampler
_T_DOF = 5.0  # degrees of freedom of the t proposal
_MAX_PARETO_K = 0.7  # PSIS k-hat above which a unit falls back to the random walk
_MIN_ACCEPTANCE = 0.5  # acceptance rate below which a unit falls back to the random walk
_WALK_SCALE = 2.38  # the walk's proposal is the Laplace covariance times _WALK_SCALE**2 / d
_WALK_STEP = 0.1  # the walk's step in each coordinate for a unit without a Hessian
_FD_STEP = 1e-3  # finite-difference step in chain space
_NEWTON_ITERATIONS = 100
_NEWTON_TOL = 1e-10  # Newton decrement g' (-H)^-1 g at which a row has converged
_MAX_NEWTON_STEP = 1.0  # largest change of one chain coordinate per Newton step
_BACKTRACKS = 30


def _difference_offsets(dim: int) -> np.ndarray:
    """The 1 + 2d + 2d(d-1) offsets of a central-difference gradient and Hessian.

    Row 0 is the point itself, then +h e_i, then -h e_i, then for each pair
    i < j the four corners (+h, +h), (+h, -h), (-h, +h), (-h, -h).
    """
    eye = _FD_STEP * np.eye(dim)
    corners = [si * eye[i] + sj * eye[j] for i in range(dim) for j in range(i + 1, dim)
               for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.array([np.zeros(dim), *eye, *-eye, *corners]).reshape(-1, dim)


def _derivatives(values: np.ndarray, dim: int):
    """Value, gradient (R, d) and Hessian (R, d, d) from values (R, P) at the offsets."""
    h = _FD_STEP
    centre = values[:, :1]
    plus, minus = values[:, 1 : 1 + dim], values[:, 1 + dim : 1 + 2 * dim]
    hess = np.empty((len(values), dim, dim))
    diag = np.arange(dim)
    hess[:, diag, diag] = (plus - 2.0 * centre + minus) / (h * h)
    corners = values[:, 1 + 2 * dim :].reshape(len(values), -1, 4)
    upper = (corners[..., 0] - corners[..., 1] - corners[..., 2] + corners[..., 3]) / (4.0 * h * h)
    i, j = np.triu_indices(dim, 1)
    hess[:, i, j] = hess[:, j, i] = upper
    return values[:, 0], (plus - minus) / (2.0 * h), hess


def _abs_curvatures(curv: np.ndarray) -> np.ndarray:
    """Eigenvalues (R, d) of -H in absolute value, floored at 1e-12 of each row's largest and at 1e-8."""
    size = np.abs(curv)
    return np.maximum(size, np.maximum(1e-12 * size.max(axis=1, keepdims=True), 1e-8))


def _newton_modes(log_density, start: np.ndarray):
    """Damped Newton ascent of each row of start to its mode in chain space.

    Each round evaluates the difference points of every active row in one
    stacked log density call.  The step solves with the negative Hessian,
    its eigenvalues taken in absolute value (so a row off the concave
    region still climbs), and is halved per row until the row's log density
    rises.  A row that has converged, or cannot rise, is frozen; rows never
    share a step length, so a row's path does not depend on its batch-mates.

    Returns (modes, log density at the modes, Hessians); a row whose
    difference points are not all finite gets a NaN Hessian.
    """
    t = np.array(start, dtype=float)
    n_units, dim = t.shape
    offsets = _difference_offsets(dim)
    lp = np.full(n_units, -math.inf)
    hess = np.full((n_units, dim, dim), math.nan)
    active = np.arange(n_units)
    for _ in range(_NEWTON_ITERATIONS):
        if not active.size:
            break
        points = (t[active, None, :] + offsets).reshape(-1, dim)
        values = log_density(points, np.repeat(active, len(offsets))).reshape(len(active), -1)
        finite = np.isfinite(values).all(axis=1)
        lp[active] = values[:, 0]
        hess[active[~finite]] = math.nan  # a row at the domain's edge stops, without a Hessian
        active = active[finite]
        f0, grad, h_rows = _derivatives(values[finite], dim)
        hess[active] = h_rows
        curv, vec = np.linalg.eigh(-h_rows)
        curv = _abs_curvatures(curv)
        # products as elementwise sums, never BLAS, so no row's result can depend on the batch
        step = (vec * ((grad[:, :, None] * vec).sum(axis=1) / curv)[:, None, :]).sum(axis=2)
        moving = (grad * step).sum(axis=1) > _NEWTON_TOL
        active, f0, step = active[moving], f0[moving], step[moving]
        step *= np.minimum(1.0, _MAX_NEWTON_STEP / np.abs(step).max(axis=1, keepdims=True))
        trying, alpha = np.arange(len(active)), 1.0
        for _ in range(_BACKTRACKS):
            if not trying.size:
                break
            rows = active[trying]
            candidate = t[rows] + alpha * step[trying]
            value = log_density(candidate, rows)
            rose = value > f0[trying]
            t[rows[rose]], lp[rows[rose]] = candidate[rose], value[rose]
            trying, alpha = trying[~rose], 0.5 * alpha
        active = np.delete(active, trying)  # rows that could not rise have converged
    return t, lp, hess


def _independence_chains(log_density, units, seeds, modes, lp_modes, scales, draws):
    """Independence MH chains for K units, proposals from a t around each mode.

    Row k is the unit at batch index units[k], and its chain is written to
    draws[units[k]] (n, d) of the batch's draws (K', n, d), as the walk's
    is (the module's one output contract).  Its proposal i is modes[k] +
    sqrt(nu / w_i) * scales[k] @ z_i with z_i standard normal and w_i
    chi-square(nu).  Each unit reads its n normals (n, d) into its rows of
    draws, its n chi-square draws and its n uniforms in one call to each of
    the three streams spawned from its seed, and its proposals are formed in
    place of its normals, one coordinate at a time from a contiguous (d, n)
    copy of them, as are its squared norms.  The log densities are
    evaluated in blocks of at most 2,048 rows of the units' proposals in
    turn; a row's log density does not depend on its batch-mates, so the
    block size moves no bit.  The chain starts at the mode, where the log
    density is lp_modes[k], and accepts on the log importance weights, one
    unit at a time, each reading its uniforms in its own accept loop; each
    rejected proposal's row then takes the state the chain holds, in place.

    Returns (acceptance rate, Pareto k-hat of the log importance weights),
    one per unit; the (K, n) weights do not outlive the call.
    """
    n, dim = draws.shape[1:]
    log_w, uniforms = np.empty((len(units), n)), []
    for k, (unit, seed) in enumerate(zip(units, seeds)):
        normals, chi_squares, unit_uniforms = _unit_streams(seed)
        uniforms.append(unit_uniforms)
        z = draws[unit]
        normals.standard_normal(out=z)
        chi2 = chi_squares.chisquare(_T_DOF, n)
        by_coordinate = z.T.copy()  # (d, n), each coordinate's normals contiguous
        # sums over the coordinates in order, never BLAS, so no row depends on n (a shorter chain is a
        # prefix): each squared norm in (z*z).sum(axis=1)'s order, and scales @ z column by column
        norm2 = by_coordinate[0] * by_coordinate[0]
        for c in range(1, dim):
            norm2 += by_coordinate[c] * by_coordinate[c]
        log_w[k] = -0.5 * (_T_DOF + dim) * np.log1p(norm2 / chi2)  # log q up to a constant, 0 at the mode
        radius = np.sqrt(_T_DOF / chi2)
        for r, (centre, row) in enumerate(zip(modes[k], scales[k])):
            step = by_coordinate[0] * row[0]
            for c in range(1, dim):
                step += by_coordinate[c] * row[c]
            step *= radius
            step += centre
            z[:, r] = step
    flat_w = log_w.reshape(-1)
    for first in range(0, len(flat_w), _BLOCK_ROWS):
        block = slice(first, min(first + _BLOCK_ROWS, len(flat_w)))
        k, i = np.divmod(np.arange(block.start, block.stop), n)  # unit and draw of each row
        flat_w[block] = log_density(draws[units[k], i], units[k]) - flat_w[block]

    rates, k_hat = np.empty(len(units)), np.array([pareto_k(w) for w in log_w])
    for k, unit in enumerate(units):
        flags, current = bytearray(n), lp_modes[k]
        for i, w, u in zip(range(n), log_w[k].tolist(), np.log(uniforms[k].random(n)).tolist()):
            if u < w - current:
                current, flags[i] = w, 1
        accepted = np.frombuffer(flags, dtype=bool)
        # a rejection holds the last accepted proposal, whose row is never overwritten, or the mode (-1)
        states = np.maximum.accumulate(np.where(accepted, np.arange(n), -1))
        held = np.flatnonzero(~accepted)
        z = draws[unit]
        z[held] = np.where(states[held, None] < 0, modes[k], z[states[held]])
        rates[k] = np.count_nonzero(accepted) / n
    return rates, k_hat


def fit_batch(family: str, samples, config: McmcConfig, seeds) -> list[PosteriorDraws]:
    """Posterior sampling for K units of one family, batched across units.

    Each unit gets the Laplace-anchored independence sampler; a unit whose
    Hessian at the mode is not negative definite, whose importance weights
    have a Pareto k-hat above 0.7, or whose chain accepts fewer than half
    its proposals falls back to the fixed-kernel random walk from its mode,
    and the fallback units of a batch share one lockstep chain.  k-hat
    reads only the weights of the proposals drawn, so it cannot see
    posterior mass the proposals never reach; a low acceptance rate shows
    such a mismatch.  The units need the same number of brackets.  Every
    unit runs config's chain length from its own seed: unit k's draws carry
    config with seed seeds[k], and equal that config's single ``fit``.  The
    batch shares vectorised log density calls (the proposals' in blocks of
    at most 2,048 rows), never a unit's random streams (three spawned from
    its seed) or Newton steps.  Raises
    UnderIdentifiedError when the family has more parameters than free
    bracket cells, and ValueError naming the unit whose log density is not
    finite at its start.
    """
    samples, configs = list(samples), [replace(config, seed=seed) for seed in seeds]  # McmcConfig checks each seed
    if not samples or len(samples) != len(configs):
        raise ValueError("need one seed per sample, and at least one sample")
    for data in samples:
        _check_unit(family, data)
    if len({data.n_brackets for data in samples}) > 1:
        raise ValueError("samples in one batch need the same number of brackets")
    cls, n_units, every = family_class(family), len(samples), np.arange(len(samples))
    dim, real, n = len(cls.param_names), cls.n_real, config.iterations - config.burnin
    log_density = _chain_log_density(family, samples)
    start = np.array([_initial_guess(family, data) for data in samples])
    bad = ~np.isfinite(log_density(start, every))
    if bad.any():
        start[bad] = 0.0  # the chain-space origin: unit parameters, LN(0, 1)
        for k in np.flatnonzero(bad & ~np.isfinite(log_density(start, every))):
            raise ValueError(f"unit {samples[k].unit!r}: log density is not finite at the starting point")

    # Newton moves a row only to a higher finite value, so every lp_modes is finite
    modes, lp_modes, hess = _newton_modes(log_density, start)
    # the Laplace path needs a negative definite Hessian: -H with eigenvalues > 0
    finite = np.flatnonzero(np.isfinite(hess).all(axis=(1, 2)))
    curv, vec = np.linalg.eigh(-hess[finite])
    concave = curv[:, 0] > 0.0
    laplace = finite[concave]
    # both stages write their units' chains into draws; a unit off the Laplace path fails the gate on NaN
    draws, acc_rates, k_hat = np.empty((n_units, n, dim)), np.full(n_units, math.nan), np.full(n_units, math.nan)
    scales = vec[concave] / np.sqrt(curv[concave])[:, None, :]  # scales @ scales.T = (-H)^-1
    acc_rates[laplace], k_hat[laplace] = _independence_chains(
        log_density, laplace, [configs[k].seed for k in laplace], modes[laplace], lp_modes[laplace], scales, draws
    )
    passed = (k_hat <= _MAX_PARETO_K) & (acc_rates >= _MIN_ACCEPTANCE)
    fallback = np.flatnonzero(~passed)
    if fallback.size:
        # the walk's kernel: the Laplace covariance, |eigenvalues| of -H, scaled by 2.38^2 / d
        factors = np.tile(_WALK_STEP * np.eye(dim), (n_units, 1, 1))
        factors[finite] = (_WALK_SCALE / math.sqrt(dim)) * vec / np.sqrt(_abs_curvatures(curv))[:, None, :]
        acc_rates[fallback] = _random_walk_chains(
            log_density, fallback, [configs[k].seed for k in fallback], modes[fallback], lp_modes[fallback],
            factors[fallback], config.burnin, draws,
        )
    # to natural parameters in place, so the batch never holds its draws twice
    positive = draws[..., real:]
    np.exp(positive, out=positive)
    batch = _Batch(family, draws)
    return [
        batch.unit(
            k,
            unit=data.unit,
            acceptance_rate=float(acc_rates[k]),
            config=unit_config,
            sampler="laplace" if passed[k] else "random-walk",
            pareto_k=float(k_hat[k]),
        )
        for k, (data, unit_config) in enumerate(zip(samples, configs))
    ]


def fit(family: str, data: GroupedSample, config: McmcConfig) -> PosteriorDraws:
    """Posterior sampling for one unit's grouped data (a batch of one).

    Deterministic given config.seed.  Raises UnderIdentifiedError when the
    family has more parameters than free bracket cells.
    """
    return fit_batch(family, [data], config, [config.seed])[0]


#: draws per summary pass: a batch's units are summarised in blocks of whole units
_SUMMARY_ROWS = 1 << 18


class _Batch:
    """The (K, n, d) draws of a fit batch and the summaries made from them.

    The draws are read in blocks of whole units, at most 2^18 draws a block
    unless one unit has more.  Each block's theta-invariant GE terms are
    built on the first request and kept: for GB2, gammaln(p), gammaln(q)
    and log E[X/b] of each draw with a mean (about three floats per draw);
    for SM, whose p = 1 is one constant, about two; LN holds none.  The K
    summaries of a key, float(theta) or None for the mean income, are made
    on its first request, in one ``_summarize_rows`` pass per block (one
    masked reduction for rows with and without excluded draws), and kept.
    A pass holds one block's values and mask beyond the draws: one (K, n)
    array of the paper-sized tree's 1,739 LN leaves at 8,000 draws would
    take 111 MB.
    """

    def __init__(self, family: str, draws: np.ndarray):
        self.family, self.draws = family, draws
        self._terms = None
        self._summaries: dict = {}

    def unit(self, row: int, **fields) -> PosteriorDraws:
        """The PosteriorDraws of draws[row], with the other fields given, reading its summaries here."""
        draws = PosteriorDraws(family=self.family, draws=self.draws[row], **fields)
        object.__setattr__(draws, "_batch", self)
        object.__setattr__(draws, "_row", row)
        return draws

    def summaries(self, key) -> list[PosteriorSummary]:
        if key not in self._summaries:
            n, d = self.draws.shape[1:]
            if self._terms is None:
                step = max(1, _SUMMARY_ROWS // n)
                self._terms = [ge_terms(self.family, self.draws[k : k + step].reshape(-1, d))
                               for k in range(0, len(self.draws), step)]
            rows = []
            for terms in self._terms:
                values, ok = terms.mean() if key is None else terms.ge(key)
                rows += _summarize_rows(values.reshape(-1, n), ok.reshape(-1, n))
            self._summaries[key] = rows
        return self._summaries[key]


def _summarize_rows(values: np.ndarray, ok: np.ndarray) -> list[PosteriorSummary]:
    """The summary of each row of values (K, n) over its used draws, ok, reducing values in place.

    The mask acts as 0/1 weights: a row's m used draws give mean sum / m
    and sd sqrt(sum((v - mean)^2) / (m - 1)), with its excluded entries
    zeroed before each sum (so sd is 0 at m = 1); both are NaN at m = 0.
    Only a block with an excluded draw counts and zeroes, so a clean block's
    rows are bitwise numpy's mean() and std(ddof=1).  A row with exclusions
    sums its n entries in numpy's pairwise order, not its m draws, so it can
    differ from numpy's summary of its used draws in the last bit.
    """
    n = values.shape[1]
    excluded = None if ok.all() else ~ok
    used = np.full(len(values), n) if excluded is None else np.count_nonzero(ok, axis=1)
    if excluded is not None:
        np.copyto(values, 0.0, where=excluded)
    mean = values.sum(axis=1) / np.maximum(used, 1)
    values -= mean[:, None]
    if excluded is not None:
        np.copyto(values, 0.0, where=excluded)
    sd = np.sqrt(np.multiply(values, values, out=values).sum(axis=1) / np.maximum(used - 1, 1))
    mean[used == 0] = sd[used == 0] = math.nan
    return [PosteriorSummary(value=value, sd=s, n_draws=n, n_excluded=n - m)
            for value, s, m in zip(mean.tolist(), sd.tolist(), used.tolist())]


def _summary(draws: PosteriorDraws, key) -> PosteriorSummary:
    """draws' row of its batch's summaries under key; draws outside a fit batch become a batch of one."""
    if draws._batch is None:
        object.__setattr__(draws, "_batch", _Batch(draws.family, draws.draws[None]))
    return draws._batch.summaries(key)[draws._row]


def posterior_ge(draws: PosteriorDraws, theta: float) -> PosteriorSummary:
    """Posterior mean (and sd) of the generalized entropy over retained draws.

    Draws whose moment window excludes theta are dropped and counted;
    crossing the 1% exclusion fraction marks the summary unreliable, and
    crossing one half undefined.  The summaries of the unit's whole fit
    batch are made once per float(theta), so -0.0 and 0.0 share them, and
    kept on the batch (see ``_Batch``).
    """
    return _summary(draws, float(theta))


def posterior_mean_income(draws: PosteriorDraws) -> PosteriorSummary:
    """Posterior mean (and sd) of the distribution mean over retained draws,
    made for the unit's whole fit batch once and kept (see ``posterior_ge``)."""
    return _summary(draws, None)


def derive_seed(master_seed: int, name: str) -> int:
    """Stable per-unit seed from the master seed and the unit id.

    Hash-based, so adding or removing one unit never perturbs the chains of
    its siblings.
    """
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
