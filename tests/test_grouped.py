"""Grouped likelihood, priors, the Laplace sampler and its random-walk fallback."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gedecomp as g
from gedecomp.distributions import (
    GB2,
    LN,
    SM,
    MomentExistenceError,
    family_class,
    ge_terms,
    make_batch,
    make_family,
)
import gedecomp.grouped as grouped
from gedecomp.grouped import (
    GroupedSample,
    McmcConfig,
    PosteriorDraws,
    PosteriorSummary,
    UnderIdentifiedError,
    _abs_curvatures,
    _chain_log_density,
    _chain_log_prior,
    _from_chain_space,
    _independence_chains,
    _initial_guess,
    _newton_modes,
    _random_walk_chains,
    derive_seed,
    fit,
    fit_batch,
    log_likelihood,
    posterior_ge,
    posterior_mean_income,
)

from conftest import NATIONAL_BOUNDARIES, NATIONAL_MCMC, national_sample


# 30 of 31 counts in the open top bracket and one in the lowest: the lognormal
# posterior of sigma2 has a long right tail, so its Laplace importance
# weights are heavy-tailed (k-hat 1.1 at this seed) and the unit falls back
TOP_HEAVY = GroupedSample([0, 1, 2, 3, 5, 8, np.inf], [1.0, 0.0, 0.0, 0.0, 0.0, 30.0], "top-heavy")


def spawned(seed) -> list[np.random.Generator]:
    """A unit's three streams as the samplers spawn them from its seed: normals, chi-squares, uniforms."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)]


def quantile_bracket_sample(dist, n, G, seed, unit="unit") -> GroupedSample:
    x = dist.sample(n, np.random.default_rng(seed))
    interior = np.quantile(x, np.arange(1, G) / G)
    boundaries = np.concatenate([[0.0], interior, [np.inf]])
    counts, _ = np.histogram(x, bins=boundaries)
    return GroupedSample(boundaries, counts.astype(float), unit)


# ---------------------------------------------------------------------------
# GroupedSample validation
# ---------------------------------------------------------------------------

def test_sample_validation():
    inf = np.inf
    with pytest.raises(ValueError):
        GroupedSample([0, 2, 1, inf], [1, 1, 1])  # not increasing
    with pytest.raises(ValueError):
        GroupedSample([1, 2, inf], [1, 1])  # first boundary not 0
    with pytest.raises(ValueError):
        GroupedSample([0, 1, 5], [1, 1])  # closed top bracket
    with pytest.raises(ValueError):
        GroupedSample([0, 1, inf], [1, -1])  # negative count
    with pytest.raises(ValueError):
        GroupedSample([0, 1, inf], [0, 0])  # empty
    with pytest.raises(ValueError):
        GroupedSample([0, inf], [3])  # single bracket
    sample = GroupedSample([0, 1, inf], [2.5, 7.5], "u")
    assert sample.total == 10.0
    assert sample.scaled(0.1).total == 1.0
    for factor in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^scale factor must be positive and finite$"):
            sample.scaled(factor)


# ---------------------------------------------------------------------------
# log likelihood
# ---------------------------------------------------------------------------

def test_loglik_median_split():
    dist = LN(math.log(2.5), 0.7)  # median exp(xi) = 2.5
    data = GroupedSample([0.0, 2.5, np.inf], [5.0, 5.0])
    assert_allclose(log_likelihood(dist, data), 10.0 * math.log(0.5), rtol=1e-12)


def test_loglik_single_top_bracket():
    dist = SM(2.0, 3.0, 1.5)
    data = GroupedSample([0.0, 1.0, 4.0, np.inf], [0.0, 0.0, 7.0])
    expected = 7.0 * math.log(1.0 - float(dist.cdf(4.0)))
    assert_allclose(log_likelihood(dist, data), expected, rtol=1e-12)


def test_loglik_zero_probability_sentinel():
    dist = LN(0.0, 0.0)  # point mass at 1: bracket [0, 0.5) has zero probability
    data = GroupedSample([0.0, 0.5, np.inf], [1.0, 1.0])
    assert log_likelihood(dist, data) == -math.inf


def test_loglik_zero_count_brackets_contribute_nothing():
    dist = LN(0.0, 0.0)
    data = GroupedSample([0.0, 0.5, np.inf], [0.0, 3.0])  # zero count on zero-prob bracket
    assert_allclose(log_likelihood(dist, data), 3.0 * math.log(1.0), atol=1e-15)


def test_loglik_batch_matches_each_unit():
    inf = np.inf
    samples = [
        GroupedSample([0, 1, 2, 3, 5, 8, inf], [2.0, 4.0, 6.0, 5.0, 2.0, 1.0]),
        GroupedSample([0, 0.5, 2, 4, 6, 9, inf], [0.0, 4.0, 0.0, 5.0, 2.0, 3.0]),  # zero counts
        GroupedSample([0, 1, 2, 3, 5, 1e17, inf], [5.0, 0.0, 0.0, 0.0, 0.0, 5.0]),  # -inf at unit shapes
    ]
    stack = SimpleNamespace(boundaries=np.array([x.boundaries for x in samples]),
                            counts=np.array([x.counts for x in samples]))
    for tag, rows in (("gb2", [[2.0, 3.0, 0.8, 1.5], [1.5, 4.0, 1.2, 2.0], [1.0, 1.0, 1.0, 1.0]]),
                      ("sm", [[2.0, 3.0, 1.5], [1.5, 4.0, 2.0], [1.0, 1.0, 1.0]]),
                      ("ln", [[1.0, 0.5], [0.2, 0.3], [0.0, 1.0]])):
        matrix = np.array(rows)
        batched = log_likelihood(make_batch(tag, matrix), stack)
        single = [log_likelihood(make_family(tag, row), x) for row, x in zip(matrix, samples)]
        assert batched.shape == (3,)
        assert_allclose(batched, single, rtol=1e-13)
        assert batched[2] == -math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_chain_log_density_rejects_rows_off_the_domain():
    inf = np.inf
    # all mass in one bracket: a = inf puts all model mass there too, so the
    # likelihood alone would be finite
    one_bracket = GroupedSample([0, 1, 2, 3, 5, 8, inf], [0.0, 0.0, 5.0, 0.0, 0.0, 0.0])
    density = _chain_log_density("gb2", [one_bracket] * 4)
    t = np.log(np.tile([2.0, 2.5, 1.0, 1.5], (4, 1)))
    t[1, 0] = 800.0  # a = inf
    t[2, 1] = -800.0  # b = 0
    t[3, 3] = np.nan
    lp = density(t, np.arange(4))
    assert math.isfinite(lp[0])
    assert np.all(lp[1:] == -math.inf)
    assert lp[0] == _chain_log_density("gb2", [one_bracket])(t[:1], np.zeros(1, dtype=int))[0]
    ln = _chain_log_density("ln", [one_bracket] * 2)(np.array([[1.0, 0.0], [1.0, -800.0]]), np.arange(2))  # sigma2 = 0
    assert math.isfinite(ln[0]) and ln[1] == -math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("family", ["gb2", "sm", "ln"])
def test_chain_log_density_of_a_row_is_that_of_the_row_alone(family):
    # the proposals' block evaluation and the walk's lp_start (Newton's value at the mode) rest on this
    inf = np.inf
    samples = [
        GroupedSample([0, 1, 2, 3, 5, 8, inf], [2.0, 4.0, 6.0, 5.0, 2.0, 1.0]),
        GroupedSample([0, 0.5, 2, 4, 6, 9, inf], [0.0, 4.0, 0.0, 5.0, 2.0, 3.0]),
        GroupedSample([0, 1, 2, 3, 5, 1e17, inf], [5.0, 0.0, 0.0, 0.0, 0.0, 5.0]),  # -inf at unit shapes
    ]
    density = _chain_log_density(family, samples)
    rng = np.random.default_rng(29)
    rows = rng.normal(0.3, 0.8, (60, len(family_class(family).param_names)))
    # off the domain: a positive parameter at inf or 0, and a NaN coordinate
    rows[0::6, -1], rows[1::6, -1], rows[2::6, 0] = 800.0, -800.0, np.nan
    units = rng.integers(0, len(samples), len(rows))
    together = density(rows, units)
    alone = np.array([density(rows[r : r + 1], units[r : r + 1])[0] for r in range(len(rows))])
    assert np.array_equal(together, alone)
    inside = np.ones(len(rows), dtype=bool)
    inside[0::6] = inside[1::6] = inside[2::6] = False
    assert np.all(together[~inside] == -inf) and np.isfinite(together[inside]).sum() >= 10
    assert np.array_equal(density(rows[inside], units[inside]), together[inside])


def test_loglik_count_scaling():
    dist = SM(2.0, 3.0, 1.5)
    data = quantile_bracket_sample(dist, 5_000, 8, seed=1)
    base = log_likelihood(dist, data)
    assert_allclose(log_likelihood(dist, data.scaled(3.5)), 3.5 * base, rtol=1e-12)


def test_loglik_bracket_merge_gains_never_lost():
    # Coarsening the grid can only make the data easier to fit: for any fixed
    # parameter value (hence for the maximized value too) the merged
    # log likelihood is at least the original one.
    dist = SM(2.0, 3.0, 1.5)
    data = quantile_bracket_sample(dist, 2_000, 6, seed=2)
    merged = GroupedSample(
        np.delete(data.boundaries, 3),
        np.concatenate([data.counts[:2], [data.counts[2] + data.counts[3]], data.counts[4:]]),
        data.unit,
    )
    rng = np.random.default_rng(3)
    for _ in range(40):
        params = SM(rng.uniform(1.2, 3.0), rng.uniform(1.0, 6.0), rng.uniform(0.8, 3.0))
        assert log_likelihood(params, merged) >= log_likelihood(params, data) - 1e-9


def test_national_table_mle_is_a_local_maximum():
    # the table's own maximum-likelihood point beats random +-10% perturbations
    data = national_sample()
    mle = g.GB2(2.064546, 6.401896, 0.866182, 2.049061)
    ll_mle = log_likelihood(mle, data)
    assert math.isfinite(ll_mle)
    rng = np.random.default_rng(101)
    vec = mle.to_vector()
    for _ in range(100):
        perturbed = g.GB2(*(vec * rng.uniform(0.9, 1.1, 4)))
        assert log_likelihood(perturbed, data) < ll_mle


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

def chain_prior(real: int, dim: int, t) -> np.ndarray:
    t = np.array(t, dtype=float)
    return _chain_log_prior(t, _from_chain_space(t, real), real)


@pytest.mark.parametrize("real, dim", [(0, 4), (0, 3), (1, 2)], ids=["gb2", "sm", "ln"])
def test_chain_prior_is_ig11_plus_log_jacobian(real, dim):
    # sum over positive x = exp(t) of the IG(1, 1) log density -2 log x - 1/x, plus the log Jacobian sum t;
    # LN's real xi enters neither
    t = np.random.default_rng(dim).uniform(-2.0, 2.0, (20, dim))
    x = np.exp(t[:, real:])
    expected = (-2.0 * np.log(x) - 1.0 / x).sum(axis=1) + t[:, real:].sum(axis=1)
    assert_allclose(chain_prior(real, dim, t), expected, rtol=1e-13, atol=1e-13)


def test_prior_single_parameter_at_one():
    assert chain_prior(1, 2, [[0.0, 0.0]])[0] == -1.0  # LN(0, 1): xi is flat


def test_prior_gb2_all_ones():
    assert chain_prior(0, 4, np.zeros((1, 4)))[0] == -4.0


def test_prior_gradient_finite_difference():
    # d/dt of -(t + exp(-t)) at sigma2 = 2 is -1 + 1/2
    h = 1e-6
    value = chain_prior(1, 2, [[0.0, math.log(2.0) + h], [0.0, math.log(2.0) - h]])
    assert_allclose((value[0] - value[1]) / (2.0 * h), -0.5, rtol=1e-8)


def test_prior_flat_in_ln_location():
    value = chain_prior(1, 2, [[-5.0, math.log(0.7)], [12.0, math.log(0.7)]])
    assert value[0] == value[1]


# ---------------------------------------------------------------------------
# Newton start
# ---------------------------------------------------------------------------

def exact_masses(dist) -> GroupedSample:
    """The national boundaries with counts equal to the bracket masses of dist."""
    cdf = np.concatenate([[0.0], dist.cdf(NATIONAL_BOUNDARIES[1:-1]), [1.0]])
    return GroupedSample(NATIONAL_BOUNDARIES, np.diff(cdf) * 1e6)


@pytest.mark.parametrize("family, dist, chain", [
    ("sm", SM(2.5, 4.0, 1.0), np.log([2.5, 4.0, 1.0])),
    ("gb2", SM(1.8, 6.0, 1.0), np.log([1.8, 6.0, 1.0, 1.0])),
    ("ln", LN(1.3, 0.6), [1.3, math.log(0.6)]),
])
def test_start_recovers_exact_log_logistic_and_lognormal_tables(family, dist, chain):
    assert_allclose(_initial_guess(family, exact_masses(dist)), chain, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("data", [
    TOP_HEAVY,  # a flat ecdf: one distinct value inside (0, 1)
    # flat at 1/31 on the national boundaries, where the fitted slopes are about +1e-17, not 0 or below
    GroupedSample(NATIONAL_BOUNDARIES, [1.0] + [0.0] * 8 + [30.0]),
    GroupedSample(NATIONAL_BOUNDARIES, [0.0] * 4 + [500.0] + [0.0] * 5),  # every count in one bracket
])
def test_start_without_a_line_is_the_origin(data):
    for family in ("gb2", "sm", "ln"):
        assert np.array_equal(_initial_guess(family, data), np.zeros(len(family_class(family).param_names)))


# ---------------------------------------------------------------------------
# sampler core
# ---------------------------------------------------------------------------

def walk(log_density, units, seeds, start, factors, iterations, burnin):
    """The fallback walk of units from start, its lp_start the log density there."""
    return _random_walk_chains(log_density, units, seeds, start, log_density(start, units), factors,
                               iterations, burnin)


ONE_UNIT = np.zeros(1, dtype=int)


def test_chain_normal_target_conjugate_mean():
    log_density = lambda t, units: -0.5 * ((t[:, 0] - 3.0) / 2.0) ** 2
    # 2.38 sd: the scaled kernel of a one-dimensional Gaussian target
    draws, rate = walk(log_density, ONE_UNIT, [0], np.array([[0.0]]), np.array([[[2.38 * 2.0]]]), 20_000, 4_000)
    assert draws.shape == (1, 16_000, 1)
    assert abs(draws.mean() - 3.0) < 0.15
    assert abs(draws.std() - 2.0) < 0.2
    assert 0.3 < rate[0] < 0.6


def test_chain_beta_target_mean():
    def log_density(t, units):
        x = t[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((0.0 < x) & (x < 1.0), 4.0 * np.log(x) + 2.0 * np.log1p(-x), -math.inf)  # Beta(5, 3)

    draws, _ = walk(log_density, ONE_UNIT, [1], np.array([[0.5]]), np.array([[[0.2]]]), 20_000, 4_000)
    assert abs(draws.mean() - 5.0 / 8.0) < 0.02


# a correlated Gaussian per row, each with the factor of its covariance
CENTRES = np.array([[1.0, -2.0], [0.0, 5.0], [3.0, 3.0]])
PRECISIONS = np.array([[[2.0, 1.8], [1.8, 2.0]], [[1.0, 0.0], [0.0, 4.0]], [[5.0, -2.0], [-2.0, 1.0]]])
FACTORS = (2.38 / math.sqrt(2.0)) * np.linalg.cholesky(np.linalg.inv(PRECISIONS))


def gaussian(t, units):
    """Row r's log density under the Gaussian of unit units[r], elementwise per row, so a row's value
    cannot depend on the others."""
    r0, r1 = (t - CENTRES[units]).T
    p = PRECISIONS[units]
    return -0.5 * (p[:, 0, 0] * r0 * r0 + 2.0 * p[:, 0, 1] * r0 * r1 + p[:, 1, 1] * r1 * r1)


def test_chain_rows_match_chains_run_alone():
    starts = np.zeros((3, 2))
    seeds = (7, 8, 9)
    together, rates = walk(gaussian, np.arange(3), seeds, starts, FACTORS, 4_000, 400)
    for k in range(3):
        # unit k alone keeps its batch index k
        alone, rate = walk(gaussian, np.array([k]), seeds[k : k + 1], starts[k : k + 1], FACTORS[k : k + 1], 4_000, 400)
        assert np.array_equal(together[k], alone[0])
        assert rates[k] == rate[0]
    assert_allclose(together.mean(axis=1), CENTRES, atol=0.3)


def test_chain_with_burnin_is_a_slice_of_the_whole_chain():
    # the kernel never changes, so burn-in only decides which iterations are kept
    starts = np.array([[0.0, 0.0], [4.0, 1.0], [-1.0, 2.0]])
    seeds = (11, 12, 13)

    def chain(iterations, burnin):
        return walk(gaussian, np.arange(3), seeds, starts, FACTORS, iterations, burnin)[0]

    whole = chain(400, 0)
    for iterations, burnin in ((230, 0), (230, 37), (260, 50), (400, 120), (400, 399)):
        assert np.array_equal(chain(iterations, burnin), whole[:, burnin:iterations])


def test_chain_reads_each_stream_in_one_call():
    # each unit reads its whole chain's normals from the first of its three
    # spawned streams and its uniforms from the third, one call each, and
    # never touches the chi-squares; the burn-in and the lengths are not
    # multiples of 50
    starts = np.array([[0.0, 0.0], [4.0, 1.0]])
    seeds = (3, 4)
    draws, rates = walk(gaussian, np.arange(2), seeds, starts, FACTORS[:2], 230, 120)
    for k, seed in enumerate(seeds):
        normals, _, uniforms = spawned(seed)
        z, log_u = normals.standard_normal((230, 2)), np.log(uniforms.random(230))
        log_density = lambda t: gaussian(t, np.array([k]))
        t, lp, chain, accepted = starts[k], log_density(starts[k : k + 1])[0], [], []
        for i in range(230):
            proposal = t + (FACTORS[k] * z[i]).sum(axis=1)  # factor @ z as the sampler forms it
            lp_prop = log_density(proposal[None])[0]
            accepted.append(log_u[i] < lp_prop - lp)
            if accepted[-1]:
                t, lp = proposal, lp_prop
            chain.append(t)
        assert np.array_equal(draws[k], np.array(chain[120:]))
        assert rates[k] == np.mean(accepted[120:])
        assert 0.0 < rates[k] < 1.0


@pytest.mark.parametrize("kind", ["normals", "chi-squares", "uniforms"])
def test_a_spawned_stream_read_in_chunks_equals_one_whole_read(kind):
    # so a chain's draws do not depend on how its stream is read, and a
    # shorter chain is a prefix of a longer one
    index, read = {
        "normals": (0, lambda rng, m: rng.standard_normal((m, 3))),
        "chi-squares": (1, lambda rng, m: rng.chisquare(5.0, m)),
        "uniforms": (2, lambda rng, m: rng.random(m)),
    }[kind]
    whole = read(spawned(8)[index], 4_130)
    stream = spawned(8)[index]
    chunks = np.concatenate([read(stream, m) for m in (1, 49, 50, 977, 2_048, 1_005)])
    assert np.array_equal(chunks, whole)


@pytest.mark.parametrize("n_units", [1, 2])
def test_independence_chains_read_each_stream_in_one_call(n_units):
    # 4,130 draws span more than one 2,048-row log density block; each unit
    # spawns three streams from its seed and reads its (n, d) normals, n
    # chi-square(5) draws and n uniforms whole, one call to each, so the
    # block size cannot move a bit of the proposals or the weights; the
    # density sees each unit's rows under its batch index
    n, dim, seeds, units = 4_130, 3, (21, 22)[:n_units], np.array([5, 2])[:n_units]
    modes = np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.5]])[:n_units]
    lp_modes = np.array([0.0, -0.3])[:n_units]
    scales = np.array([np.diag([0.1, 0.2, 0.3]), [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, -0.5, 2.0]]])[:n_units]
    seen = []

    def log_density(t, units):  # a standard normal per unit, each row alone
        seen.append((t.copy(), units.copy()))
        return -0.5 * (t * t).sum(axis=1)

    draws, rates, log_w = _independence_chains(log_density, units, seeds, modes, lp_modes, scales, n)
    assert max(len(t) for t, _ in seen) == 2_048
    rows = np.concatenate([t for t, _ in seen])
    row_units = np.concatenate([u for _, u in seen])
    for k, seed in enumerate(seeds):
        normals, chi_squares, uniforms = spawned(seed)
        z, chi2, log_u = normals.standard_normal((n, dim)), chi_squares.chisquare(5.0, n), np.log(uniforms.random(n))
        # scales @ z as an elementwise sum, as the sampler forms it
        proposals = modes[k] + np.sqrt(5.0 / chi2)[:, None] * (z[:, None, :] * scales[k]).sum(axis=2)
        weights = -0.5 * (proposals * proposals).sum(axis=1) + 0.5 * (5.0 + dim) * np.log1p((z * z).sum(axis=1) / chi2)
        assert np.array_equal(rows[row_units == units[k]], proposals)
        assert np.array_equal(log_w[k], weights)
        state, current, accepted, chain = -1, lp_modes[k], 0, []
        for i in range(n):
            if log_u[i] < weights[i] - current:
                state, current, accepted = i, weights[i], accepted + 1
            chain.append(modes[k] if state < 0 else proposals[state])
        assert np.array_equal(draws[k], np.array(chain))
        assert rates[k] == accepted / n


def test_default_fit_of_the_national_table_takes_few_log_likelihood_calls(monkeypatch):
    # the independence sampler evaluates its proposals in blocks of up to
    # 2,048 rows, so a unit alone takes four calls for 8,000 draws, not 160
    calls = []
    original = grouped.log_likelihood

    def counting(params, data):
        calls.append(None)
        return original(params, data)

    monkeypatch.setattr(grouped, "log_likelihood", counting)
    for family in ("gb2", "sm", "ln"):
        calls.clear()
        draws = fit(family, national_sample(), NATIONAL_MCMC)
        assert draws.sampler == "laplace"
        assert len(calls) <= 24, (family, len(calls))


def test_shorter_fit_is_a_prefix_of_a_longer_one():
    data = quantile_bracket_sample(SM(2.2, 3.5, 1.8), 10_000, 10, seed=4)
    for family, sample, sampler in (("sm", data, "laplace"), ("ln", TOP_HEAVY, "random-walk")):
        short = fit(family, sample, McmcConfig(iterations=2_013, burnin=120, seed=5))
        long = fit(family, sample, McmcConfig(iterations=2_777, burnin=120, seed=5))
        assert short.sampler == long.sampler == sampler
        assert np.array_equal(short.draws, long.draws[:1_893])


def test_fit_rejects_a_unit_without_a_finite_start():
    # all mass beyond where the start's cdf rounds to 1: -inf at the ecdf line and at the origin
    stuck = GroupedSample([0, 1, 1e17, np.inf], [5.0, 0.0, 5.0], "stuck")
    with pytest.raises(ValueError, match="^unit 'stuck': log density is not finite at the starting point$"):
        fit("ln", stuck, McmcConfig(iterations=200, burnin=50))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_determinism():
    data = quantile_bracket_sample(SM(2.2, 3.5, 1.8), 10_000, 10, seed=4)
    cfg = McmcConfig(iterations=1_500, burnin=400, seed=99)
    d1 = fit("sm", data, cfg)
    d2 = fit("sm", data, cfg)
    assert np.array_equal(d1.draws, d2.draws)
    assert d1.acceptance_rate == d2.acceptance_rate
    assert d1.n_draws == 1_100


def test_fit_under_identification():
    data = GroupedSample([0, 1, 2, 3, np.inf], [1.0, 2.0, 2.0, 1.0])  # 4 brackets
    with pytest.raises(UnderIdentifiedError):
        fit("gb2", data, McmcConfig(iterations=100, burnin=10))
    # 3 free cells support the 3-parameter family
    draws = fit("sm", data, McmcConfig(iterations=200, burnin=50, seed=0))
    assert draws.n_draws == 150


def test_fit_batch_checks_its_units():
    inf = np.inf
    good = GroupedSample([0, 1, 2, inf], [3.0, 4.0, 3.0], "good")
    # all mass beyond where the start's cdf rounds to 1: -inf at both starts
    stuck = GroupedSample([0, 1, 1e17, inf], [5.0, 0.0, 5.0], "stuck")
    cfg = McmcConfig(iterations=200, burnin=50)
    with pytest.raises(ValueError, match="unit 'stuck'"):
        fit_batch("ln", [good, stuck], cfg, [0, 1])
    with pytest.raises(ValueError, match="same number of brackets"):
        fit_batch("ln", [good, GroupedSample([0, 1, 2, 3, inf], [1.0, 1.0, 1.0, 1.0], "four")], cfg, [0, 0])
    with pytest.raises(ValueError, match="one seed per sample"):
        fit_batch("ln", [good, good], cfg, [0])
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        fit_batch("ln", [good, good], cfg, [0, -1])
    with pytest.raises(UnderIdentifiedError):
        fit_batch("gb2", [good], cfg, [0])
    batch = fit_batch("ln", [good, good], cfg, [0, 1])
    assert [d.unit for d in batch] == ["good", "good"]
    assert [d.config for d in batch] == [cfg, replace(cfg, seed=1)]


def test_fit_rejects_unknown_family():
    data = GroupedSample([0, 1, np.inf], [1.0, 1.0])
    with pytest.raises(Exception):
        fit("weibull", data, McmcConfig(iterations=100, burnin=10))


def test_ln_recovery():
    truth = LN(1.5, 0.4)
    data = quantile_bracket_sample(truth, 50_000, 10, seed=6)
    draws = fit("ln", data, McmcConfig(seed=7))
    posterior_mean = draws.param_means()
    assert_allclose(posterior_mean, [1.5, 0.4], rtol=0.05)
    assert draws.sampler == "laplace"
    assert draws.acceptance_rate > 0.5


def test_unit_failing_the_gate_runs_the_random_walk():
    config = McmcConfig(iterations=2_000, burnin=500, seed=0)
    draws = fit("ln", TOP_HEAVY, config)
    assert draws.sampler == "random-walk"
    assert draws.pareto_k > 0.7
    assert 0.1 < draws.acceptance_rate < 0.6
    # the fixed walk from the Newton mode, its kernel the Laplace covariance
    # times 2.38^2 / d, on fresh streams
    density = _chain_log_density("ln", [TOP_HEAVY])
    mode, lp_mode, hess = _newton_modes(density, _initial_guess("ln", TOP_HEAVY)[None])
    curv, vec = np.linalg.eigh(-hess)
    factor = (2.38 / math.sqrt(2.0)) * vec / np.sqrt(_abs_curvatures(curv))[:, None, :]
    chain, rate = _random_walk_chains(density, ONE_UNIT, [0], mode, lp_mode, factor, 2_000, 500)
    chain[0, :, 1] = np.exp(chain[0, :, 1])
    assert np.array_equal(draws.draws, chain[0])
    assert draws.acceptance_rate == rate[0]


# 24,000 counts in ten equal brackets: the gb2 posterior has a ridge in
# (a, p, q) that the Laplace proposal often misses, so about a third of the
# seeds fall back to the random walk at 800/200
EQUAL_BRACKETS = GroupedSample([0, 1.67, 2.19, 2.66, 3.11, 3.60, 4.17, 4.86, 5.91, 7.79, np.inf], [2400.0] * 10)


def test_fallback_walk_matches_a_long_run_reference():
    reference = fit("gb2", EQUAL_BRACKETS, McmcConfig(60_000, 10_000, seed=7)).param_means()
    seeds = range(48)
    batch = fit_batch("gb2", [EQUAL_BRACKETS] * len(seeds), McmcConfig(800, 200), seeds)
    fallbacks = 0
    for seed, draws in zip(seeds, batch):
        if draws.sampler == "random-walk":
            fallbacks += 1
            assert_allclose(draws.param_means(), reference, rtol=0.15, err_msg=f"seed {seed}")
    assert fallbacks >= 5


def test_batch_mixing_laplace_and_fallback_units_equals_fits_alone():
    laplace_unit = GroupedSample(TOP_HEAVY.boundaries, [20.0, 40.0, 60.0, 50.0, 20.0, 10.0], "laplace")
    config = McmcConfig(iterations=2_000, burnin=500)
    batch = fit_batch("ln", [laplace_unit, TOP_HEAVY], config, [3, 0])
    assert [d.sampler for d in batch] == ["laplace", "random-walk"]
    for data, seed, draws in zip((laplace_unit, TOP_HEAVY), (3, 0), batch):
        alone = fit("ln", data, replace(config, seed=seed))
        assert draws.config == alone.config
        assert np.array_equal(draws.draws, alone.draws)
        assert draws.acceptance_rate == alone.acceptance_rate
        assert draws.pareto_k == alone.pareto_k


def test_laplace_chain_moves_only_on_accepted_proposals():
    data = quantile_bracket_sample(SM(2.2, 3.5, 1.8), 10_000, 10, seed=4)
    draws = fit("sm", data, McmcConfig(iterations=3_000, burnin=1_000, seed=5))
    assert draws.sampler == "laplace" and draws.pareto_k < 0.5
    moves = np.any(np.diff(draws.draws, axis=0) != 0.0, axis=1).sum()
    # each retained draw is a new proposal or a repeat of the state before it;
    # the first draw is the mode or the first proposal
    assert round(draws.n_draws * draws.acceptance_rate) in (moves, moves + 1)
    assert_allclose(draws.param_means(), [2.2, 3.5, 1.8], rtol=0.1)


def test_sm_recovery_mean_income():
    truth = SM(2.5, 4.0, 1.8)
    data = quantile_bracket_sample(truth, 50_000, 10, seed=8)
    draws = fit("sm", data, McmcConfig(seed=9))
    mu = posterior_mean_income(draws)
    assert abs(mu.value - truth.mean()) / truth.mean() < 0.03
    assert mu.n_excluded == 0


def test_gb2_national_table_posterior_matches_long_run_reference():
    # Reference values: the table's MLE confirmed by an independent optimizer
    # and a 100k-iteration chain (posterior mean of the rounded 2013 table).
    data = national_sample()
    draws = fit("gb2", data, McmcConfig(seed=5))
    assert_allclose(draws.param_means(), [2.0646, 6.4019, 0.8662, 2.0491], rtol=0.02)


def test_posterior_concentrates_with_count_scale():
    truth = LN(1.0, 0.5)
    data = quantile_bracket_sample(truth, 4_000, 10, seed=10)
    cfg = McmcConfig(iterations=6_000, burnin=1_500, seed=11)
    sd_base = fit("ln", data, cfg).param_sds()
    sd_scaled = fit("ln", data.scaled(16.0), cfg).param_sds()
    ratio = sd_scaled / sd_base  # expect ~ 1/4 under 16x counts
    assert np.all(ratio > 0.1)
    assert np.all(ratio < 0.45)


def test_mcmc_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(iterations=100, burnin=100)
    with pytest.raises(ValueError):
        McmcConfig(iterations=0)
    with pytest.raises(ValueError):
        McmcConfig(iterations=100, burnin=-1)
    # a fraction, a bool or a string fails naming the field, not deep in the sampler
    for field, value in (("iterations", 300.5), ("iterations", True), ("iterations", "300"),
                         ("burnin", 100.5), ("burnin", False), ("burnin", None)):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(repr(value))}$"):
            McmcConfig(**{"iterations": 300, "burnin": 100, field: value})
    assert McmcConfig(iterations=np.int64(300), burnin=np.int32(100)).iterations == 300


# ---------------------------------------------------------------------------
# posterior summaries
# ---------------------------------------------------------------------------

def make_draws(family, rows, unit="u") -> PosteriorDraws:
    rows = np.asarray(rows, dtype=float)
    return PosteriorDraws(
        family=family,
        unit=unit,
        draws=rows,
        acceptance_rate=0.3,
        config=McmcConfig(iterations=len(rows) + 1, burnin=1),
    )


@pytest.mark.parametrize("family", ["gb2", "sm", "ln"])
def test_draws_take_their_parameter_names_from_their_family(family):
    draws = fit(family, national_sample(), McmcConfig(iterations=300, burnin=100))
    assert draws.param_names == family_class(draws.family).param_names
    with pytest.raises(TypeError):
        PosteriorDraws(family=family, unit="u", draws=draws.draws, param_names=("x",), acceptance_rate=0.3,
                       config=draws.config)


def test_posterior_ge_identical_draws():
    params = SM(2.0, 3.0, 1.5)
    draws = make_draws("sm", np.tile(params.to_vector(), (50, 1)))
    summary = posterior_ge(draws, 1.0)
    assert_allclose(summary.value, params.ge(1.0), rtol=1e-12)
    assert summary.sd < 1e-12  # identical draws up to mean-rounding noise
    assert summary.n_excluded == 0 and not summary.unreliable


def test_summary_is_undefined_past_half_its_draws_excluded():
    for n_draws in (10, 11):
        half = n_draws // 2
        assert not PosteriorSummary(1.0, 0.1, n_draws, half).undefined
        assert PosteriorSummary(1.0, 0.1, n_draws, half + 1).undefined
    assert PosteriorSummary(math.nan, math.nan, 5, 5).undefined


def test_posterior_ge_ln_linearity_at_mld():
    rows = np.column_stack([np.zeros(40), np.linspace(0.2, 0.8, 40)])
    draws = make_draws("ln", rows)
    summary = posterior_ge(draws, 0.0)
    assert_allclose(summary.value, rows[:, 1].mean() / 2.0, rtol=1e-12)


def test_posterior_mean_income_closed_forms():
    draws = make_draws("ln", [[0.0, 0.0]])
    assert posterior_mean_income(draws).value == 1.0
    draws2 = make_draws("ln", [[0.5, 0.3]])
    assert_allclose(posterior_mean_income(draws2).value, math.exp(0.5 + 0.15), rtol=1e-14)


def test_posterior_ge_exclusions_flagged():
    good = SM(2.0, 3.0, 1.5).to_vector()
    bad = SM(1.5, 3.0, 0.9).to_vector()  # a*q = 1.35 < 2: excluded at theta=2
    rows = np.vstack([np.tile(good, (97, 1)), np.tile(bad, (3, 1))])
    summary = posterior_ge(make_draws("sm", rows), 2.0)
    assert summary.n_excluded == 3
    assert summary.unreliable  # 3% > 1%
    assert_allclose(summary.value, SM(2.0, 3.0, 1.5).ge(2.0), rtol=1e-12)
    all_bad = posterior_ge(make_draws("sm", np.tile(bad, (5, 1))), 2.0)
    assert math.isnan(all_bad.value) and all_bad.n_excluded == 5


# ordinary rows, rows without a mean (a*q <= 1, one of them a*q == 1 exactly),
# and rows whose moment window (-a*p, a*q) excludes the low or the high thetas
MIXED_ROWS = {
    "gb2": [[2.5, 3.0, 1.2, 1.6], [3.1, 2.2, 0.9, 2.4], [1.8, 4.0, 1.5, 3.0], [4.0, 1.5, 0.7, 1.1],
            [1.5, 3.0, 1.0, 0.6], [2.0, 3.0, 1.3, 0.5], [1.2, 2.5, 0.5, 2.0], [1.5, 3.0, 2.0, 1.2],
            [0.8, 2.0, 3.0, 2.5], [6.0, 3.5, 0.4, 0.9]],
    "sm": [[2.5, 3.0, 1.6], [3.1, 2.2, 2.4], [1.8, 4.0, 3.0], [4.0, 1.5, 1.1], [1.5, 3.0, 0.6],
           [2.0, 3.0, 0.5], [1.2, 2.5, 2.0], [1.5, 3.0, 1.2], [0.9, 2.0, 2.5], [6.0, 3.5, 0.9]],
}
MIXED_THETAS = (-2.0, -1.0, 0.0, 1e-10, 0.05, 0.5, 0.95, 1.0, 1.03, 2.0, 3.0)


def per_row_values(rows, value_of) -> np.ndarray:
    """The per-row closed forms, NaN where the moment does not exist."""
    values = []
    for row in rows:
        try:
            values.append(value_of(row))
        except MomentExistenceError:
            values.append(math.nan)
    return np.array(values)


def summary_of(values) -> PosteriorSummary:
    used = values[~np.isnan(values)]
    sd = float(used.std(ddof=1)) if used.size > 1 else 0.0
    return PosteriorSummary(value=float(used.mean()), sd=sd, n_draws=len(values), n_excluded=len(values) - used.size)


@pytest.mark.parametrize("family", ["gb2", "sm"])
def test_posterior_summaries_equal_the_per_row_closed_forms_exactly(family):
    cls = {"gb2": GB2, "sm": SM}[family]
    rng = np.random.default_rng(17)
    random_rows = np.exp(rng.normal(0.4, 0.6, (200, len(cls.param_names))))
    rows = np.vstack([np.tile(MIXED_ROWS[family], (3, 1)), random_rows])
    draws = make_draws(family, rows)
    values = per_row_values(rows, lambda row: cls(*row).mean())
    np.testing.assert_array_equal(draws.terms.mean()[0], values)
    mean = summary_of(values)
    assert posterior_mean_income(draws) == mean
    assert mean.n_excluded > 0
    for theta in MIXED_THETAS:
        values = per_row_values(rows, lambda row: cls(*row).ge(theta))
        np.testing.assert_array_equal(draws.terms.ge(theta)[0], values, err_msg=f"theta={theta}")
        expected = summary_of(values)
        assert posterior_ge(draws, theta) == expected, theta
        # rows without a mean are always out; at the extreme thetas, rows with a mean too
        assert expected.n_excluded > mean.n_excluded if abs(theta) >= 2.0 else expected.n_excluded >= mean.n_excluded


def test_posterior_summaries_build_the_terms_once(monkeypatch):
    built = []

    def counting(family, rows):
        built.append(family)
        return ge_terms(family, rows)

    monkeypatch.setattr(grouped, "ge_terms", counting)
    draws = make_draws("sm", MIXED_ROWS["sm"])
    first = [posterior_ge(draws, theta) for theta in (-1.0, 0.0, 1.0, 2.0)] + [posterior_mean_income(draws)]
    assert built == ["sm"]
    assert [posterior_ge(draws, theta) for theta in (-1.0, 0.0, 1.0, 2.0)] + [posterior_mean_income(draws)] == first
    assert built == ["sm"]
    # a copy with other draws gets its own terms, not the original's
    other = replace(draws, draws=np.tile(SM(2.2, 4.0, 1.8).to_vector(), (4, 1)))
    assert_allclose(posterior_ge(other, 1.0).value, SM(2.2, 4.0, 1.8).ge(1.0), rtol=1e-14)
    assert_allclose(posterior_mean_income(other).value, SM(2.2, 4.0, 1.8).mean(), rtol=1e-14)
    assert posterior_ge(other, 1.0).n_excluded == 0
    assert built == ["sm", "sm"]
    assert posterior_ge(draws, 1.0) == first[2]


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_mcmc_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
        McmcConfig(seed=seed)
    assert McmcConfig(seed=np.int64(3)).seed == 3 and McmcConfig(seed=2**64 - 1).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "tokyo") == derive_seed(7, "tokyo")
    assert derive_seed(7, "tokyo") != derive_seed(8, "tokyo")
    assert derive_seed(7, "tokyo") != derive_seed(7, "chiba")
