"""Grouped likelihood, priors, and the random-walk MH sampler."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gedecomp as g
from gedecomp.distributions import LN, SM, make_batch, make_family
from gedecomp.grouped import (
    GroupedSample,
    McmcConfig,
    PosteriorDraws,
    UnderIdentifiedError,
    _chain_log_density,
    config_for_unit,
    derive_seed,
    fit,
    fit_batch,
    log_likelihood,
    log_prior,
    posterior_ge,
    posterior_mean_income,
    random_walk_chain,
)

from conftest import national_sample


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
    lp = density(t)
    assert math.isfinite(lp[0])
    assert np.all(lp[1:] == -math.inf)
    assert lp[0] == _chain_log_density("gb2", [one_bracket])(t[:1])[0]
    ln = _chain_log_density("ln", [one_bracket] * 2)(np.array([[1.0, 0.0], [1.0, -800.0]]))  # sigma2 = 0
    assert math.isfinite(ln[0]) and ln[1] == -math.inf


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

def test_prior_single_parameter_at_one():
    assert_allclose(log_prior(LN(0.0, 1.0)), -1.0, rtol=1e-14)  # xi is flat


def test_prior_gb2_all_ones():
    assert_allclose(log_prior(g.GB2(1.0, 1.0, 1.0, 1.0)), -4.0, rtol=1e-14)


def test_prior_gradient_finite_difference():
    h = 1e-6
    grad = (log_prior(LN(0.0, 2.0 + h)) - log_prior(LN(0.0, 2.0 - h))) / (2.0 * h)
    assert_allclose(grad, -0.75, rtol=1e-8)


def test_prior_flat_in_ln_location():
    assert log_prior(LN(-5.0, 0.7)) == log_prior(LN(12.0, 0.7))


# ---------------------------------------------------------------------------
# sampler core
# ---------------------------------------------------------------------------

def test_chain_normal_target_conjugate_mean():
    log_density = lambda t: -0.5 * ((t[:, 0] - 3.0) / 2.0) ** 2
    draws, rate = random_walk_chain(
        log_density, np.array([[0.0]]), np.array([[1.0]]), 20_000, 4_000, [np.random.default_rng(0)]
    )
    assert draws.shape == (1, 16_000, 1)
    assert abs(draws.mean() - 3.0) < 0.15
    assert abs(draws.std() - 2.0) < 0.2
    assert 0.1 < rate[0] < 0.6


def test_chain_beta_target_mean():
    def log_density(t):
        x = t[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((0.0 < x) & (x < 1.0), 4.0 * np.log(x) + 2.0 * np.log1p(-x), -math.inf)  # Beta(5, 3)

    draws, _ = random_walk_chain(
        log_density, np.array([[0.5]]), np.array([[0.2]]), 20_000, 4_000, [np.random.default_rng(1)]
    )
    assert abs(draws.mean() - 5.0 / 8.0) < 0.02


def test_chain_without_adaptation_keeps_fixed_kernel():
    log_density = lambda t: -0.5 * (t * t).sum(axis=1)
    draws, _ = random_walk_chain(
        log_density, np.zeros((1, 2)), np.array([[0.8, 0.8]]), 5_000, 1_000, [np.random.default_rng(2)], adapt=False
    )
    assert abs(draws[0].mean(axis=0)).max() < 0.2


def test_chain_rows_match_chains_run_alone():
    # a correlated Gaussian per row, so the covariance adaptation engages
    centres = np.array([[1.0, -2.0], [0.0, 5.0], [3.0, 3.0]])
    precision = np.array([[[2.0, 1.8], [1.8, 2.0]], [[1.0, 0.0], [0.0, 4.0]], [[5.0, -2.0], [-2.0, 1.0]]])

    def density_of(rows):
        def log_density(t):  # elementwise per row, so a row's value cannot depend on the others
            r0, r1 = (t - centres[rows]).T
            p = precision[rows]
            return -0.5 * (p[:, 0, 0] * r0 * r0 + 2.0 * p[:, 0, 1] * r0 * r1 + p[:, 1, 1] * r1 * r1)
        return log_density

    starts = np.zeros((3, 2))
    steps = np.array([[0.1, 0.1], [0.5, 0.2], [1.0, 1.0]])
    seeds = (7, 8, 9)
    for adapt in (True, False):
        together, rates = random_walk_chain(
            density_of([0, 1, 2]), starts, steps, 1_200, 400, [np.random.default_rng(s) for s in seeds], adapt
        )
        for k in range(3):
            alone, rate = random_walk_chain(
                density_of([k]), starts[k : k + 1], steps[k : k + 1], 1_200, 400, [np.random.default_rng(seeds[k])], adapt
            )
            assert np.array_equal(together[k], alone[0])
            assert rates[k] == rate[0]


def test_chain_reads_each_stream_in_single_chain_order():
    # a flat density accepts every proposal, so without adaptation each row is
    # its start plus the cumulated steps * normals of its own stream, read as
    # one standard_normal(d) and then one uniform per iteration; the burn-in
    # spans two adaptation windows and a covariance refresh, which adapt=False
    # must skip
    starts = np.array([[0.0, 1.0, 2.0], [5.0, -1.0, 0.5]])
    steps = np.array([[0.1, 0.2, 0.3], [1.0, 1.0, 1.0]])
    seeds = (3, 4)
    draws, rates = random_walk_chain(
        lambda t: np.zeros(len(t)), starts, steps, 230, 120, [np.random.default_rng(s) for s in seeds], adapt=False
    )
    assert np.array_equal(rates, [1.0, 1.0])
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        t = starts[k]
        expected = []
        for _ in range(230):
            t = t + steps[k] * rng.standard_normal(3)
            rng.uniform()
            expected.append(t)
        assert np.array_equal(draws[k], np.array(expected[120:]))


def test_chain_rejects_bad_start():
    with pytest.raises(ValueError):
        random_walk_chain(
            lambda t: np.full(len(t), -math.inf), np.zeros((1, 1)), np.ones((1, 1)), 100, 10, [np.random.default_rng(0)]
        )


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
        fit_batch("ln", [good, stuck], [cfg, replace(cfg, seed=1)])
    with pytest.raises(ValueError, match="same number of brackets"):
        fit_batch("ln", [good, GroupedSample([0, 1, 2, 3, inf], [1.0, 1.0, 1.0, 1.0], "four")], [cfg, cfg])
    with pytest.raises(ValueError, match="one config per sample"):
        fit_batch("ln", [good, good], [cfg])
    with pytest.raises(UnderIdentifiedError):
        fit_batch("gb2", [good], [cfg])
    assert [d.unit for d in fit_batch("ln", [good, good], [cfg, replace(cfg, seed=1)])] == ["good", "good"]


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
    assert 0.1 < draws.acceptance_rate < 0.6


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
        McmcConfig(step_sizes=(0.1, -0.1))


# ---------------------------------------------------------------------------
# posterior summaries
# ---------------------------------------------------------------------------

def make_draws(family, rows, unit="u") -> PosteriorDraws:
    rows = np.asarray(rows, dtype=float)
    return PosteriorDraws(
        family=family,
        unit=unit,
        draws=rows,
        param_names=("a", "b", "q") if family == "sm" else ("xi", "sigma2"),
        acceptance_rate=0.3,
        config=McmcConfig(iterations=len(rows) + 1, burnin=1),
    )


def test_posterior_ge_identical_draws():
    params = SM(2.0, 3.0, 1.5)
    draws = make_draws("sm", np.tile(params.to_vector(), (50, 1)))
    summary = posterior_ge(draws, 1.0)
    assert_allclose(summary.value, params.ge(1.0), rtol=1e-12)
    assert summary.sd < 1e-12  # identical draws up to mean-rounding noise
    assert summary.n_excluded == 0 and not summary.unreliable


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


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "tokyo") == derive_seed(7, "tokyo")
    assert derive_seed(7, "tokyo") != derive_seed(8, "tokyo")
    assert derive_seed(7, "tokyo") != derive_seed(7, "chiba")
    cfg = config_for_unit(McmcConfig(seed=7), 7, "tokyo")
    assert cfg.seed == derive_seed(7, "tokyo")
