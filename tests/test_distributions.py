"""Distribution families: closed forms vs independent oracles and identities."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gedecomp.distributions import (
    GB2,
    LN,
    SM,
    MomentExistenceError,
    ParameterDomainError,
    ge_terms,
    make_family,
    theta_kind,
)

from conftest import quad_ge, quad_moment

PAPER_GB2 = GB2(2.119, 6.192, 0.840, 1.904)


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------

def test_gb2_cdf_symmetric_beta_median():
    # (x/b)^a = 1 maps to beta argument 1/2; Beta(p, p) has median 1/2
    assert_allclose(GB2(2, 3, 1.5, 1.5).cdf(3.0), 0.5, rtol=1e-12)


def test_sm_cdf_algebraic_median():
    assert_allclose(SM(2, 3, 1).cdf(3.0), 0.5, rtol=1e-14)


def test_gb2_cdf_matches_independent_incomplete_beta():
    # continued-fraction oracle for the regularized incomplete beta at 1/2
    oracle = float(mpmath.betainc(0.840, 1.904, 0, 0.5, regularized=True))
    assert_allclose(PAPER_GB2.cdf(6.192), oracle, rtol=1e-12)


def test_cdf_monotone_and_boundary_values():
    xs = np.linspace(0.0, 60.0, 200)
    for dist in (PAPER_GB2, SM(2.3, 4.0, 1.7), LN(0.5, 0.8)):
        values = dist.cdf(xs)
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= 0.0)
        assert 0.0 <= values[-1] <= 1.0
        assert dist.cdf(np.inf) == 1.0
        assert dist.cdf(1e9) > 1.0 - 1e-6
        assert np.array_equal(dist.cdf(np.array([-np.inf, -5.0, -1e-300, -0.0])), np.zeros(4))
        assert dist.cdf(-1.0) == 0.0


def test_degenerate_ln_cdf_is_step():
    dist = LN(0.0, 0.0)
    assert_allclose(dist.cdf(np.array([0.5, 1.0, 2.0])), [0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------

def test_ln_pdf_at_log_median():
    assert_allclose(LN(0.0, 1.0).pdf(1.0), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-14)


def test_sm_pdf_equals_gb2_with_unit_p():
    xs = np.array([0.3, 1.0, 2.7, 8.0, 30.0])
    assert_allclose(SM(2.1, 3.5, 1.8).pdf(xs), GB2(2.1, 3.5, 1.0, 1.8).pdf(xs), rtol=1e-13)


def test_gb2_pdf_integrates_to_one():
    from scipy import integrate

    dist = PAPER_GB2
    total = integrate.quad(dist.pdf, 0, dist.b, limit=200)[0]
    total += integrate.quad(dist.pdf, dist.b, np.inf, limit=200)[0]
    assert_allclose(total, 1.0, atol=1e-8)


def test_pdf_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        PAPER_GB2.pdf(0.0)
    with pytest.raises(ParameterDomainError):
        LN(0.0, 0.0).pdf(1.0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_degenerate_ln_moment():
    assert LN(0.0, 0.0).moment(7.0) == 1.0


def test_moment_order_zero_and_mean():
    for dist in (PAPER_GB2, SM(2, 3, 1.5), LN(0.2, 0.5)):
        assert_allclose(dist.moment(0.0), 1.0, rtol=1e-14)
        assert dist.mean() == dist.moment(1.0)


def test_gb2_mean_matches_quadrature():
    assert_allclose(PAPER_GB2.moment(1.0), quad_moment(PAPER_GB2, 1.0), rtol=1e-9)


def test_moment_window_is_open():
    with pytest.raises(MomentExistenceError) as err:
        SM(2, 1, 1).moment(2.0)  # theta == a*q exactly
    assert err.value.low == -2.0
    assert err.value.high == 2.0
    with pytest.raises(MomentExistenceError):
        PAPER_GB2.moment(-2.119 * 0.840)


# ---------------------------------------------------------------------------
# generalized entropy
# ---------------------------------------------------------------------------

def test_ln_ge_limits_are_half_sigma2():
    for xi in (-3.0, 0.0, 2.5):
        assert_allclose(LN(xi, 0.5).ge(0.0), 0.25, rtol=1e-14)
        assert_allclose(LN(xi, 0.5).ge(1.0), 0.25, rtol=1e-14)


def test_ln_ge_at_minus_one_closed_form():
    # [E[X^-1] E[X] - 1] / 2 = (e - 1) / 2 for LN(0, 1)
    assert_allclose(LN(0.0, 1.0).ge(-1.0), (math.e - 1.0) / 2.0, rtol=1e-12)


def test_gb2_theil_near_paper_estimate():
    assert abs(PAPER_GB2.ge(1.0) - 0.249) < 0.01


def test_ge_requires_existing_mean():
    heavy = SM(1.5, 3.0, 0.5)  # a*q = 0.75 < 1: no mean
    with pytest.raises(MomentExistenceError):
        heavy.ge(1.0)
    with pytest.raises(MomentExistenceError):
        heavy.ge(0.0)
    with pytest.raises(MomentExistenceError):
        PAPER_GB2.ge(5.0)  # outside the window even though the mean exists


def test_ge_nonnegative_and_zero_iff_degenerate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dist = SM(rng.uniform(1.5, 3.0), rng.uniform(1.0, 8.0), rng.uniform(1.0, 3.0))
        theta = rng.uniform(-1.0, 2.0)
        low, high = dist.moment_window
        if high > 1.0 and low < theta < high:
            assert dist.ge(theta) > 0.0
    assert LN(1.3, 0.0).ge(2.0) == 0.0
    assert LN(1.3, 0.0).ge(0.0) == 0.0


def test_ge_limit_continuity():
    for dist in (PAPER_GB2, SM(2.2, 4.0, 1.9), LN(0.4, 0.7)):
        for limit in (0.0, 1.0):
            at_limit = dist.ge(limit)
            for eps in (-1e-6, 1e-6):
                assert_allclose(dist.ge(limit + eps), at_limit, rtol=1e-4)


def test_ge_closed_form_vs_quadrature_grid():
    rng = np.random.default_rng(11)
    for _ in range(6):
        dist = GB2(rng.uniform(1.6, 3.0), rng.uniform(2.0, 7.0), rng.uniform(0.7, 1.8), rng.uniform(1.3, 2.8))
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            low, high = dist.moment_window
            if not (high > 1.0 and low < theta < high):
                continue
            assert_allclose(dist.ge(theta), quad_ge(dist, theta), rtol=1e-6)


def _mp_ge(theta, a, p, q) -> float:
    """The GB2 GE closed form in 40-digit arithmetic (b drops out)."""
    with mpmath.workdps(40):
        t, a, p, q = (mpmath.mpf(float(v)) for v in (theta, a, p, q))

        def log_moment(s):
            return mpmath.loggamma(p + s / a) + mpmath.loggamma(q - s / a) - mpmath.loggamma(p) - mpmath.loggamma(q)

        return float(mpmath.expm1(log_moment(t) - t * log_moment(1)) / (t * (t - 1)))


def test_ge_near_the_limits_matches_40_digit_closed_form():
    # just outside the LIMIT_TOL windows and across the 0.1 bands, where gammaln differences cancel;
    # q - 1/a = 0.067 and a*q = 1.05 put Theil-side arguments near the pole of gammaln at 0
    thetas = (2e-9, -2e-9, 1e-7, -1e-5, 0.05, -0.04, -0.0999, 0.0999,
              0.9001, 1 - 2e-9, 1 + 2e-9, 1 + 1e-6, 1.04, 1.0999)
    dists = [GB2(2.1, 6.2, 0.84, 1.9), GB2(3.0, 1.0, 1.0, 0.4), GB2(5.0, 2.0, 2.0, 0.267), GB2(1.0, 3.0, 0.05, 2.0),
             GB2(1.05, 1.0, 1.0, 1.0), SM(2.5, 3.0, 1.7), SM(1.2, 2.0, 5.0)]
    checked = 0
    for dist in dists:
        tag = "sm" if isinstance(dist, SM) else "gb2"
        for theta in thetas:
            low, high = dist.moment_window
            if not low < theta < high:
                continue
            expected = _mp_ge(theta, dist.a, dist.p, dist.q)
            drawn, ok = ge_terms(tag, dist.to_vector()[None, :]).ge(theta)
            assert ok.all()
            for value in (dist.ge(theta), drawn[0]):
                assert abs(value - expected) <= 1e-12 * abs(expected), (dist, theta)
            checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# Singh-Maddala / GB2 coincidence and scale behavior
# ---------------------------------------------------------------------------

def test_sm_gb2_coincidence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, q = rng.uniform(1.5, 3.0), rng.uniform(1.0, 8.0), rng.uniform(1.1, 3.0)
        sm, gb2 = SM(a, b, q), GB2(a, b, 1.0, q)
        x = rng.uniform(0.1, 20.0, size=5)
        assert_allclose(sm.cdf(x), gb2.cdf(x), rtol=1e-12)
        assert_allclose(sm.pdf(x), gb2.pdf(x), rtol=1e-12)
        theta = rng.uniform(-a + 0.05, a * q - 0.05)
        assert_allclose(sm.moment(theta), gb2.moment(theta), rtol=1e-12)
        if a * q > 1.0:
            assert_allclose(sm.ge(theta), gb2.ge(theta), rtol=1e-12)
            assert_allclose(sm.ge(0.0), gb2.ge(0.0), rtol=1e-12)
            assert_allclose(sm.ge(1.0), gb2.ge(1.0), rtol=1e-12)


def test_scale_equivariance_and_ge_invariance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, p, q = rng.uniform(1.5, 3.0), rng.uniform(1.0, 6.0), rng.uniform(0.6, 2.0), rng.uniform(1.2, 3.0)
        c = rng.uniform(0.2, 5.0)
        theta = rng.uniform(-a * p + 0.05, a * q - 0.05)
        base, scaled = GB2(a, b, p, q), GB2(a, c * b, p, q)
        assert_allclose(scaled.moment(theta), c**theta * base.moment(theta), rtol=1e-12)
        if a * q > 1.0:
            assert_allclose(scaled.ge(theta), base.ge(theta), rtol=1e-12)
        shift = rng.uniform(-2.0, 2.0)
        assert_allclose(LN(0.3 + shift, 0.6).ge(theta), LN(0.3, 0.6).ge(theta), rtol=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_degenerate_ln_sample_is_constant():
    x = LN(0.0, 0.0).sample(100, np.random.default_rng(0))
    assert np.all(x == 1.0)


def test_sm_and_gb2_share_the_sampling_construction():
    x_sm = SM(2.0, 3.0, 1.5).sample(1000, np.random.default_rng(42))
    x_gb2 = GB2(2.0, 3.0, 1.0, 1.5).sample(1000, np.random.default_rng(42))
    assert np.array_equal(x_sm, x_gb2)


def test_sample_mean_matches_moment_clt():
    n = 1_000_000
    x = PAPER_GB2.sample(n, np.random.default_rng(8))
    se = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - PAPER_GB2.moment(1.0)) < 3.0 * se


@pytest.mark.parametrize(
    "dist",
    [GB2(2.119, 6.192, 0.840, 1.904), SM(2.3, 4.0, 1.7), LN(0.5, 0.8)],
    ids=["gb2", "sm", "ln"],
)
def test_sample_ks_against_cdf(dist):
    n = 200_000
    x = np.sort(dist.sample(n, np.random.default_rng(123)))
    ecdf = np.arange(1, n + 1) / n
    ks = np.max(np.abs(ecdf - dist.cdf(x)))
    assert ks < 1.63 / math.sqrt(n)  # ~1% critical value


def test_sample_draws_positive_and_deterministic():
    dist = SM(2.0, 3.0, 1.4)
    x1 = dist.sample(500, np.random.default_rng(5))
    x2 = dist.sample(500, np.random.default_rng(5))
    assert np.array_equal(x1, x2)
    assert np.all(x1 > 0.0)
    with pytest.raises(ValueError):
        dist.sample(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# validation, tags, vector round-trips
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ParameterDomainError):
        GB2(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        SM(2.0, -1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        LN(0.0, -0.1)
    with pytest.raises(ParameterDomainError):
        LN(math.inf, 1.0)


def test_theta_kind_dispatch():
    assert theta_kind(0.0) == "mld"
    assert theta_kind(5e-10) == "mld"
    assert theta_kind(1.0 - 5e-10) == "theil"
    assert theta_kind(2.0) == "general"
    with pytest.raises(ValueError):
        theta_kind(math.nan)


def test_make_family_and_vector_round_trip():
    for tag, vec in (("gb2", [2, 3, 1.5, 1.5]), ("sm", [2, 3, 1.5]), ("ln", [0.1, 0.5])):
        dist = make_family(tag, vec)
        assert dist.tag == tag
        assert_allclose(dist.to_vector(), vec)
    with pytest.raises(ParameterDomainError):
        make_family("pareto", [1.0])


def _outcome(method, theta):
    try:
        return method(theta)
    except MomentExistenceError as exc:
        return str(exc)


@pytest.mark.parametrize("a, b, q", [(2.2, 4.0, 1.8), (3.4, 1.5, 0.6), (0.7, 3.0, 1.2)])
def test_sm_is_gb2_with_unit_first_shape(a, b, q):
    sm, gb2 = SM(a, b, q), GB2(a, b, 1.0, q)
    assert isinstance(sm, GB2) and sm.p == 1.0
    assert "cdf" in SM.__dict__  # the algebraic form, not the incomplete beta
    assert repr(sm) == f"SM(a={a!r}, b={b!r}, q={q!r})"
    assert sm.to_vector().tolist() == [a, b, q]
    assert sm == SM(a, b, q) and sm != gb2
    x = np.array([0.3, 1.0, 2.5, 7.0, 40.0])
    assert np.array_equal(sm.pdf(x), gb2.pdf(x))
    assert np.array_equal(sm.sample(50, np.random.default_rng(3)), gb2.sample(50, np.random.default_rng(3)))
    for theta in (-1.0, 0.0, 0.5, 1.0, 2.0):
        for method in ("moment", "ge"):
            assert _outcome(getattr(sm, method), theta) == _outcome(getattr(gb2, method), theta)
    draws = np.array([[a, b, q], [a, b, 0.3], [1.5, 2.0, 2.5], [0.9, 3.0, 1.05]])
    gb2_draws = np.insert(draws, 2, 1.0, axis=1)
    pairs = [(ge_terms("sm", draws).ge(t), ge_terms("gb2", gb2_draws).ge(t)) for t in (-1.0, 0.0, 1.0, 2.0)]
    pairs.append((ge_terms("sm", draws).mean(), ge_terms("gb2", gb2_draws).mean()))
    for (sm_values, sm_ok), (gb2_values, gb2_ok) in pairs:
        assert np.array_equal(sm_values, gb2_values, equal_nan=True)
        assert np.array_equal(sm_ok, gb2_ok)


def test_draw_matrix_helpers_mask_inadmissible_rows():
    draws = np.array([[2.0, 3.0, 1.5], [1.5, 3.0, 0.5]])  # second row: a*q = 0.75
    values, ok = ge_terms("sm", draws).ge(1.0)
    assert ok.tolist() == [True, False]
    assert np.isnan(values[1]) and values[0] > 0.0
    means, ok2 = ge_terms("sm", draws).mean()
    assert ok2.tolist() == [True, False]
    assert_allclose(means[0], SM(2.0, 3.0, 1.5).mean(), rtol=1e-12)
