"""Finite-population GE: hand values, the exact decomposition identity, axioms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gedecomp.distributions import LIMIT_TOL, LN, SM
from gedecomp.inequality import (
    DomainError,
    between_from_means,
    decompose_finite,
    decomposition_weights,
    ge_finite,
)

from conftest import mc_ge_with_se

THETA_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def random_population(rng, n_max=400):
    n = rng.integers(3, n_max)
    return np.exp(rng.normal(0.5, 0.8, n))


# ---------------------------------------------------------------------------
# ge_finite
# ---------------------------------------------------------------------------

def test_constant_incomes_give_zero():
    x = np.array([5.0, 5.0, 5.0, 5.0])
    for theta in THETA_GRID:
        assert abs(ge_finite(x, theta)) < 1e-15


def test_two_point_hand_values():
    assert_allclose(ge_finite([1.0, 3.0], 2.0), 0.125, rtol=1e-14)
    assert_allclose(ge_finite([1.0, 3.0], 0.0), -0.5 * math.log(0.75), rtol=1e-12)


@pytest.mark.parametrize("theta", [2e-9, 1e-6, 0.05, -0.05, 1.0 - 1e-7, 1.0 + 2e-9, 1.05])
def test_near_limit_values_keep_full_precision(theta):
    # outside the limit windows the direct formula would lose eps/|theta| here
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        exact = float(((mpmath.mpf("0.5") ** t + mpmath.mpf("1.5") ** t) / 2 - 1) / (t * (t - 1)))
    assert_allclose(ge_finite([1.0, 3.0], theta), exact, rtol=1e-14)


def test_nonpositive_income_rejected():
    with pytest.raises(DomainError):
        ge_finite([1.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        ge_finite([1.0, -2.0], 0.0)
    with pytest.raises(DomainError):
        ge_finite([], 1.0)


def test_scale_invariance():
    rng = np.random.default_rng(1)
    x = random_population(rng)
    for theta in THETA_GRID:
        for c in (0.01, 3.7, 250.0):
            assert_allclose(ge_finite(c * x, theta), ge_finite(x, theta), rtol=1e-12)


def test_replication_invariance():
    rng = np.random.default_rng(2)
    x = random_population(rng, 60)
    labels = rng.integers(0, 3, len(x))
    rep_x = np.tile(x, 4)
    rep_labels = np.tile(labels, 4)
    for theta in THETA_GRID:
        assert_allclose(ge_finite(rep_x, theta), ge_finite(x, theta), rtol=1e-12)
        d1 = decompose_finite(x, labels, theta)
        d2 = decompose_finite(rep_x, rep_labels, theta)
        assert_allclose(d2.within, d1.within, rtol=1e-12)
        assert_allclose(d2.between, d1.between, rtol=1e-12)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_single_group_is_all_within():
    x = np.array([1.0, 2.0, 5.0])
    for theta in THETA_GRID:
        dec = decompose_finite(x, np.zeros(3), theta)
        assert dec.between == 0.0
        assert_allclose(dec.within, ge_finite(x, theta), rtol=1e-14)


def test_degenerate_groups_mld_between_only():
    x = np.array([2.0, 2.0, 2.0, 6.0, 6.0, 6.0])
    labels = np.array(["lo"] * 3 + ["hi"] * 3)
    dec = decompose_finite(x, labels, 0.0)
    assert dec.within == 0.0
    expected = 0.5 * math.log(4.0 / 2.0) + 0.5 * math.log(4.0 / 6.0)
    assert_allclose(dec.between, expected, rtol=1e-12)
    assert_allclose(dec.total, expected, rtol=1e-12)


def test_empty_group_label_mismatch_rejected():
    with pytest.raises(DomainError):
        decompose_finite([1.0, 2.0], [0], 1.0)


def test_identity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(60):
        x = random_population(rng)
        labels = rng.integers(0, rng.integers(2, 6), len(x))
        for theta in THETA_GRID:
            dec = decompose_finite(x, labels, theta)
            tol = 1e-12 * max(1.0, abs(dec.total))
            assert abs(dec.identity_gap) < tol


# ints and strs interleaved: an object label array keeps 0 and "0" apart
LABEL_POOL = (0, "a", 1, "b", 2, "0")


@st.composite
def labelled_incomes(draw):
    n = draw(st.integers(1, 60))
    x = draw(st.lists(st.floats(1e-3, 1e4), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=n, max_size=n))
    return np.array(x), np.array(labels, dtype=object)


# the whole range, and around 0 and 1 both the LIMIT_TOL windows that dispatch
# to MLD and Theil and the values just outside them
THETAS = st.one_of(
    st.floats(-1.0, 3.0),
    st.sampled_from((0.0, 1.0)).flatmap(lambda c: st.floats(c - 1e3 * LIMIT_TOL, c + 1e3 * LIMIT_TOL)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(labelled_incomes(), THETAS)
def test_decompose_finite_properties(population, theta):
    x, labels = population
    dec = decompose_finite(x, labels, theta)
    assert abs(dec.identity_gap) <= 1e-12 * max(1.0, abs(dec.total))
    assert [t.label for t in dec.groups] == list(dict.fromkeys(labels.tolist()))
    for term in dec.groups:
        assert term.ge == ge_finite(x[labels == term.label], theta)


def test_weight_identities_at_limits():
    rng = np.random.default_rng(5)
    x = random_population(rng)
    labels = rng.integers(0, 4, len(x))
    d0 = decompose_finite(x, labels, 0.0)
    lam = np.array([t.share for t in d0.groups])
    w0 = np.array([t.weight for t in d0.groups])
    assert np.array_equal(w0, lam)
    assert_allclose(w0.sum(), 1.0, atol=1e-12)
    d1 = decompose_finite(x, labels, 1.0)
    s = np.array([t.income_share for t in d1.groups])
    w1 = np.array([t.weight for t in d1.groups])
    assert np.array_equal(w1, s)
    assert_allclose(w1.sum(), 1.0, atol=1e-12)


def test_decomposition_weights_dispatch():
    lam = np.array([0.25, 0.75])
    s = np.array([0.4, 0.6])
    assert np.array_equal(decomposition_weights(lam, s, 0.0), lam)
    assert np.array_equal(decomposition_weights(lam, s, 1.0), s)
    assert_allclose(decomposition_weights(lam, s, 2.0), lam ** (-1.0) * s**2, rtol=1e-14)


# ---------------------------------------------------------------------------
# between_from_means
# ---------------------------------------------------------------------------

def test_between_equal_means_vanishes():
    est = between_from_means([0.3, 0.7], [4.0, 4.0], 2.0)
    assert est.between == 0.0
    assert_allclose(est.income_shares, [0.3, 0.7], rtol=1e-14)
    assert_allclose(est.weights, [0.3, 0.7], rtol=1e-14)


def test_between_theil_hand_value():
    est = between_from_means([0.5, 0.5], [2.0, 6.0], 1.0)
    assert_allclose(est.income_shares, [0.25, 0.75], rtol=1e-14)
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert_allclose(est.between, expected, rtol=1e-12)


def test_between_mld_hand_value():
    est = between_from_means([0.5, 0.5], [2.0, 6.0], 0.0)
    expected = 0.5 * math.log(4.0 / 2.0) + 0.5 * math.log(4.0 / 6.0)
    assert_allclose(est.between, expected, rtol=1e-12)


def test_between_share_sum_validated():
    with pytest.raises(DomainError):
        between_from_means([0.5, 0.6], [2.0, 6.0], 1.0)
    with pytest.raises(DomainError):
        between_from_means([0.5, 0.5], [2.0, -6.0], 1.0)


@pytest.mark.parametrize("shares, means", [
    ([math.nan, 1.0], [1.0, 2.0]),
    ([0.5, math.inf], [1.0, 2.0]),
    ([0.5, 0.5], [math.nan, 2.0]),
    ([0.5, 0.5], [1.0, math.inf]),
], ids=["nan-share", "inf-share", "nan-mean", "inf-mean"])
def test_between_rejects_values_that_are_not_finite(shares, means):
    with pytest.raises(DomainError, match="positive and finite"):
        between_from_means(shares, means, 1.0)


@pytest.mark.parametrize("theta", THETA_GRID + (1e-9, 0.05, 0.95))
def test_between_is_the_ge_of_the_group_means(theta):
    # the distribution that puts each group's size on its mean: MLD and Theil
    # limits, both near-limit forms and the generic form
    sizes = np.array([3, 7, 2, 5])
    means = np.array([1.5, 4.0, 9.0, 2.5])
    est = between_from_means(sizes / sizes.sum(), means, theta)
    assert_allclose(est.between, ge_finite(np.repeat(means, sizes), theta), rtol=1e-12)


def test_between_matches_finite_population_between():
    rng = np.random.default_rng(9)
    x = random_population(rng)
    labels = rng.integers(0, 3, len(x))
    for theta in THETA_GRID:
        dec = decompose_finite(x, labels, theta)
        lam = np.array([t.share for t in dec.groups])
        means = np.array([t.mean for t in dec.groups])
        est = between_from_means(lam, means, theta)
        assert_allclose(est.between, dec.between, rtol=1e-12)
        assert_allclose(est.weights, [t.weight for t in dec.groups], rtol=1e-12)


# ---------------------------------------------------------------------------
# agreement with the parametric world
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_parametric_consistency_ln(theta):
    dist = LN(0.4, 0.6)
    x = dist.sample(1_000_000, np.random.default_rng(31))
    mc, se = mc_ge_with_se(x, theta)
    assert abs(mc - dist.ge(theta)) < 3.0 * se


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
def test_parametric_consistency_sm(theta):
    dist = SM(2.4, 4.0, 2.0)
    x = dist.sample(1_000_000, np.random.default_rng(32))
    mc, se = mc_ge_with_se(x, theta)
    assert abs(mc - dist.ge(theta)) < 3.0 * se
