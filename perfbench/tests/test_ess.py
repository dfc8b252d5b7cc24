"""Bulk ESS against processes whose effective sample size is known."""

import numpy as np
import pytest

from ess import bulk_ess


def ar1(n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ar1_matches_closed_form(rho):
    n = 8000
    rng = np.random.default_rng(2021)
    estimates = [bulk_ess(ar1(n, rho, rng)) for _ in range(20)]
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert np.mean(estimates) == pytest.approx(expected, rel=0.10)


def test_iid_draws_give_about_n():
    rng = np.random.default_rng(7)
    assert bulk_ess(rng.standard_normal(8000)) == pytest.approx(8000, rel=0.1)


def test_depends_only_on_ranks():
    rng = np.random.default_rng(3)
    x = ar1(4000, 0.7, rng)
    assert bulk_ess(np.exp(3.0 * x)) == pytest.approx(bulk_ess(x), rel=1e-12)
    assert bulk_ess(np.where(x > 2.0, np.inf, x)) == pytest.approx(bulk_ess(np.where(x > 2.0, 99.0, x)), rel=1e-12)


def test_stuck_chain_has_few_effective_draws():
    # a random-walk chain that repeats each state 50 times
    x = np.repeat(np.random.default_rng(5).standard_normal(160), 50)
    assert bulk_ess(x) < 400


def test_several_chains_are_pooled():
    rng = np.random.default_rng(11)
    chains = np.stack([rng.standard_normal(2000) for _ in range(4)])
    assert bulk_ess(chains) == pytest.approx(8000, rel=0.1)
    with pytest.raises(ValueError):
        bulk_ess([1.0, np.nan, 2.0, 3.0, 4.0])
