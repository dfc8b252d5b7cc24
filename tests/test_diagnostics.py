"""Pareto k-hat of importance weights (PSIS) and its generalized Pareto fit."""

import math

import numpy as np
import pytest

from gedecomp.diagnostics import MIN_TAIL, gpd_shape, pareto_k


def gpd_draws(k: float, n: int, seed: int) -> np.ndarray:
    """Generalized Pareto draws with shape k and unit scale (inverse cdf)."""
    u = np.random.default_rng(seed).random(n)
    return np.expm1(-k * np.log1p(-u)) / k


@pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
def test_gpd_shape_recovers_known_shape(k):
    assert abs(gpd_shape(gpd_draws(k, 2_000, seed=1)) - k) < 0.1


@pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
def test_pareto_k_of_weights_with_a_generalized_pareto_tail(k):
    # weights with a GPD(k) law: exceedances over any threshold have shape k
    for seed in (2, 3):
        assert abs(pareto_k(np.log(gpd_draws(k, 20_000, seed))) - k) < 0.12


def test_pareto_k_ignores_the_scale_of_the_weights():
    log_w = np.log(gpd_draws(0.5, 5_000, seed=4))
    assert pareto_k(log_w + 700.0) == pytest.approx(pareto_k(log_w), abs=1e-9)


def test_bounded_and_light_tails_give_a_negative_k():
    rng = np.random.default_rng(5)
    assert pareto_k(np.log(rng.random(8_000))) < -0.5  # uniform weights: k = -1
    assert pareto_k(0.1 * rng.standard_normal(8_000)) < 0.0  # lognormal with small spread


def test_pareto_k_without_enough_tail_is_infinite():
    # 20 draws give a tail of 4 < MIN_TAIL weights
    assert MIN_TAIL == 5
    assert pareto_k(np.random.default_rng(6).standard_normal(20)) == math.inf
    assert pareto_k(np.zeros(1_000)) == math.inf  # every weight ties with the threshold
    log_w = np.full(1_000, -math.inf)
    assert pareto_k(log_w) == math.inf
    log_w[:3] = 0.0  # three finite weights: still too few
    assert pareto_k(log_w) == math.inf
