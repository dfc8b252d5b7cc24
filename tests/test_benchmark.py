"""Constrained Bayes solver: closed form vs a dense QP oracle, KKT, the uniform and raking policies."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gedecomp.benchmark import (
    DegenerateProblemError,
    RakingInadmissibleError,
    solve,
)
from gedecomp.pipeline import _phi_vector


def qp_oracle(bayes, weights, target, between, phi) -> np.ndarray:
    """Equality-constrained QP via the dense KKT system.

    minimize sum phi_j (d_j - bayes_j)^2  s.t.  w @ d = target - between
    """
    j = len(bayes)
    kkt = np.zeros((j + 1, j + 1))
    kkt[:j, :j] = 2.0 * np.diag(phi)
    kkt[:j, j] = weights
    kkt[j, :j] = weights
    rhs = np.concatenate([2.0 * phi * bayes, [target - between]])
    return np.linalg.solve(kkt, rhs)[:j]


def random_problem(rng, j=None, with_phi=True) -> tuple:
    """The arguments of one solve call: random loss weights, or the uniform policy's phi = w."""
    j = j or rng.integers(1, 11)
    bayes = rng.uniform(0.05, 0.6, j)
    weights = rng.uniform(0.1, 1.5, j)
    phi = rng.uniform(0.1, 2.0, j) if with_phi else weights
    target = rng.uniform(0.05, 0.8)
    between = rng.uniform(0.0, 0.05)
    return bayes, weights, target, between, phi


def constraint_gap(weights, target, between, constrained) -> float:
    return float(weights @ constrained + between - target)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_zero_residual_returns_bayes():
    bayes = np.array([0.2, 0.4])
    w = np.array([0.5, 0.5])
    target = float(w @ bayes) + 0.01
    assert float(target - 0.01 - float(w @ bayes)) == 0.0
    assert np.array_equal(solve(bayes, w, target, 0.01, w), bayes)


def test_hand_example():
    weights = np.array([0.5, 0.5])
    constrained = solve(np.array([0.2, 0.4]), weights, 0.35, 0.0, np.array([0.5, 0.5]))
    assert_allclose(0.35 - float(weights @ np.array([0.2, 0.4])), 0.05, rtol=1e-14)  # the residual
    assert_allclose(constrained, [0.25, 0.45], rtol=1e-13)
    assert_allclose(weights @ constrained, 0.35, rtol=1e-14)


def test_matches_qp_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        problem = random_problem(rng)
        assert_allclose(solve(*problem), qp_oracle(*problem), rtol=1e-10, atol=1e-12)


def test_constraint_exactness():
    rng = np.random.default_rng(23)
    for _ in range(100):
        bayes, weights, target, between, phi = random_problem(rng, with_phi=bool(rng.integers(2)))
        constrained = solve(bayes, weights, target, between, phi)
        assert abs(constraint_gap(weights, target, between, constrained)) < 1e-12 * max(1.0, abs(target))


def test_kkt_stationarity_along_constraint():
    rng = np.random.default_rng(29)
    for _ in range(30):
        bayes, weights, target, between, phi = random_problem(rng, j=int(rng.integers(2, 9)))
        d = solve(bayes, weights, target, between, phi)
        objective = lambda v: float(phi @ (v - bayes) ** 2)
        base = objective(d)
        for _ in range(5):
            v = rng.standard_normal(len(d))
            v -= weights * (weights @ v) / (weights @ weights)
            if np.linalg.norm(v) < 1e-12:
                continue
            v /= np.linalg.norm(v)
            for eps in (1e-4, -1e-4):
                assert objective(d + eps * v) >= base - 1e-8 * max(1.0, base)


def test_phi_scaling_invariance():
    rng = np.random.default_rng(31)
    bayes, weights, target, between, phi = random_problem(rng, j=6)
    base = solve(bayes, weights, target, between, phi)
    for c in (1e-3, 7.0, 1e4):
        assert_allclose(solve(bayes, weights, target, between, c * phi), base, rtol=1e-13)


def test_single_unit_forced_to_target():
    for phi in (0.1, 1.0, 42.0):
        constrained = solve(np.array([0.3]), np.array([0.8]), 0.5, 0.1, np.array([phi]))
        assert_allclose(constrained, [(0.5 - 0.1) / 0.8], rtol=1e-12)


def test_negative_results_flagged_not_clipped():
    weights = np.array([1.0, 1.0])
    constrained = solve(np.array([0.05, 0.1]), weights, -0.5, 0.0, weights)
    assert np.all(constrained < 0.0)  # report rows flag it: test_negative_constrained_values_are_flagged_not_clipped
    assert abs(constraint_gap(weights, -0.5, 0.0, constrained)) < 1e-12


# ---------------------------------------------------------------------------
# uniform (phi = w) and raking (phi = w / bayes) loss weights
# ---------------------------------------------------------------------------

def raking(bayes, weights, target, between) -> np.ndarray:
    phi = _phi_vector("raking", [], weights, bayes)
    return solve(bayes, weights, target, between, phi)


def test_uniform_shift_examples():
    bayes = np.array([0.2, 0.3])
    weights = np.array([0.3, 0.7])
    constrained = solve(bayes, weights, float(weights @ bayes) + 0.1, 0.0, weights)  # the uniform policy, phi = w
    assert_allclose(constrained - bayes, [0.1, 0.1], rtol=1e-12)

    weights2 = np.array([0.2, 0.2])
    constrained2 = solve(bayes, weights2, float(weights2 @ bayes) + 0.1, 0.0, weights2)
    assert_allclose(constrained2 - bayes, [0.25, 0.25], rtol=1e-12)
    uniform = _phi_vector("uniform", [], weights2, bayes)
    assert np.array_equal(uniform, weights2)


def test_raking_identity_case():
    bayes = np.array([0.2, 0.4])
    w = np.array([0.5, 0.5])
    assert_allclose(raking(bayes, w, float(w @ bayes), 0.0), bayes, rtol=1e-14)


def test_raking_multiplicative_example():
    assert_allclose(raking(np.array([0.2, 0.4]), np.array([0.5, 0.5]), 0.45, 0.0), [0.3, 0.6], rtol=1e-13)


def test_raking_rejects_nonpositive_bayes():
    with pytest.raises(RakingInadmissibleError):
        raking(np.array([0.2, -0.1]), np.array([0.5, 0.5]), 0.3, 0.0)


def test_raking_near_zero_bayes_fails_naming_the_child_or_solves():
    weights = np.array([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        # 0.5 / 1e-320 overflows: the weight of 'a' is not finite
        with pytest.raises(RakingInadmissibleError, match=r"^raking weight of 'a' overflows: Bayes estimate 1e-320$"):
            _phi_vector("raking", ["a", "b"], weights, np.array([1e-320, 0.2]))
        bayes = np.array([1e-300, 0.2])
        phi = _phi_vector("raking", ["a", "b"], weights, bayes)
        constrained = solve(bayes, weights, 0.2, 0.0, phi)
    assert np.all(np.isfinite(phi)) and np.all(np.isfinite(constrained))
    assert_allclose(weights @ constrained, 0.2, rtol=1e-15)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        solve(np.array([0.1, 0.2]), np.array([0.5]), 0.3, 0.0, np.array([0.5]))
    with pytest.raises(ValueError):
        solve(np.array([0.1]), np.array([-0.5]), 0.3, 0.0, np.array([0.5]))
    with pytest.raises(ValueError):
        solve(np.array([0.1]), np.array([0.5]), 0.3, 0.0, np.array([0.0]))
    with pytest.raises(ValueError, match="^bayes estimates must be finite$"):
        solve(np.array([np.nan]), np.array([0.5]), 0.3, 0.0, np.array([0.5]))
    with pytest.raises(ValueError, match="^loss weights must align with bayes estimates$"):
        solve(np.array([0.1, 0.2]), np.array([0.5, 0.5]), 0.3, 0.0, np.array([0.5]))
    for target, between in ((math.nan, 0.1), (0.3, math.inf)):
        with pytest.raises(ValueError, match="^target and between term must be finite$"):
            solve([1.0, 2.0], [0.5, 0.5], target, between, [0.5, 0.5])


def test_degenerate_guard_unreachable_by_valid_problems():
    # weights are validated positive, so q > 0; the guard still trips on overflow
    with pytest.raises(DegenerateProblemError):
        solve(np.array([0.1]), np.array([1e-300]), 0.3, 0.0, np.array([1e300]))
