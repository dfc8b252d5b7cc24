"""Constrained Bayes solver: closed form vs a dense QP oracle, KKT, the uniform and raking policies."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gedecomp.benchmark import (
    BenchmarkProblem,
    DegenerateProblemError,
    RakingInadmissibleError,
    solve,
)
from gedecomp.pipeline import _phi_vector


def qp_oracle(problem: BenchmarkProblem, phi: np.ndarray) -> np.ndarray:
    """Equality-constrained QP via the dense KKT system.

    minimize sum phi_j (d_j - bayes_j)^2  s.t.  w @ d = target - between
    """
    j = len(problem.bayes)
    kkt = np.zeros((j + 1, j + 1))
    kkt[:j, :j] = 2.0 * np.diag(phi)
    kkt[:j, j] = problem.weights
    kkt[j, :j] = problem.weights
    rhs = np.concatenate([2.0 * phi * problem.bayes, [problem.target - problem.between]])
    return np.linalg.solve(kkt, rhs)[:j]


def random_problem(rng, j=None, with_phi=True) -> BenchmarkProblem:
    j = j or rng.integers(1, 11)
    bayes = rng.uniform(0.05, 0.6, j)
    weights = rng.uniform(0.1, 1.5, j)
    phi = rng.uniform(0.1, 2.0, j) if with_phi else None
    target = rng.uniform(0.05, 0.8)
    between = rng.uniform(0.0, 0.05)
    return BenchmarkProblem(bayes=bayes, weights=weights, target=target, between=between, loss_weights=phi)


def constraint_gap(problem, solution) -> float:
    return float(problem.weights @ solution.constrained + problem.between - problem.target)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_zero_residual_returns_bayes():
    bayes = np.array([0.2, 0.4])
    w = np.array([0.5, 0.5])
    target = float(w @ bayes) + 0.01
    problem = BenchmarkProblem(bayes=bayes, weights=w, target=target, between=0.01)
    solution = solve(problem)
    assert problem.residual == 0.0
    assert np.array_equal(solution.constrained, bayes)


def test_hand_example():
    problem = BenchmarkProblem(
        bayes=np.array([0.2, 0.4]),
        weights=np.array([0.5, 0.5]),
        target=0.35,
        between=0.0,
        loss_weights=np.array([0.5, 0.5]),
    )
    solution = solve(problem)
    assert_allclose(problem.residual, 0.05, rtol=1e-14)
    assert_allclose(solution.constrained, [0.25, 0.45], rtol=1e-13)
    assert_allclose(problem.weights @ solution.constrained, 0.35, rtol=1e-14)


def test_matches_qp_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        problem = random_problem(rng)
        solution = solve(problem)
        oracle = qp_oracle(problem, problem.loss_weights)
        assert_allclose(solution.constrained, oracle, rtol=1e-10, atol=1e-12)


def test_constraint_exactness():
    rng = np.random.default_rng(23)
    for _ in range(100):
        problem = random_problem(rng, with_phi=bool(rng.integers(2)))
        solution = solve(problem)
        scale = max(1.0, abs(problem.target))
        assert abs(constraint_gap(problem, solution)) < 1e-12 * scale


def test_kkt_stationarity_along_constraint():
    rng = np.random.default_rng(29)
    for _ in range(30):
        problem = random_problem(rng, j=int(rng.integers(2, 9)))
        phi = problem.loss_weights
        d = solve(problem).constrained
        objective = lambda v: float(phi @ (v - problem.bayes) ** 2)
        base = objective(d)
        for _ in range(5):
            v = rng.standard_normal(len(d))
            v -= problem.weights * (problem.weights @ v) / (problem.weights @ problem.weights)
            if np.linalg.norm(v) < 1e-12:
                continue
            v /= np.linalg.norm(v)
            for eps in (1e-4, -1e-4):
                assert objective(d + eps * v) >= base - 1e-8 * max(1.0, base)


def test_phi_scaling_invariance():
    rng = np.random.default_rng(31)
    problem = random_problem(rng, j=6)
    base = solve(problem).constrained
    for c in (1e-3, 7.0, 1e4):
        scaled = BenchmarkProblem(
            bayes=problem.bayes,
            weights=problem.weights,
            target=problem.target,
            between=problem.between,
            loss_weights=c * problem.loss_weights,
        )
        assert_allclose(solve(scaled).constrained, base, rtol=1e-13)


def test_single_unit_forced_to_target():
    rng = np.random.default_rng(37)
    for phi in (0.1, 1.0, 42.0):
        problem = BenchmarkProblem(
            bayes=np.array([0.3]),
            weights=np.array([0.8]),
            target=0.5,
            between=0.1,
            loss_weights=np.array([phi]),
        )
        solution = solve(problem)
        assert_allclose(solution.constrained, [(0.5 - 0.1) / 0.8], rtol=1e-12)


def test_negative_results_flagged_not_clipped():
    problem = BenchmarkProblem(
        bayes=np.array([0.05, 0.1]),
        weights=np.array([1.0, 1.0]),
        target=-0.5,
        between=0.0,
    )
    solution = solve(problem)
    assert solution.any_negative
    assert np.all(solution.constrained < 0.0)
    assert abs(constraint_gap(problem, solution)) < 1e-12


# ---------------------------------------------------------------------------
# uniform (phi = w) and raking (phi = w / bayes) loss weights
# ---------------------------------------------------------------------------

def raking(problem: BenchmarkProblem):
    phi = _phi_vector("raking", [], problem.weights, problem.bayes)
    return solve(BenchmarkProblem(problem.bayes, problem.weights, problem.target, problem.between, phi))


def test_uniform_shift_examples():
    problem = BenchmarkProblem(
        bayes=np.array([0.2, 0.3]),
        weights=np.array([0.3, 0.7]),
        target=float(np.array([0.3, 0.7]) @ np.array([0.2, 0.3])) + 0.1,
        between=0.0,
    )
    solution = solve(problem)  # phi defaults to w
    assert_allclose(solution.adjustments, [0.1, 0.1], rtol=1e-12)

    problem2 = BenchmarkProblem(
        bayes=np.array([0.2, 0.3]),
        weights=np.array([0.2, 0.2]),
        target=float(np.array([0.2, 0.2]) @ np.array([0.2, 0.3])) + 0.1,
        between=0.0,
    )
    assert_allclose(solve(problem2).adjustments, [0.25, 0.25], rtol=1e-12)
    uniform = _phi_vector("uniform", [], problem2.weights, problem2.bayes)
    assert np.array_equal(uniform, problem2.weights)


def test_raking_identity_case():
    bayes = np.array([0.2, 0.4])
    w = np.array([0.5, 0.5])
    target = float(w @ bayes)
    problem = BenchmarkProblem(bayes=bayes, weights=w, target=target, between=0.0)
    assert_allclose(raking(problem).constrained, bayes, rtol=1e-14)


def test_raking_multiplicative_example():
    problem = BenchmarkProblem(
        bayes=np.array([0.2, 0.4]),
        weights=np.array([0.5, 0.5]),
        target=0.45,
        between=0.0,
    )
    assert_allclose(raking(problem).constrained, [0.3, 0.6], rtol=1e-13)


def test_raking_rejects_nonpositive_bayes():
    problem = BenchmarkProblem(
        bayes=np.array([0.2, -0.1]),
        weights=np.array([0.5, 0.5]),
        target=0.3,
        between=0.0,
    )
    with pytest.raises(RakingInadmissibleError):
        raking(problem)


def test_raking_near_zero_bayes_fails_naming_the_child_or_solves():
    weights = np.array([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        # 0.5 / 1e-320 overflows: the weight of 'a' is not finite
        with pytest.raises(RakingInadmissibleError, match=r"^raking weight of 'a' overflows: Bayes estimate 1e-320$"):
            _phi_vector("raking", ["a", "b"], weights, np.array([1e-320, 0.2]))
        bayes = np.array([1e-300, 0.2])
        phi = _phi_vector("raking", ["a", "b"], weights, bayes)
        solution = solve(BenchmarkProblem(bayes=bayes, weights=weights, target=0.2, between=0.0, loss_weights=phi))
    assert np.all(np.isfinite(phi)) and np.all(np.isfinite(solution.constrained))
    assert_allclose(weights @ solution.constrained, 0.2, rtol=1e-15)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(ValueError):
        BenchmarkProblem(bayes=np.array([0.1, 0.2]), weights=np.array([0.5]), target=0.3, between=0.0)
    with pytest.raises(ValueError):
        BenchmarkProblem(bayes=np.array([0.1]), weights=np.array([-0.5]), target=0.3, between=0.0)
    with pytest.raises(ValueError):
        BenchmarkProblem(
            bayes=np.array([0.1]), weights=np.array([0.5]), target=0.3, between=0.0,
            loss_weights=np.array([0.0]),
        )


def test_degenerate_guard_unreachable_by_valid_problems():
    # weights are validated positive, so q > 0; the guard still trips on overflow
    problem = BenchmarkProblem(
        bayes=np.array([0.1]),
        weights=np.array([1e-300]),
        target=0.3,
        between=0.0,
        loss_weights=np.array([1e300]),
    )
    with pytest.raises(DegenerateProblemError):
        solve(problem)
