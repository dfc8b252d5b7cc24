"""Generalized-entropy inequality from grouped income data.

Estimates GE measures (mean log deviation, Theil, and the full theta
family) by fitting parametric income distributions to bracketed counts,
and produces a country/region/subregion decomposition that satisfies the
additive-decomposition identity exactly via constrained Bayes benchmarking.
"""

from .benchmark import (
    BenchmarkProblem,
    BenchmarkSolution,
    solve,
    solve_raking,
    solve_uniform,
)
from .distributions import GB2, LN, SM, make_family, theta_kind
from .grouped import (
    GroupedSample,
    McmcConfig,
    PosteriorDraws,
    fit,
    fit_batch,
    log_likelihood,
    log_prior,
    posterior_ge,
    posterior_mean_income,
)
from .inequality import (
    between_from_means,
    decompose_finite,
    decomposition_weights,
    ge_finite,
)
from .pipeline import (
    METHODS,
    DecompositionReport,
    HierarchyNode,
    assemble,
    bw_ratio,
    fit_hierarchy,
    ge_surface,
    relative_difference,
    run,
)
from .sim import LeafSpec, RegionSpec, SyntheticSpec, compare_methods, generate

__version__ = "0.1.0"

__all__ = [
    "GB2",
    "SM",
    "LN",
    "make_family",
    "theta_kind",
    "GroupedSample",
    "McmcConfig",
    "PosteriorDraws",
    "fit",
    "fit_batch",
    "log_likelihood",
    "log_prior",
    "posterior_ge",
    "posterior_mean_income",
    "ge_finite",
    "decompose_finite",
    "decomposition_weights",
    "between_from_means",
    "BenchmarkProblem",
    "BenchmarkSolution",
    "solve",
    "solve_uniform",
    "solve_raking",
    "HierarchyNode",
    "DecompositionReport",
    "METHODS",
    "fit_hierarchy",
    "assemble",
    "run",
    "bw_ratio",
    "relative_difference",
    "ge_surface",
    "LeafSpec",
    "RegionSpec",
    "SyntheticSpec",
    "generate",
    "compare_methods",
    "__version__",
]
