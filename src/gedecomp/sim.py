"""Synthetic hierarchies with exact ground truth for method comparison.

Each leaf's population is drawn from known parameters, a survey-style
fraction is sampled without replacement, and the sampled incomes are
bracketed into grouped counts at every level of the tree.  Truth is always
computed on the realized finite population, where the decomposition
identities hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import FamilyParams, family_class
from .grouped import GroupedSample, McmcConfig, _check_boundaries, _is_integer, derive_seed
from .inequality import _decompose_two_levels, ge_finite
from .pipeline import METHODS, DecompositionReport, HierarchyNode, assemble, fit_hierarchy

__all__ = [
    "LeafSpec",
    "RegionSpec",
    "SyntheticSpec",
    "SyntheticData",
    "MultilevelTruth",
    "ComparisonRow",
    "MethodComparison",
    "generate",
    "compare_methods",
]


@dataclass(frozen=True)
class LeafSpec:
    id: str
    params: FamilyParams
    population: int

    def __post_init__(self):
        if not _is_integer(self.population) or self.population < 1:
            raise ValueError(f"leaf {self.id!r}: population must be an integer >= 1, got {self.population!r}")


@dataclass(frozen=True)
class RegionSpec:
    id: str
    leaves: tuple[LeafSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))
        if not self.leaves:
            raise ValueError(f"region {self.id!r}: needs at least one leaf")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, truth parameters, bracket scheme, and fit-family assignment.

    brackets is either an explicit boundary tuple (0 ... inf) or an int G,
    meaning G brackets whose interior boundaries are the pooled sample's
    equally spaced quantiles.  The fit families are what the estimation
    methods assume; they may deliberately differ from the truth parameters.
    """

    regions: tuple[RegionSpec, ...]
    brackets: tuple[float, ...] | int = 10
    sampling_fraction: float = 0.1
    seed: int = 0
    country_id: str = "country"
    country_family: str = "gb2"
    region_family: str = "sm"
    leaf_family: str = "ln"

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("need at least one region")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling fraction must be in (0, 1]")
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not _is_integer(self.brackets):
            object.__setattr__(self, "brackets", tuple(float(c) for c in self.brackets))
            _check_boundaries(np.array(self.brackets))
        elif self.brackets < 2:
            raise ValueError("need at least two brackets")
        seen = set()
        for node_id in [self.country_id, *(r.id for r in self.regions),
                        *(l.id for r in self.regions for l in r.leaves)]:
            if node_id in seen:
                raise ValueError(f"node id {node_id!r} is used more than once")
            seen.add(node_id)
        for tag in (self.country_family, self.region_family, self.leaf_family):
            family_class(tag)  # rejects an unknown fit family


@dataclass(frozen=True)
class MultilevelTruth:
    """Exact population values of every multilevel-decomposition component."""

    theta: float
    ge_total: float
    between: float
    sum_weighted_between_sub: float
    sum_weighted_within_sub: float
    region_ge: dict[str, float]
    region_between_sub: dict[str, float]
    region_within_sub: dict[str, float]
    leaf_ge: dict[str, float]


@dataclass(frozen=True)
class SyntheticData:
    """A realized synthetic population, its survey sample, and its tree: each node's data are its grouped counts.

    The population is laid out contiguously: leaf by leaf within region by
    region, in spec order.  node_slices maps every node id (country, regions
    and leaves) to its [start, stop) range of incomes and sampled, so truth
    and bracket counts are slice arithmetic; the person at index i belongs
    to each node whose slice holds i.
    """

    spec: SyntheticSpec
    incomes: np.ndarray
    sampled: np.ndarray  # boolean mask over the population
    root: HierarchyNode
    node_slices: dict[str, slice]

    def true_ge(self, node_id: str, theta: float) -> float:
        """Realized finite-population GE of one node."""
        return ge_finite(self.incomes[self.node_slices[node_id]], theta)

    def multilevel_truth(self, theta: float) -> MultilevelTruth:
        x, at = self.incomes, self.node_slices
        regions = self.spec.regions
        top, subs = _decompose_two_levels(
            x,
            [r.id for r in regions],
            [x[at[r.id]] for r in regions],
            [([l.id for l in r.leaves], [x[at[l.id]] for l in r.leaves]) for r in regions],
            theta,
        )
        pairs = list(zip(top.groups, subs))
        return MultilevelTruth(
            theta=theta,
            ge_total=top.total,
            between=top.between,
            sum_weighted_between_sub=sum(term.weight * sub.between for term, sub in pairs),
            sum_weighted_within_sub=sum(term.weight * sub.within for term, sub in pairs),
            region_ge={term.label: term.ge for term in top.groups},
            region_between_sub={term.label: sub.between for term, sub in pairs},
            region_within_sub={term.label: sub.within for term, sub in pairs},
            leaf_ge={leaf.label: leaf.ge for sub in subs for leaf in sub.groups},
        )


def _resolve_brackets(spec: SyntheticSpec, pooled_sample: np.ndarray) -> np.ndarray:
    if isinstance(spec.brackets, tuple):
        return np.array(spec.brackets)
    g = spec.brackets
    probs = np.arange(1, g) / g
    interior = np.quantile(pooled_sample, probs)
    boundaries = np.concatenate([[0.0], interior, [math.inf]])
    if np.any(np.diff(boundaries) <= 0.0):
        raise ValueError("bracket boundaries must be strictly increasing (degenerate sample?)")
    return boundaries


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Realize the population, draw the survey sample, and bracket it.

    Deterministic given spec.seed; each leaf uses an id-derived stream, so
    editing one leaf leaves the others' draws untouched.
    """
    incomes_parts = []
    sampled_parts = []
    node_slices: dict[str, slice] = {}
    stop = 0
    for region in spec.regions:
        start = stop
        for leaf in region.leaves:
            rng = np.random.default_rng(derive_seed(spec.seed, leaf.id))
            x = leaf.params.sample(leaf.population, rng)
            n_sample = max(1, round(spec.sampling_fraction * leaf.population))
            chosen = rng.choice(leaf.population, size=n_sample, replace=False)
            mask = np.zeros(leaf.population, dtype=bool)
            mask[chosen] = True
            incomes_parts.append(x)
            sampled_parts.append(mask)
            node_slices[leaf.id] = slice(stop, stop + leaf.population)
            stop += leaf.population
        node_slices[region.id] = slice(start, stop)
    node_slices[spec.country_id] = slice(0, stop)

    incomes = np.concatenate(incomes_parts)
    sampled = np.concatenate(sampled_parts)

    boundaries = _resolve_brackets(spec, incomes[sampled])

    def node(node_id: str, level: str, family: str, children=()) -> HierarchyNode:
        part = node_slices[node_id]
        counts = np.histogram(incomes[part][sampled[part]], bins=boundaries)[0].astype(float)
        if not children and counts.sum() <= 0:
            raise ValueError(f"leaf {node_id!r}: bracket scheme left no observations")
        return HierarchyNode(
            id=node_id,
            level=level,
            population=float(part.stop - part.start),
            family=family,
            data=GroupedSample(boundaries, counts, node_id),
            children=tuple(children),
        )

    regions = [
        node(r.id, "region", spec.region_family, [node(l.id, "subregion", spec.leaf_family) for l in r.leaves])
        for r in spec.regions
    ]
    root = node(spec.country_id, "country", spec.country_family, regions)
    return SyntheticData(
        spec=spec,
        incomes=incomes,
        sampled=sampled,
        root=root,
        node_slices=node_slices,
    )


@dataclass(frozen=True)
class ComparisonRow:
    theta: float
    method: str
    component: str
    estimate: float
    truth: float | None

    @property
    def error(self) -> float | None:
        return None if self.truth is None else self.estimate - self.truth


@dataclass(frozen=True)
class MethodComparison:
    rows: tuple[ComparisonRow, ...]
    reports: dict[tuple[str, float], DecompositionReport]

    COMPONENTS = (
        "ge_total",
        "between",
        "residual_region",
        "sum_weighted_between_sub",
        "sum_weighted_within_sub",
        "residual_subregion",
    )


def _report_rows(report: DecompositionReport, truth: MultilevelTruth) -> list[ComparisonRow]:
    # the residuals have no truth field
    return [
        ComparisonRow(
            theta=report.theta, method=report.method, component=c, estimate=getattr(report, c),
            truth=getattr(truth, c, None),
        )
        for c in MethodComparison.COMPONENTS
    ]


def compare_methods(spec: SyntheticSpec, thetas, mcmc: McmcConfig, phi="uniform") -> MethodComparison:
    """Run proposed / separate / mixture on one generated dataset.

    All three methods see the same grouped data; the leaf fits are shared
    between the proposed and mixture assemblies.
    """
    data = generate(spec)
    fitted = fit_hierarchy(data.root, mcmc)
    rows: list[ComparisonRow] = []
    reports: dict[tuple[str, float], DecompositionReport] = {}
    for theta in thetas:
        truth = data.multilevel_truth(theta)
        for method in METHODS:
            report = assemble(fitted, theta, method, phi)
            reports[(report.method, float(theta))] = report
            rows.extend(_report_rows(report, truth))
    return MethodComparison(rows=tuple(rows), reports=reports)
