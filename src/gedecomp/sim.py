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

from .distributions import FamilyParams
from .grouped import GroupedSample, McmcConfig, derive_seed
from .inequality import decompose_finite, ge_finite
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
        if self.population < 1:
            raise ValueError(f"leaf {self.id!r}: population must be >= 1")


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
        if isinstance(self.brackets, int):
            if self.brackets < 2:
                raise ValueError("need at least two brackets")
        else:
            object.__setattr__(self, "brackets", tuple(float(c) for c in self.brackets))


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
    spec: SyntheticSpec
    incomes: np.ndarray
    region_labels: np.ndarray
    leaf_labels: np.ndarray
    sampled: np.ndarray  # boolean mask over the population
    samples: dict[str, GroupedSample]
    root: HierarchyNode

    def true_ge(self, node_id: str, theta: float) -> float:
        """Realized finite-population GE of one node."""
        mask = self._node_mask(node_id)
        return ge_finite(self.incomes[mask], theta)

    def _node_mask(self, node_id: str) -> np.ndarray:
        if node_id == self.spec.country_id:
            return np.ones(len(self.incomes), dtype=bool)
        if np.any(self.region_labels == node_id):
            return self.region_labels == node_id
        if np.any(self.leaf_labels == node_id):
            return self.leaf_labels == node_id
        raise KeyError(f"unknown node id {node_id!r}")

    def multilevel_truth(self, theta: float) -> MultilevelTruth:
        top = decompose_finite(self.incomes, self.region_labels, theta)
        region_ge = {}
        region_between = {}
        region_within = {}
        leaf_ge = {}
        sum_wb = 0.0
        sum_ww = 0.0
        for term in top.groups:
            rid = term.label
            mask = self.region_labels == rid
            sub = decompose_finite(self.incomes[mask], self.leaf_labels[mask], theta)
            region_ge[rid] = term.ge
            region_between[rid] = sub.between
            region_within[rid] = sub.within
            sum_wb += term.weight * sub.between
            sum_ww += term.weight * sub.within
            for leaf_term in sub.groups:
                leaf_ge[leaf_term.label] = leaf_term.ge
        return MultilevelTruth(
            theta=theta,
            ge_total=top.total,
            between=top.between,
            sum_weighted_between_sub=sum_wb,
            sum_weighted_within_sub=sum_ww,
            region_ge=region_ge,
            region_between_sub=region_between,
            region_within_sub=region_within,
            leaf_ge=leaf_ge,
        )


def _resolve_brackets(spec: SyntheticSpec, pooled_sample: np.ndarray) -> np.ndarray:
    if isinstance(spec.brackets, int):
        g = spec.brackets
        probs = np.arange(1, g) / g
        interior = np.quantile(pooled_sample, probs)
        boundaries = np.concatenate([[0.0], interior, [math.inf]])
    else:
        boundaries = np.asarray(spec.brackets, dtype=float)
    if np.any(np.diff(boundaries) <= 0.0):
        raise ValueError("bracket boundaries must be strictly increasing (degenerate sample?)")
    return boundaries


def _bracket_counts(incomes: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(incomes, bins=boundaries)
    return counts.astype(float)


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Realize the population, draw the survey sample, and bracket it.

    Deterministic given spec.seed; each leaf uses an id-derived stream, so
    editing one leaf leaves the others' draws untouched.
    """
    incomes_parts = []
    region_parts = []
    leaf_parts = []
    sampled_parts = []
    for region in spec.regions:
        for leaf in region.leaves:
            rng = np.random.default_rng(derive_seed(spec.seed, leaf.id))
            x = leaf.params.sample(leaf.population, rng)
            n_sample = max(1, round(spec.sampling_fraction * leaf.population))
            chosen = rng.choice(leaf.population, size=n_sample, replace=False)
            mask = np.zeros(leaf.population, dtype=bool)
            mask[chosen] = True
            incomes_parts.append(x)
            sampled_parts.append(mask)
            region_parts.extend([region.id] * leaf.population)
            leaf_parts.extend([leaf.id] * leaf.population)

    incomes = np.concatenate(incomes_parts)
    sampled = np.concatenate(sampled_parts)
    region_labels = np.array(region_parts)
    leaf_labels = np.array(leaf_parts)

    boundaries = _resolve_brackets(spec, incomes[sampled])

    samples: dict[str, GroupedSample] = {}
    nodes = []
    for region in spec.regions:
        leaves = []
        for leaf in region.leaves:
            mask = (leaf_labels == leaf.id) & sampled
            counts = _bracket_counts(incomes[mask], boundaries)
            if counts.sum() <= 0:
                raise ValueError(f"leaf {leaf.id!r}: bracket scheme left no observations")
            samples[leaf.id] = GroupedSample(boundaries, counts, leaf.id)
            leaves.append(
                HierarchyNode(
                    id=leaf.id,
                    level="subregion",
                    population=float(leaf.population),
                    family=spec.leaf_family,
                    data=samples[leaf.id],
                )
            )
        mask = (region_labels == region.id) & sampled
        samples[region.id] = GroupedSample(boundaries, _bracket_counts(incomes[mask], boundaries), region.id)
        nodes.append(
            HierarchyNode(
                id=region.id,
                level="region",
                population=float(sum(l.population for l in region.leaves)),
                family=spec.region_family,
                data=samples[region.id],
                children=tuple(leaves),
            )
        )
    samples[spec.country_id] = GroupedSample(boundaries, _bracket_counts(incomes[sampled], boundaries), spec.country_id)
    root = HierarchyNode(
        id=spec.country_id,
        level="country",
        population=float(len(incomes)),
        family=spec.country_family,
        data=samples[spec.country_id],
        children=tuple(nodes),
    )
    return SyntheticData(
        spec=spec,
        incomes=incomes,
        region_labels=region_labels,
        leaf_labels=leaf_labels,
        sampled=sampled,
        samples=samples,
        root=root,
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
    pairs = [
        ("ge_total", report.ge_total, truth.ge_total),
        ("between", report.between, truth.between),
        ("residual_region", report.residual_region, None),
        ("sum_weighted_between_sub", report.sum_weighted_between_sub, truth.sum_weighted_between_sub),
        ("sum_weighted_within_sub", report.sum_weighted_within_sub, truth.sum_weighted_within_sub),
        ("residual_subregion", report.residual_subregion, None),
    ]
    return [
        ComparisonRow(theta=report.theta, method=report.method, component=c, estimate=v, truth=t)
        for c, v, t in pairs
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
