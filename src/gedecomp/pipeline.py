"""Multilevel decomposition pipeline over a country/region/subregion tree.

Every parent gets the same step: its between term comes from its children's
mean incomes, and a per-method rule then sets the children's GE.  One walk
down the tree applies that step at the country and at each region:

- ``proposed`` benchmarks the children against the parent's value (the
  country's fit, then each region's constrained value), so the assembled
  identity

      total = sum_j w_j * within_j + sum_j w_j * between_j + between

  holds exactly;
- ``separate`` keeps the Bayes values and reports the two residuals;
- ``mixture`` fits only the leaves and builds every higher level from the
  mixture identity, within + between of the level below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import benchmark
from .distributions import _require_positive, family_class, ge_terms, theta_kind
from .grouped import (
    GroupedSample,
    McmcConfig,
    PosteriorDraws,
    PosteriorSummary,
    _check_unit,
    derive_seed,
    fit,
    fit_batch,
    posterior_ge,
    posterior_mean_income,
)
from .inequality import between_from_means

__all__ = [
    "HierarchyNode",
    "FittedHierarchy",
    "RegionRow",
    "SubregionRow",
    "DecompositionReport",
    "PipelineError",
    "METHODS",
    "PHI_POLICIES",
    "fit_hierarchy",
    "assemble",
    "run",
    "ge_surface",
    "GeSurface",
]

LEVELS = ("country", "region", "subregion")

#: The estimation methods, each with the levels it fits.
METHODS = {"proposed": LEVELS, "separate": LEVELS, "mixture": ("subregion",)}

#: The named loss-weight policies of ``proposed`` (see _phi_vector); a phi file's weights are the other kind.
PHI_POLICIES = ("uniform", "raking")


class PipelineError(RuntimeError):
    """Raised for hierarchy validation or per-node fitting failures."""


@dataclass(frozen=True)
class HierarchyNode:
    """One population unit with known size, family assignment, and data."""

    id: str
    level: str
    population: float
    family: str
    data: GroupedSample
    children: tuple["HierarchyNode", ...] = ()

    def __post_init__(self):
        if not (isinstance(self.id, str) and self.id):  # ids seed the chains: 1 and "1" would share one
            raise PipelineError(f"node {self.id!r}: id must be a non-empty string")
        if self.level not in LEVELS:
            raise PipelineError(f"node {self.id!r}: unknown level {self.level!r}")
        if isinstance(self.population, bool) or not isinstance(self.population, numbers.Real):
            raise PipelineError(f"node {self.id!r}: population must be a number, got {self.population!r}")
        if not (self.population > 0 and math.isfinite(self.population)):
            raise PipelineError(f"node {self.id!r}: population must be positive")
        if not isinstance(self.data, GroupedSample):
            raise PipelineError(f"node {self.id!r}: data must be a GroupedSample, got {type(self.data).__name__}")
        try:
            family_class(self.family)
        except (TypeError, ValueError) as exc:
            raise PipelineError(f"node {self.id!r}: {exc}") from None
        if self.children:
            child_sum = sum(c.population for c in self.children)
            if abs(child_sum - self.population) > 1e-9 * self.population:
                raise PipelineError(
                    f"node {self.id!r}: child populations sum to {child_sum}, expected {self.population}"
                )

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def validate_tree(root: HierarchyNode) -> None:
    """Check the country/region/subregion shape and id uniqueness."""
    if root.level != "country":
        raise PipelineError(f"root {root.id!r} must be the country node, got level {root.level!r}")
    ids = [node.id for node in root.walk()]
    if len(ids) != len(set(ids)):
        raise PipelineError("node ids must be unique")
    if not root.children:
        raise PipelineError(f"country {root.id!r} needs at least one region")
    for region in root.children:
        if region.level != "region":
            raise PipelineError(f"node {region.id!r}: children of the country must be regions")
        if not region.children:
            raise PipelineError(f"region {region.id!r} needs at least one subregion")
        for sub in region.children:
            if sub.level != "subregion" or sub.children:
                raise PipelineError(f"node {sub.id!r}: regions may only contain leaf subregions")


@dataclass(frozen=True)
class FittedHierarchy:
    """Posterior draws per node id, reusable across theta values and methods (summaries stay on the draws)."""

    root: HierarchyNode
    draws: dict[str, PosteriorDraws]
    mcmc: McmcConfig

    def require(self, node_id: str) -> PosteriorDraws:
        try:
            return self.draws[node_id]
        except KeyError:
            raise PipelineError(f"node {node_id!r} has not been fitted") from None


def fit_hierarchy(root: HierarchyNode, mcmc: McmcConfig, levels: tuple[str, ...] = LEVELS) -> FittedHierarchy:
    """Fit every node at the requested levels.

    Nodes of one family and bracket count share one lockstep chain
    (grouped.fit_batch); a node alone in its group goes through grouped.fit,
    the same chain as a batch of one, so per-unit instrumentation of ``fit``
    still sees it.  Per-node seeds derive from mcmc.seed and the node id,
    and a node's draws do not depend on its batch-mates, so each fit is
    independent of which other nodes are fitted.  Every node is checked in
    walk order before any sampling; a failure while sampling names the
    batch's family, and the node if it is a start failure.
    """
    validate_tree(root)
    batches: dict[tuple[str, int], list] = {}
    for node in root.walk():
        if node.level not in levels:
            continue
        sample = node.data
        if sample.unit != node.id:
            sample = GroupedSample(sample.boundaries, sample.counts, node.id)
        try:
            _check_unit(node.family, sample)
        except Exception as exc:
            raise PipelineError(f"node {node.id!r}: {exc}") from exc
        batches.setdefault((node.family, sample.n_brackets), []).append(sample)
    draws = {}
    for (family, _), samples in batches.items():
        seeds = [derive_seed(mcmc.seed, data.unit) for data in samples]
        try:
            if len(samples) == 1:
                fits = [fit(family, samples[0], replace(mcmc, seed=seeds[0]))]
            else:
                fits = fit_batch(family, samples, mcmc, seeds)
        except Exception as exc:
            raise PipelineError(f"{family} fit: {exc}") from exc
        draws.update((d.unit, d) for d in fits)
    ordered = {node.id: draws[node.id] for node in root.walk() if node.id in draws}
    return FittedHierarchy(root=root, draws=ordered, mcmc=mcmc)


# The row types list their fields in the order of their CSV columns.
@dataclass(frozen=True)
class RegionRow:
    id: str
    share: float
    mean_income: float
    income_share: float
    weight: float
    ge_bayes: float
    ge_bayes_sd: float | None
    ge_cb: float
    between_sub: float
    within_sub: float
    bw_ratio: float | None
    subresidual: float
    excluded_draws: int
    negative: bool


@dataclass(frozen=True)
class SubregionRow:
    id: str
    region: str
    share: float
    mean_income: float
    income_share: float
    weight: float
    ge_bayes: float
    ge_bayes_sd: float | None
    ge_cb: float
    excluded_draws: int
    negative: bool


@dataclass(frozen=True)
class DecompositionReport:
    """All estimates of one multilevel decomposition at one theta."""

    method: str
    theta: float
    phi_policy: str
    seed: int
    iterations: int
    burnin: int
    ge_total: float
    ge_total_sd: float | None
    between: float
    sum_weighted_between_sub: float
    sum_weighted_within_sub: float
    residual_region: float
    residual_subregion: float
    regions: tuple[RegionRow, ...]
    subregions: tuple[SubregionRow, ...]
    flags: tuple[str, ...]

    @property
    def identity_gap(self) -> float:
        """ge_total minus the fully assembled right-hand side."""
        return self.ge_total - (
            self.sum_weighted_within_sub
            + self.sum_weighted_between_sub
            + self.between
            + self.residual_region
            + self.residual_subregion
        )


def _phi_vector(phi, ids, weights: np.ndarray, bayes: np.ndarray) -> np.ndarray:
    """Loss weights of the children ids under a phi policy.

    w for uniform (an additive shift), w / bayes for raking (a multiplicative
    one, which needs positive Bayes estimates), or a phi file's values.
    """
    if isinstance(phi, dict):
        try:
            return np.array([float(phi[i]) for i in ids])
        except KeyError as missing:
            raise PipelineError(f"phi file does not cover node {missing.args[0]!r}") from None
    if phi == "uniform":
        return weights
    if phi == "raking":
        if np.any(bayes <= 0.0):
            raise benchmark.RakingInadmissibleError("raking requires strictly positive Bayes estimates")
        with np.errstate(over="ignore"):
            phi_j = weights / bayes
        for child, b, p in zip(ids, bayes.tolist(), phi_j):
            if not math.isfinite(p):
                raise benchmark.RakingInadmissibleError(f"raking weight of {child!r} overflows: Bayes estimate {b!r}")
        return phi_j
    raise PipelineError(f"unknown phi policy {phi!r}")


_NO_MEAN, _GE_OUTSIDE = "no finite mean", "GE outside the moment window"


def _usable(node: HierarchyNode, theta: float, flags: list[str], summary: PosteriorSummary, excluded: str):
    """Flag a summary with excluded draws, saying why (_NO_MEAN, _GE_OUTSIDE).

    Fails when the summary is undefined (more than half of its draws
    excluded, or every draw): it is not an average of the rest.
    """
    lost = f"{summary.n_excluded}/{summary.n_draws} draws with {excluded} at theta={theta:g}"
    if summary.undefined:
        raise PipelineError(f"{node.level} {node.id}: undefined, {lost}")
    if summary.unreliable:
        flags.append(f"{node.level} {node.id}: {lost}")
    return summary


def _shares(parent: HierarchyNode) -> np.ndarray:
    """Each child's population over the children's sum, which may lie up to 1e-9 relative off the parent's."""
    total = sum(c.population for c in parent.children)
    return np.array([c.population / total for c in parent.children])


def _children(fitted: FittedHierarchy, parent: HierarchyNode, theta: float, flags: list[str]):
    """Posterior mean incomes and Bayes GE summaries of a parent's children."""
    mu = []
    ge = []
    for child in parent.children:
        draws = fitted.require(child.id)
        mu.append(_usable(child, theta, flags, posterior_mean_income(draws), _NO_MEAN).value)
        ge.append(_usable(child, theta, flags, posterior_ge(draws, theta), _GE_OUTSIDE))
    return mu, ge


def _step(method: str, phi, parent: HierarchyNode, be, mu, ge: list[PosteriorSummary], target):
    """The method's rule at one parent, and the row fields its children share.

    be is the parent's between estimate from the children's mean incomes
    mu, and ge their Bayes GE summaries.  ``proposed`` benchmarks the
    children against the parent's value target; ``separate`` keeps the
    Bayes values and reports what they leave unexplained; ``mixture`` keeps
    them and builds the parent from them, so it has no residual.  Returns
    each child's fields, the weighted within term and the parent's residual.
    """
    bayes = np.array([g.value for g in ge])
    values = bayes
    if method == "proposed":
        phi_j = _phi_vector(phi, [c.id for c in parent.children], be.weights, bayes)
        values = benchmark.solve(bayes, be.weights, target, be.between, phi_j)
    within = float(be.weights @ values)
    residual = float(target - be.between - within) if method == "separate" else 0.0
    rows = [
        dict(
            id=child.id,
            share=float(lam),
            mean_income=float(mu_j),
            income_share=float(s),
            weight=float(w),
            ge_bayes=float(b),
            ge_bayes_sd=g.sd,
            excluded_draws=g.n_excluded,
            ge_cb=float(v),
            negative=bool(v < 0.0),
        )
        for child, lam, mu_j, s, w, b, g, v in zip(
            parent.children, _shares(parent), mu, be.income_shares, be.weights, bayes, ge, values
        )
    ]
    return rows, within, residual


def _method_levels(method: str) -> tuple[str, ...]:
    try:
        return METHODS[method]
    except KeyError:
        raise PipelineError(f"unknown method {method!r}; expected one of {list(METHODS)}") from None


def assemble(fitted: FittedHierarchy, theta: float, method: str, phi="uniform") -> DecompositionReport:
    """The multilevel decomposition at theta by one of METHODS.

    The between term at each parent comes from its children's mean
    incomes; the method's rule (see _step) then sets the children's
    reported GE.  phi is used by ``proposed`` only.
    """
    theta_kind(theta)  # rejects a non-finite theta
    _method_levels(method)
    mixture = method == "mixture"
    flags: list[str] = []
    root = fitted.root
    if not mixture:
        total = _usable(root, theta, flags, posterior_ge(fitted.require(root.id), theta), _GE_OUTSIDE)
        mu, region_ge = _children(fitted, root, theta, flags)
    leaves = []
    for region in root.children:
        sub_mu, sub_ge = _children(fitted, region, theta, flags)
        leaves.append((between_from_means(_shares(region), sub_mu, theta), sub_mu, sub_ge))
    if mixture:
        # each region is the known-weight mixture of its subregions
        mu = [be_j.mean for be_j, _, _ in leaves]
        region_ge = [
            PosteriorSummary(
                value=float(be_j.weights @ np.array([g.value for g in sub_ge])) + be_j.between,
                sd=None,
                n_draws=0,
                n_excluded=0,
            )
            for be_j, _, sub_ge in leaves
        ]
    # the root's between term comes last: every unit check and every region's term raise before it
    be = between_from_means(_shares(root), mu, theta)
    region_fields, within, residual_region = _step(method, phi, root, be, mu, region_ge, None if mixture else total.value)

    region_rows = []
    sub_rows = []
    for region, fields, (be_j, sub_mu, sub_ge) in zip(root.children, region_fields, leaves):
        sub_fields, within_j, subres_j = _step(method, phi, region, be_j, sub_mu, sub_ge, fields["ge_cb"])
        region_rows.append(
            RegionRow(
                **fields,
                between_sub=be_j.between,
                within_sub=within_j,
                subresidual=subres_j,
                bw_ratio=be_j.between / within_j if within_j > 0.0 else None,
            )
        )
        sub_rows.extend(SubregionRow(**f, region=region.id) for f in sub_fields)

    return DecompositionReport(
        method=method,
        theta=theta,
        phi_policy=(phi if isinstance(phi, str) else "custom") if method == "proposed" else "none",
        seed=fitted.mcmc.seed,
        iterations=fitted.mcmc.iterations,
        burnin=fitted.mcmc.burnin,
        ge_total=within + be.between if mixture else total.value,
        ge_total_sd=None if mixture else total.sd,
        between=be.between,
        sum_weighted_between_sub=sum(r.weight * r.between_sub for r in region_rows),
        sum_weighted_within_sub=sum(r.weight * r.within_sub for r in region_rows),
        residual_region=residual_region,
        residual_subregion=sum(r.weight * r.subresidual for r in region_rows),
        regions=tuple(region_rows),
        subregions=tuple(sub_rows),
        flags=tuple(flags),
    )


def run(root: HierarchyNode, theta: float, mcmc: McmcConfig, method: str, phi="uniform") -> DecompositionReport:
    """Fit the levels the method uses and assemble its decomposition at theta."""
    return assemble(fit_hierarchy(root, mcmc, levels=_method_levels(method)), theta, method, phi)


@dataclass(frozen=True)
class GeSurface:
    """GE evaluated on an (a, q) grid at fixed scale; inadmissible cells are NaN."""

    theta: float
    b: float
    a_values: np.ndarray
    q_values: np.ndarray
    values: np.ndarray  # shape (len(q_values), len(a_values))


def ge_surface(a_values, q_values, b: float, thetas) -> list[GeSurface]:
    """Sensitivity surfaces of Singh-Maddala GE over (a, q) grids at scale b.

    Grid points where the moment window excludes theta (or the mean) come
    back as NaN.
    """
    thetas = [float(theta) for theta in thetas]
    for theta in thetas:
        theta_kind(theta)  # rejects a non-finite theta
    a_values = np.asarray(a_values, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    if a_values.size == 0 or q_values.size == 0:
        raise ValueError("the a and q grids must each hold at least one value")
    for name, values in (("a", a_values), ("b", (b,)), ("q", q_values)):
        for value in values:
            _require_positive(name, value)
    a, q = np.meshgrid(a_values, q_values)
    terms = ge_terms("sm", np.column_stack([a.ravel(), np.full(a.size, float(b)), q.ravel()]))
    return [
        GeSurface(
            theta=theta,
            b=float(b),
            a_values=a_values,
            q_values=q_values,
            values=terms.ge(theta)[0].reshape(a.shape),
        )
        for theta in thetas
    ]
