"""Multilevel pipeline: nested exactness, residual accounting, diagnostics."""

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gedecomp as g
from gedecomp.benchmark import RakingInadmissibleError
from gedecomp.distributions import LIMIT_TOL, MomentExistenceError, ParameterDomainError, _GB2Terms, _LNTerms
from gedecomp.grouped import (
    GroupedSample,
    McmcConfig,
    PosteriorDraws,
    derive_seed,
    fit,
    fit_batch,
    posterior_ge,
)
from gedecomp.pipeline import (
    FittedHierarchy,
    HierarchyNode,
    PipelineError,
    assemble,
    fit_hierarchy,
    ge_surface,
    run,
)
from gedecomp.sim import LeafSpec, RegionSpec, SyntheticSpec, generate

from conftest import mc_ge_with_se

FAST_MCMC = McmcConfig(iterations=900, burnin=250, seed=5)


@pytest.fixture(scope="module")
def small_fitted():
    spec = SyntheticSpec(
        regions=(
            RegionSpec("r1", (LeafSpec("r1a", g.SM(2.2, 4.0, 1.8), 30000),
                              LeafSpec("r1b", g.SM(2.0, 3.5, 2.0), 20000))),
            RegionSpec("r2", (LeafSpec("r2a", g.SM(2.5, 5.0, 1.7), 25000),
                              LeafSpec("r2b", g.SM(1.9, 4.5, 2.2), 25000))),
        ),
        brackets=10,
        sampling_fraction=0.2,
        seed=3,
    )
    data = generate(spec)
    return data, fit_hierarchy(data.root, FAST_MCMC)


def exact_draws(family, params, n=4) -> PosteriorDraws:
    """Degenerate posterior concentrated at known parameters."""
    rows = np.tile(params.to_vector(), (n, 1))
    return PosteriorDraws(
        family=family,
        unit="x",
        draws=rows,
        acceptance_rate=0.25,
        config=McmcConfig(iterations=n + 1, burnin=1),
    )


def toy_sample(unit) -> GroupedSample:
    return GroupedSample([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, np.inf], [2.0, 4.0, 6.0, 5.0, 2.0, 1.0], unit)


def degenerate_tree() -> HierarchyNode:
    leaf = HierarchyNode("s1", "subregion", 1000.0, "ln", toy_sample("s1"))
    region = HierarchyNode("g1", "region", 1000.0, "sm", toy_sample("g1"), (leaf,))
    return HierarchyNode("c", "country", 1000.0, "gb2", toy_sample("c"), (region,))


# ---------------------------------------------------------------------------
# hierarchy validation
# ---------------------------------------------------------------------------

def test_population_mismatch_rejected():
    leaf = HierarchyNode("s", "subregion", 400.0, "ln", toy_sample("s"))
    with pytest.raises(PipelineError):
        HierarchyNode("g", "region", 1000.0, "sm", toy_sample("g"), (leaf,))


@pytest.mark.parametrize("node_id, population, message", [
    (1, 100.0, "node 1: id must be a non-empty string"),
    ("", 100.0, "node '': id must be a non-empty string"),
    (None, 100.0, "node None: id must be a non-empty string"),
    (["s"], 100.0, "node ['s']: id must be a non-empty string"),
    ("s", True, "node 's': population must be a number, got True"),
    ("s", "2", "node 's': population must be a number, got '2'"),
], ids=["id-int", "id-empty", "id-none", "id-list", "population-bool", "population-string"])
def test_node_id_is_a_nonempty_string_and_population_a_number(node_id, population, message):
    # ids seed the chains (derive_seed(s, 1) == derive_seed(s, "1")), and True would load as a population of 1
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        HierarchyNode(node_id, "subregion", population, "ln", toy_sample("s"))



@pytest.mark.parametrize("data", [None, (1, 2), "s"], ids=["none", "tuple", "string"])
def test_node_data_is_a_grouped_sample(data):
    message = f"node 's': data must be a GroupedSample, got {type(data).__name__}"
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        HierarchyNode("s", "subregion", 100.0, "ln", data)


@pytest.mark.parametrize("child", ["x", None, 3.0], ids=["string", "none", "number"])
def test_node_children_are_hierarchy_nodes_kept_as_a_tuple(child):
    message = f"node 'g': each child must be a HierarchyNode, got {child!r}"
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        HierarchyNode("g", "region", 100.0, "sm", toy_sample("g"), (child,))
    leaf = HierarchyNode("s", "subregion", 100.0, "ln", toy_sample("s"))
    region = HierarchyNode("g", "region", 100.0, "sm", toy_sample("g"), [leaf])
    assert type(region.children) is tuple and region.children[0] is leaf


def test_tree_shape_validation():
    leaf = HierarchyNode("s", "subregion", 100.0, "ln", toy_sample("s"))
    region = HierarchyNode("g", "region", 100.0, "sm", toy_sample("g"), (leaf,))
    with pytest.raises(PipelineError):
        fit_hierarchy(region, FAST_MCMC)  # root must be a country
    bare_region = HierarchyNode("g2", "region", 100.0, "sm", toy_sample("g2"))
    country = HierarchyNode("c", "country", 100.0, "gb2", toy_sample("c"), (bare_region,))
    with pytest.raises(PipelineError):
        fit_hierarchy(country, FAST_MCMC)  # regions need subregions


def test_duplicate_ids_rejected():
    leaf = HierarchyNode("dup", "subregion", 100.0, "ln", toy_sample("dup"))
    region = HierarchyNode("dup", "region", 100.0, "sm", toy_sample("dup"), (leaf,))
    country = HierarchyNode("c", "country", 100.0, "gb2", toy_sample("c"), (region,))
    with pytest.raises(PipelineError):
        fit_hierarchy(country, FAST_MCMC)


def test_fit_errors_carry_node_id(monkeypatch):
    # a 4-bracket sample cannot identify the 4-parameter family
    short = GroupedSample([0.0, 1.0, 2.0, 3.0, np.inf], [1.0, 2.0, 2.0, 1.0], "leaf9")
    leaf = HierarchyNode("leaf9", "subregion", 100.0, "gb2", short)
    region = HierarchyNode("reg9", "region", 100.0, "sm", toy_sample("reg9"), (leaf,))
    country = HierarchyNode("c9", "country", 100.0, "gb2", toy_sample("c9"), (region,))
    with pytest.raises(PipelineError, match="leaf9"):
        fit_hierarchy(country, FAST_MCMC, levels=("subregion",))

    def country_over(leaves):
        pop = sum(l.population for l in leaves)
        region = HierarchyNode("reg8", "region", pop, "sm", toy_sample("reg8"), tuple(leaves))
        return HierarchyNode("c8", "country", pop, "gb2", toy_sample("c8"), (region,))

    def gb2_leaf(node_id, sample=None):
        return HierarchyNode(node_id, "subregion", 100.0, "gb2", sample or toy_sample(node_id))

    # an under-identified gb2 leaf among well-posed gb2 siblings
    tree = country_over([gb2_leaf("ok1"), gb2_leaf("leaf9", short), gb2_leaf("ok2")])
    with pytest.raises(PipelineError, match="leaf9") as info:
        fit_hierarchy(tree, FAST_MCMC, levels=("subregion",))
    assert "ok1" not in str(info.value) and "ok2" not in str(info.value)
    # a leaf whose log density is -inf at both starts, inside one batch: its
    # top bracket lies where the start's cdf rounds to 1
    stuck = GroupedSample([0.0, 1.0, 2.0, 3.0, 5.0, 1e17, np.inf], [5.0, 0.0, 0.0, 0.0, 0.0, 5.0], "leaf7")
    tree = country_over([gb2_leaf("ok1"), gb2_leaf("leaf7", stuck), gb2_leaf("ok2")])
    with pytest.raises(PipelineError, match="leaf7") as info:
        fit_hierarchy(tree, FAST_MCMC, levels=("subregion",))
    assert "ok1" not in str(info.value) and "ok2" not in str(info.value)
    # the same leaf alone in its group, fitted through fit
    with pytest.raises(PipelineError, match="leaf7"):
        fit_hierarchy(country_over([gb2_leaf("leaf7", stuck)]), FAST_MCMC, levels=("subregion",))

    # a failure of any type while sampling a batch is a PipelineError
    def failing_batch(family, samples, config, seeds):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(g.pipeline, "fit_batch", failing_batch)
    with pytest.raises(PipelineError, match="gb2 fit: overflow"):
        fit_hierarchy(country_over([gb2_leaf("ok1"), gb2_leaf("ok2")]), FAST_MCMC, levels=("subregion",))


def test_nodes_whose_data_carry_another_unit_are_fitted_under_the_node_id():
    mcmc = McmcConfig(iterations=300, burnin=80, seed=4)
    leaf = HierarchyNode("s1", "subregion", 1000.0, "ln", toy_sample(""))
    region = HierarchyNode("g1", "region", 1000.0, "sm", toy_sample(""), (leaf,))
    fitted = fit_hierarchy(HierarchyNode("c", "country", 1000.0, "gb2", toy_sample(""), (region,)), mcmc)
    named = fit_hierarchy(degenerate_tree(), mcmc)
    assert list(fitted.draws) == ["c", "g1", "s1"]
    for node_id, draws in fitted.draws.items():
        assert draws.unit == node_id
        assert np.array_equal(draws.draws, named.draws[node_id].draws)  # the seed derives from the node id


def test_assembling_a_level_that_was_not_fitted_names_the_node():
    mcmc = McmcConfig(iterations=300, burnin=80, seed=4)
    fitted = fit_hierarchy(degenerate_tree(), mcmc, levels=g.METHODS["mixture"])
    assert list(fitted.draws) == ["s1"]
    with pytest.raises(PipelineError, match="^node 'c' has not been fitted$"):
        assemble(fitted, 1.0, "proposed")


# ---------------------------------------------------------------------------
# proposed method
# ---------------------------------------------------------------------------

def test_degenerate_hierarchy_all_levels_equal_benchmark():
    report = run(degenerate_tree(), 1.0, McmcConfig(iterations=400, burnin=100, seed=1), "proposed")
    assert report.between == 0.0
    assert report.regions[0].between_sub == 0.0
    assert_allclose(report.regions[0].ge_cb, report.ge_total, rtol=1e-12)
    assert_allclose(report.subregions[0].ge_cb, report.ge_total, rtol=1e-12)
    assert report.regions[0].bw_ratio == 0.0
    assert abs(report.identity_gap) < 1e-14


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0, 2.0])
def test_nested_exactness(small_fitted, theta):
    data, fitted = small_fitted
    report = assemble(fitted, theta, "proposed")
    scale = max(1.0, abs(report.ge_total))
    # region-level constraint
    w = np.array([r.weight for r in report.regions])
    cb = np.array([r.ge_cb for r in report.regions])
    assert abs(w @ cb + report.between - report.ge_total) < 1e-10 * scale
    # each region's subregion constraint
    for row in report.regions:
        subs = [s for s in report.subregions if s.region == row.id]
        ws = np.array([s.weight for s in subs])
        cbs = np.array([s.ge_cb for s in subs])
        assert abs(ws @ cbs + row.between_sub - row.ge_cb) < 1e-10 * max(1.0, abs(row.ge_cb))
        assert_allclose(row.within_sub, ws @ cbs, rtol=1e-12)
    # assembled identity
    assert abs(report.identity_gap) < 1e-10 * scale


def test_proposed_accuracy_against_truth(small_fitted):
    data, fitted = small_fitted
    for theta, truth in zip((0.0, 1.0), data.multilevel_truth((0.0, 1.0))):
        report = assemble(fitted, theta, "proposed")
        assert abs(report.ge_total - truth.ge_total) / truth.ge_total < 0.15
        for row in report.regions:
            assert abs(row.ge_cb - truth.region_ge[row.id]) / truth.region_ge[row.id] < 0.25


def test_phi_policies(small_fitted):
    _, fitted = small_fitted
    uniform = assemble(fitted, 1.0, "proposed", "uniform")
    raking = assemble(fitted, 1.0, "proposed", "raking")
    shifts = np.array([r.ge_cb - r.ge_bayes for r in uniform.regions])
    assert_allclose(shifts, shifts[0] * np.ones(len(shifts)), rtol=1e-9)
    factors = np.array([r.ge_cb / r.ge_bayes for r in raking.regions])
    assert_allclose(factors, factors[0] * np.ones(len(factors)), rtol=1e-9)
    ids = [r.id for r in uniform.regions] + [s.id for s in uniform.subregions]
    custom = assemble(fitted, 1.0, "proposed", {i: 1.0 for i in ids})
    assert abs(custom.identity_gap) < 1e-12
    with pytest.raises(PipelineError):
        assemble(fitted, 1.0, "proposed", {"r1": 1.0})  # missing ids
    with pytest.raises(PipelineError):
        assemble(fitted, 1.0, "proposed", "bogus")
    with pytest.raises(PipelineError):
        assemble(fitted, 1.0, "bogus")  # unknown method


# ---------------------------------------------------------------------------
# separate method
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0, 2.0])
def test_separate_accounting_reconstructs(small_fitted, theta):
    _, fitted = small_fitted
    report = assemble(fitted, theta, "separate")
    # residual_subregion aggregates the per-region subresiduals
    w = np.array([r.weight for r in report.regions])
    subres = np.array([r.subresidual for r in report.regions])
    assert_allclose(report.residual_subregion, w @ subres, rtol=1e-12)
    assert abs(report.identity_gap) < 1e-12 * max(1.0, abs(report.ge_total))
    # no benchmarking: constrained values echo the Bayes values
    for row in report.regions:
        assert row.ge_cb == row.ge_bayes


def test_separate_residual_signs_with_misspecified_leaves(small_fitted):
    # SM-truth leaves fitted with LN: lower-tail inequality is underestimated
    # (positive residual at theta = -1), upper-tail overestimated (negative
    # residual at theta = 2)
    _, fitted = small_fitted
    assert assemble(fitted, -1.0, "separate").residual_subregion > 0.0
    assert assemble(fitted, 2.0, "separate").residual_subregion < 0.0


# ---------------------------------------------------------------------------
# mixture method
# ---------------------------------------------------------------------------

def build_fitted_tree(leaf_params, leaf_pops, region_split, families=("gb2", "sm", "ln")):
    """Hierarchy plus hand-made exact posteriors for mixture tests."""
    sample = toy_sample("any")
    draws = {}
    regions = []
    idx = 0
    for r, k in enumerate(region_split):
        leaves = []
        for _ in range(k):
            lid = f"s{idx}"
            leaves.append(HierarchyNode(lid, "subregion", leaf_pops[idx], families[2],
                                        GroupedSample(sample.boundaries, sample.counts, lid)))
            draws[lid] = exact_draws(families[2], leaf_params[idx])
            idx += 1
        rid = f"r{r}"
        regions.append(HierarchyNode(rid, "region", sum(l.population for l in leaves), families[1],
                                     GroupedSample(sample.boundaries, sample.counts, rid), tuple(leaves)))
    root = HierarchyNode("c", "country", sum(r.population for r in regions), families[0],
                         GroupedSample(sample.boundaries, sample.counts, "c"), tuple(regions))
    return FittedHierarchy(root=root, draws=draws, mcmc=McmcConfig(seed=0))


def test_mixture_identical_leaves_collapse():
    params = g.LN(0.4, 0.36)
    fitted = build_fitted_tree([params] * 4, [1000.0] * 4, region_split=(2, 2))
    for theta in (-1.0, 0.0, 1.0, 2.0):
        report = assemble(fitted, theta, "mixture")
        assert report.between == 0.0
        assert all(r.between_sub == 0.0 for r in report.regions)
        assert_allclose(report.ge_total, params.ge(theta), rtol=1e-12)
        assert abs(report.identity_gap) < 1e-14


def test_mixture_two_ln_leaves_vs_monte_carlo():
    p1, p2 = g.LN(0.0, 0.25), g.LN(1.0, 0.25)
    fitted = build_fitted_tree([p1, p2], [1000.0, 1000.0], region_split=(2,))
    report = assemble(fitted, 1.0, "mixture")
    rng = np.random.default_rng(77)
    n = 1_000_000
    x = np.concatenate([p1.sample(n // 2, rng), p2.sample(n // 2, rng)])
    mc, se = mc_ge_with_se(x, 1.0)
    assert abs(report.ge_total - mc) < 4.0 * se
    assert abs(report.identity_gap) < 1e-14


def test_mixture_from_fits_holds_identity(small_fitted):
    _, fitted = small_fitted
    for theta in (-1.0, 0.0, 1.0, 2.0):
        report = assemble(fitted, theta, "mixture")
        assert abs(report.identity_gap) < 1e-12 * max(1.0, abs(report.ge_total))
        assert report.ge_total_sd is None


def test_mixture_differs_from_country_fit_on_heavy_lower_tail(small_fitted):
    # misspecified LN leaves vs the flexible country fit: visible gap at theta=-1
    _, fitted = small_fitted
    mixture = assemble(fitted, -1.0, "mixture")
    proposed = assemble(fitted, -1.0, "proposed")
    assert abs(mixture.ge_total - proposed.ge_total) / proposed.ge_total > 0.05


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_unreliable_draw_flags_surface_in_report():
    heavy = g.SM(1.5, 3.0, 1.0)  # a*q = 1.5 < 2: excluded at theta = 2
    light = g.SM(2.5, 3.0, 2.0)
    rows = np.vstack([np.tile(heavy.to_vector(), (5, 1)), np.tile(light.to_vector(), (95, 1))])
    bad_draws = PosteriorDraws(
        family="sm", unit="s0", draws=rows,
        acceptance_rate=0.3, config=McmcConfig(iterations=101, burnin=1),
    )
    fitted = build_fitted_tree([light] * 2, [500.0, 500.0], region_split=(2,),
                               families=("gb2", "sm", "sm"))
    draws = dict(fitted.draws)
    draws["s0"] = bad_draws
    draws["r0"] = exact_draws("sm", light)
    draws["c"] = exact_draws("gb2", g.GB2(2.5, 3.0, 1.0, 2.0))
    fitted = FittedHierarchy(root=fitted.root, draws=draws, mcmc=fitted.mcmc)
    # both methods read s0's GE summary, computed once: each report still carries its flag
    for method in ("proposed", "mixture"):
        report = assemble(fitted, 2.0, method)
        assert any("s0" in flag for flag in report.flags), method


def test_unit_without_usable_draws_fails_loudly():
    # at theta = 1 every retained draw of the region's SM fit lies outside
    # the moment window, so its posterior mean and GE do not exist
    brackets = [0.0, 1.0, 2.0, 3.0, 5.0, np.inf]
    region_counts = [60.0, 130.0, 160.0, 110.0, 480.0]
    s1 = HierarchyNode("s1", "subregion", 400.0, "sm",
                       GroupedSample(brackets, [10.0, 10.0, 10.0, 10.0, 400.0], "s1"))
    s2 = HierarchyNode("s2", "subregion", 600.0, "ln",
                       GroupedSample(brackets, [50.0, 120.0, 150.0, 100.0, 80.0], "s2"))
    region = HierarchyNode("r", "region", 1000.0, "sm", GroupedSample(brackets, region_counts, "r"), (s1, s2))
    country = HierarchyNode("c", "country", 1000.0, "gb2", GroupedSample(brackets, region_counts, "c"), (region,))
    fitted = fit_hierarchy(country, McmcConfig(iterations=2000, burnin=500, seed=20))
    # the gb2 country passes the k-hat gate but accepts about 30% of its
    # Laplace proposals, none with a*q > 1; below the acceptance floor it
    # falls back to the random walk
    c = fitted.draws["c"]
    assert c.sampler == "random-walk" and c.pareto_k <= 0.7
    # about 2% of its posterior has a*q > 1, which 1,500 draws may or may
    # not visit; a longer chain of the country alone does
    longer = fit("gb2", country.data, McmcConfig(20_000, 5_000, seed=derive_seed(20, "c")))
    assert (longer.draws[:, 0] * longer.draws[:, 3] > 1.0).any()
    # s1 loses most of its draws to its mean: more than half lost is undefined, not averaged
    with pytest.raises(PipelineError, match=r"^subregion s1: undefined, 1232/1500 draws with no finite mean at theta=1$"):
        assemble(fitted, 1.0, "mixture")
    # the country is checked first, and its GE at theta = 1 is undefined too
    for method in ("proposed", "separate"):
        with pytest.raises(PipelineError, match=r"^country c: undefined, 1500/1500 draws with GE outside .*theta=1$"):
            assemble(fitted, 1.0, method)
    assert posterior_ge(fitted.draws["r"], 1.0).n_excluded == 1500
    # the mixture reads only the leaves: give one leaf the region's draws (and s1 usable ones)
    draws = dict(fitted.draws, s1=fitted.draws["s2"], s2=fitted.draws["r"])
    fitted = FittedHierarchy(root=country, draws=draws, mcmc=fitted.mcmc)
    with pytest.raises(PipelineError, match=r"subregion s2: .*theta=1$"):
        assemble(fitted, 1.0, "mixture")


def test_exclusions_up_to_half_are_flagged_and_beyond_half_undefined():
    light = g.SM(2.5, 3.0, 2.0)
    heavy = g.SM(1.5, 3.0, 1.0).to_vector()  # a*q = 1.5 < 2: excluded at theta = 2
    fitted = build_fitted_tree([light] * 2, [500.0, 500.0], region_split=(2,), families=("gb2", "sm", "sm"))
    for n_heavy, undefined in ((50, False), (51, True)):
        rows = np.vstack([np.tile(heavy, (n_heavy, 1)), np.tile(light.to_vector(), (100 - n_heavy, 1))])
        draws = PosteriorDraws(family="sm", unit="s0", draws=rows,
                               acceptance_rate=0.3, config=McmcConfig(iterations=101, burnin=1))
        tree = FittedHierarchy(root=fitted.root, draws=dict(fitted.draws, s0=draws), mcmc=fitted.mcmc)
        lost = f"{n_heavy}/100 draws with GE outside the moment window at theta=2"
        if undefined:
            with pytest.raises(PipelineError, match=f"^subregion s0: undefined, {lost}$"):
                assemble(tree, 2.0, "mixture")
        else:
            assert assemble(tree, 2.0, "mixture").flags == (f"subregion s0: {lost}",)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_nonfinite_theta_rejected_by_every_method(small_fitted, theta):
    _, fitted = small_fitted
    for method in ("proposed", "separate", "mixture"):
        with pytest.raises(ValueError, match="must be finite"):
            assemble(fitted, theta, method)
    with pytest.raises(ValueError, match="must be finite"):
        ge_surface([2.0], [2.0], 3.0, (1.0, theta))


# the whole range, and around 0 and 1 both the LIMIT_TOL windows and the values just outside them
ASSEMBLY_THETAS = st.one_of(
    st.floats(-1.0, 3.0),
    st.sampled_from((0.0, 1.0)).flatmap(lambda c: st.floats(c - 1e3 * LIMIT_TOL, c + 1e3 * LIMIT_TOL)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(theta=ASSEMBLY_THETAS)
def test_assembled_identity_holds_or_fails_loudly(small_fitted, theta):
    _, fitted = small_fitted
    for method in g.METHODS:
        for phi in ("uniform", "raking"):
            try:
                report = assemble(fitted, theta, method, phi)
            except (PipelineError, RakingInadmissibleError):
                continue
            assert abs(report.identity_gap) < 1e-12 * max(1.0, abs(report.ge_total)), (method, phi)


# a * q >= 3 and a >= 2.5: every SM node has its mean and its GE for theta in [-1, 2]
NODE_PARAMS = st.one_of(
    st.builds(g.LN, st.floats(-1.0, 2.0), st.floats(0.05, 1.0)),
    st.builds(g.SM, st.floats(2.5, 5.0), st.floats(1.0, 6.0), st.floats(1.2, 3.0)),
)


# a parent's population relative to its children's sum, inside HierarchyNode's 1e-9 tolerance
OFF_SUM = st.one_of(st.just(0.0), st.floats(-0.999e-9, 0.999e-9))


@st.composite
def exact_trees(draw):
    """A 1-4 region by 1-4 leaf tree with random populations, every node with degenerate draws.

    Each parent's population lies up to 0.999e-9 relative off its children's sum.
    """
    draws = {}

    def node(node_id, level, population, children=()):
        params = draw(NODE_PARAMS)
        family = "ln" if isinstance(params, g.LN) else "sm"
        draws[node_id] = exact_draws(family, params)
        return HierarchyNode(node_id, level, population, family, toy_sample(node_id), children)

    regions = []
    for r in range(draw(st.integers(1, 4))):
        pops = draw(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=4))
        leaves = tuple(node(f"r{r}s{k}", "subregion", pop) for k, pop in enumerate(pops))
        regions.append(node(f"r{r}", "region", sum(pops) * (1.0 + draw(OFF_SUM)), leaves))
    root = node("c", "country", sum(r.population for r in regions) * (1.0 + draw(OFF_SUM)), tuple(regions))
    return FittedHierarchy(root=root, draws=draws, mcmc=McmcConfig(seed=0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fitted=exact_trees(), theta=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(-1.0, 2.0)))
def test_assembled_identity_over_random_trees(fitted, theta):
    regions = fitted.root.children
    region_ids = [r.id for r in regions]
    leaves = [(s.id, r.id) for r in regions for s in r.children]
    for method in g.METHODS:
        for phi in ("uniform", "raking"):
            report = assemble(fitted, theta, method, phi)
            tol = 1e-12 * max(1.0, abs(report.ge_total))
            assert abs(report.identity_gap) <= tol, (method, phi)
            assert [r.id for r in report.regions] == region_ids
            assert [(s.id, s.region) for s in report.subregions] == leaves
            if method == "proposed":
                for row in report.regions:
                    assert abs(row.ge_cb - (row.within_sub + row.between_sub)) <= tol, (phi, row.id)


def test_summaries_computed_once_never_change_a_report(small_fitted, monkeypatch):
    _, fitted = small_fitted
    evaluations = Counter()  # ("ge" or "mean", id of the terms, theta) -> evaluations

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(terms, *theta):
            evaluations[name, id(terms), *map(float, theta)] += 1
            return original(terms, *theta)
        monkeypatch.setattr(cls, name, counted)

    for cls in (_GB2Terms, _LNTerms):
        for name in ("ge", "mean"):
            counting(cls, name)

    def tree(draws):
        return FittedHierarchy(root=fitted.root, draws=draws, mcmc=fitted.mcmc)

    def count(name):
        return sum(key[0] == name for key in evaluations)

    # copies of the draws keep no summary yet: earlier tests filled the originals'
    draws = {node_id: replace(d) for node_id, d in fitted.draws.items()}
    thetas = (-1.0, 0.0, 1.0, 2.0)
    first, second = tree(draws), tree(draws)
    reports = {(m, t): assemble(first, t, m) for t in thetas for m in g.METHODS}
    assert {(m, t): assemble(second, t, m) for t in thetas for m in g.METHODS} == reports
    # -0.0 and 0.0 share one summary; the reports differ only in theta
    for method in g.METHODS:
        assert replace(assemble(second, -0.0, method), theta=0.0) == reports[method, 0.0], method
    assert max(evaluations.values()) == 1
    assert count("mean") == len(draws) - 1  # all but the root
    assert count("ge") == len(draws) * len(thetas)
    # a copy of the draws starts empty, and computes the same summaries once more
    evaluations.clear()
    copies = tree({node_id: replace(d) for node_id, d in draws.items()})
    for (method, theta), report in reports.items():
        assert assemble(copies, theta, method) == report, (method, theta)
    assert max(evaluations.values()) == 1
    assert count("ge") == len(draws) * len(thetas)


def test_fit_hierarchy_fits_each_group_in_one_call(small_fitted, monkeypatch):
    data, fitted = small_fitted
    calls = []

    def recording(name, original):
        def record(family, samples, *args):
            calls.append((name, family, [samples.unit] if name == "fit" else [s.unit for s in samples]))
            return original(family, samples, *args)
        return record

    monkeypatch.setattr(g.pipeline, "fit", recording("fit", fit))
    monkeypatch.setattr(g.pipeline, "fit_batch", recording("fit_batch", fit_batch))
    again = fit_hierarchy(data.root, FAST_MCMC)
    regions = [r.id for r in data.root.children]
    leaves = [leaf.id for r in data.root.children for leaf in r.children]
    # the country is alone in its group: grouped.fit, the batch of one, so instrumentation of fit sees it
    assert calls == [("fit", "gb2", [data.root.id]), ("fit_batch", "sm", regions), ("fit_batch", "ln", leaves)]
    for node_id, draws in fitted.draws.items():
        assert np.array_equal(again.draws[node_id].draws, draws.draws)
        assert again.draws[node_id].config == draws.config


def test_child_populations_sum_within_relative_tolerance():
    def country(gap):
        regions = (HierarchyNode("a", "region", 4e5, "sm", toy_sample("a")),
                   HierarchyNode("b", "region", 6e5 + gap, "sm", toy_sample("b")))
        return HierarchyNode("c", "country", 1e6, "gb2", toy_sample("c"), regions)

    for sign in (1.0, -1.0):
        country(sign * 0.9e-9 * 1e6)  # accepted
        with pytest.raises(PipelineError, match=r"^node 'c': child populations sum to "):
            country(sign * 1.1e-9 * 1e6)


def test_tree_within_population_tolerance_assembles():
    # the regions' shares of the country's population sum to 1 + 1e-9, past between_from_means' check
    draws = {}

    def node(node_id, level, population, params, children=()):
        draws[node_id] = exact_draws("ln", params)
        return HierarchyNode(node_id, level, population, "ln", toy_sample(node_id), children)

    regions = tuple(
        node(rid, "region", pop, params, (node(f"{rid}1", "subregion", pop, params),))
        for rid, pop, params in (("a", 2011712.2053071766, g.LN(0.8, 0.4)), ("b", 4357905.037315296, g.LN(1.2, 0.6)))
    )
    root = node("c", "country", 6369617.2362528555, g.LN(1.0, 0.5), regions)
    fitted = FittedHierarchy(root=root, draws=draws, mcmc=McmcConfig(seed=0))
    for theta in (-1.0, 0.0, 1.0, 2.0):
        for method in g.METHODS:
            report = assemble(fitted, theta, method)
            assert abs(report.identity_gap) <= 1e-12 * max(1.0, abs(report.ge_total)), (theta, method)
            assert sum(r.share for r in report.regions) == pytest.approx(1.0, abs=1e-15)


def test_negative_constrained_values_are_flagged_not_clipped():
    # a near-equal country over two regions far apart: the between term alone exceeds the country's GE
    draws = {}

    def node(node_id, level, params, children=()):
        draws[node_id] = exact_draws("ln", params)
        return HierarchyNode(node_id, level, 1000.0 * (len(children) or 1), "ln", toy_sample(node_id), children)

    regions = tuple(node(f"r{k}", "region", p, (node(f"s{k}", "subregion", p),))
                    for k, p in enumerate((g.LN(0.0, 1.0), g.LN(2.0, 1.0))))
    fitted = FittedHierarchy(root=node("c", "country", g.LN(0.0, 0.01), regions), draws=draws, mcmc=McmcConfig())
    report = assemble(fitted, 1.0, "proposed")
    assert report.between > report.ge_total
    rows = report.regions + report.subregions
    assert all(row.ge_bayes > 0.0 for row in rows)
    assert all(row.ge_cb < 0.0 and row.negative for row in rows)
    assert abs(report.identity_gap) < 1e-14
    assert not any(row.negative for row in assemble(fitted, 1.0, "separate").regions)


def test_region_rows_carry_bw_ratio(small_fitted):
    _, fitted = small_fitted
    report = assemble(fitted, 1.0, "proposed")
    for row in report.regions:
        assert row.bw_ratio == row.between_sub / row.within_sub


def test_bw_ratio_hand_value():
    assert_allclose(0.004 / 0.26, 0.0153846, rtol=1e-5)  # reference arithmetic
    report = run(degenerate_tree(), 0.0, McmcConfig(iterations=300, burnin=80, seed=2), "proposed")
    assert report.regions[0].bw_ratio == 0.0  # single subregion: between_sub = 0


# ---------------------------------------------------------------------------
# parameter surfaces
# ---------------------------------------------------------------------------

def pointwise_surface(a_values, q_values, b, theta) -> np.ndarray:
    """Reference surface, one SM(a, b, q).ge(theta) per cell, NaN where GE does not exist."""
    values = np.full((len(q_values), len(a_values)), np.nan)
    for i, qv in enumerate(q_values):
        for j, av in enumerate(a_values):
            try:
                values[i, j] = g.SM(av, b, qv).ge(theta)
            except MomentExistenceError:
                pass
    return values


def test_surface_matches_pointwise_ge_and_monotone():
    a_values = np.linspace(1.5, 4.0, 8)
    q_values = np.linspace(1.5, 4.0, 8)
    for surface in ge_surface(a_values, q_values, 3.0, (-1.0, 0.0, 1.0, 2.0)):
        np.testing.assert_array_equal(surface.values, pointwise_surface(a_values, q_values, 3.0, surface.theta))
        # GE decreases along both parameter axes on this grid
        assert np.all(np.diff(surface.values, axis=0) < 0.0)
        assert np.all(np.diff(surface.values, axis=1) < 0.0)
        # thin tails at the top corner mean low inequality
        assert surface.values[-1, -1] < 0.12
    # a grid crossing the moment-window edges: NaN in the same cells
    a_values = np.linspace(0.3, 4.0, 13)
    q_values = np.linspace(0.3, 4.0, 11)
    for surface in ge_surface(a_values, q_values, 3.0, (-2.0, -1.0, 0.0, 1e-10, 1.0, 2.0, 5.0)):
        reference = pointwise_surface(a_values, q_values, 3.0, surface.theta)
        assert 0 < np.isnan(reference).sum() < reference.size
        np.testing.assert_array_equal(surface.values, reference)


def test_surface_lower_tail_sensitivity():
    surfaces = ge_surface([2.0, 3.0], [3.0], 3.0, (-1.0,))
    ge_a2, ge_a3 = surfaces[0].values[0]
    assert ge_a2 > ge_a3  # smaller power parameter: fatter lower tail


def test_surface_masks_inadmissible_cells():
    surface = ge_surface([0.6, 2.5], [1.0, 2.0], 3.0, (1.0,))[0]
    assert math.isnan(surface.values[0, 0])  # a*q = 0.6: no mean
    assert math.isfinite(surface.values[1, 1])
    theta_neg = ge_surface([0.6], [2.5], 3.0, (-1.0,))[0]
    assert math.isnan(theta_neg.values[0, 0])  # theta below -a
    for a_values, q_values, b in (([2.0, 0.0], [2.0], 3.0), ([2.0], [-1.0], 3.0),
                                  ([2.0], [2.0], np.inf), ([np.nan], [2.0], 3.0)):
        with pytest.raises(ParameterDomainError):
            ge_surface(a_values, q_values, b, (1.0,))
    for a_values, q_values in (([], [2.0]), ([2.0], []), ([], [])):
        with pytest.raises(ValueError, match="at least one value"):
            ge_surface(a_values, q_values, 3.0, (1.0,))


# ---------------------------------------------------------------------------
# determinism and seed isolation
# ---------------------------------------------------------------------------

def test_pipeline_deterministic(small_fitted):
    data, fitted = small_fitted
    again = fit_hierarchy(data.root, FAST_MCMC)
    for node_id, draws in fitted.draws.items():
        assert np.array_equal(draws.draws, again.draws[node_id].draws)


def test_batched_fits_equal_fits_run_alone(small_fitted):
    data, fitted = small_fitted
    for node in data.root.walk():
        alone = fit(node.family, node.data, replace(FAST_MCMC, seed=derive_seed(FAST_MCMC.seed, node.id)))
        assert np.array_equal(fitted.draws[node.id].draws, alone.draws)
        assert fitted.draws[node.id].acceptance_rate == alone.acceptance_rate


def test_sibling_order_leaves_draws_unchanged(small_fitted):
    data, fitted = small_fitted
    root = data.root
    regions = tuple(
        HierarchyNode(r.id, r.level, r.population, r.family, r.data, r.children[::-1])
        for r in root.children[::-1]
    )
    flipped = HierarchyNode(root.id, root.level, root.population, root.family, root.data, regions)
    again = fit_hierarchy(flipped, FAST_MCMC)
    for node_id, draws in fitted.draws.items():
        assert np.array_equal(draws.draws, again.draws[node_id].draws)
        assert draws.acceptance_rate == again.draws[node_id].acceptance_rate


def test_mixed_batch_equals_fits_run_alone(small_fitted):
    data, _ = small_fitted
    samples = [leaf.data for region in data.root.children for leaf in region.children]
    for base in (McmcConfig(600, 200), McmcConfig(300, 0)):
        seeds = [40 + k for k in range(len(samples))]
        batch = fit_batch("sm", samples, base, seeds)
        for sample, seed, draws in zip(samples, seeds, batch):
            config = replace(base, seed=seed)
            alone = fit("sm", sample, config)
            assert draws.unit == sample.unit and draws.config == config
            assert np.array_equal(draws.draws, alone.draws)
            assert draws.acceptance_rate == alone.acceptance_rate


def test_sibling_fits_unaffected_by_added_node():
    def tree(extra: bool) -> HierarchyNode:
        leaves = [HierarchyNode("sA", "subregion", 500.0, "ln", toy_sample("sA"))]
        if extra:
            leaves.append(HierarchyNode("sB", "subregion", 300.0, "ln", toy_sample("sB")))
        pop = sum(l.population for l in leaves)
        region = HierarchyNode("r", "region", pop, "sm", toy_sample("r"), tuple(leaves))
        return HierarchyNode("c", "country", pop, "gb2", toy_sample("c"), (region,))

    cfg = McmcConfig(iterations=300, burnin=80, seed=11)
    small = fit_hierarchy(tree(False), cfg, levels=("subregion",))
    grown = fit_hierarchy(tree(True), cfg, levels=("subregion",))
    assert np.array_equal(small.draws["sA"].draws, grown.draws["sA"].draws)
