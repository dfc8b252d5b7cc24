"""Synthetic generation: oracle fidelity, truth identities, method comparison."""

import tracemalloc
import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import gedecomp as g
from gedecomp import dataio
from gedecomp.distributions import LIMIT_TOL
from gedecomp.grouped import McmcConfig
from gedecomp.inequality import decompose_finite, ge_finite
from gedecomp.pipeline import METHODS, assemble
from gedecomp.sim import (
    LeafSpec,
    MultilevelTruth,
    RegionSpec,
    SyntheticSpec,
    compare_methods,
    generate,
)

# a report's national components, in table order
COMPONENTS = ("ge_total", "between", "residual_region", "sum_weighted_between_sub", "sum_weighted_within_sub",
              "residual_subregion")

# the benchmark's sensitivity grid, both edges of each limit window, and generic
# thetas near 0 and 1 (the expm1 forms of inequality._ge)
ORACLE_THETAS = tuple(-1.0 + 0.25 * k for k in range(13)) + (
    -LIMIT_TOL, LIMIT_TOL, 1.0 - LIMIT_TOL, 1.0 + LIMIT_TOL, -0.05, 0.05, 0.95, 1.05)


def small_spec(seed=0, brackets=8) -> SyntheticSpec:
    return SyntheticSpec(
        regions=(
            RegionSpec("north", (LeafSpec("n1", g.SM(2.2, 4.0, 1.8), 3000),
                                 LeafSpec("n2", g.LN(1.2, 0.4), 2000))),
            RegionSpec("south", (LeafSpec("s1", g.SM(2.0, 5.0, 2.0), 2500),)),
        ),
        brackets=brackets,
        sampling_fraction=0.3,
        seed=seed,
    )


def person_labels(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each person's region and leaf id, from the spec's contiguous layout alone."""
    leaves = [leaf for region in spec.regions for leaf in region.leaves]
    region_labels = np.repeat([r.id for r in spec.regions], [sum(l.population for l in r.leaves) for r in spec.regions])
    return region_labels, np.repeat([l.id for l in leaves], [l.population for l in leaves])


def test_generate_deterministic():
    d1 = generate(small_spec())
    d2 = generate(small_spec())
    assert np.array_equal(d1.incomes, d2.incomes)
    for n1, n2 in zip(d1.root.walk(), d2.root.walk(), strict=True):
        assert np.array_equal(n1.data.counts, n2.data.counts)
        assert np.array_equal(n1.data.boundaries, n2.data.boundaries)


def test_generated_tree_follows_the_spec():
    spec = replace(small_spec(), country_id="nation",
                   fit_families={"country": "sm", "region": "ln", "subregion": "gb2"})
    data = generate(spec)
    nodes = list(data.root.walk())
    assert [(n.id, n.level, n.family) for n in nodes] == [
        ("nation", "country", "sm"),
        ("north", "region", "ln"),
        ("n1", "subregion", "gb2"),
        ("n2", "subregion", "gb2"),
        ("south", "region", "ln"),
        ("s1", "subregion", "gb2"),
    ]
    assert [s.population for r in data.root.children for s in r.children] == [3000.0, 2000.0, 2500.0]
    assert [r.population for r in data.root.children] == [5000.0, 2500.0]
    assert data.root.population == 7500.0 == len(data.incomes)
    assert all(type(n.population) is float for n in nodes)
    assert all(n.data.unit == n.id for n in nodes)


def test_leaf_streams_independent_of_siblings():
    base = generate(small_spec())
    extended_spec = SyntheticSpec(
        regions=(
            base.spec.regions[0],
            RegionSpec("south", base.spec.regions[1].leaves + (LeafSpec("s2", g.LN(0.8, 0.3), 1000),)),
        ),
        brackets=base.spec.brackets,
        sampling_fraction=base.spec.sampling_fraction,
        seed=base.spec.seed,
    )
    extended = generate(extended_spec)
    _, base_leaves = person_labels(base.spec)
    _, extended_leaves = person_labels(extended_spec)
    for leaf in ("n1", "n2", "s1"):
        assert np.array_equal(base.incomes[base_leaves == leaf], extended.incomes[extended_leaves == leaf])


def test_grouped_counts_match_stored_population():
    data = generate(small_spec())
    region_labels, leaf_labels = person_labels(data.spec)
    boundaries = data.root.data.boundaries
    for node_id, sample in ((node.id, node.data) for node in data.root.walk()):
        if node_id == "country":
            mask = data.sampled
        else:
            labels = region_labels if node_id in ("north", "south") else leaf_labels
            mask = (labels == node_id) & data.sampled
        counts, _ = np.histogram(data.incomes[mask], bins=boundaries)
        assert np.array_equal(sample.counts, counts.astype(float))
    # sampling fraction respected per leaf
    n1 = (leaf_labels == "n1") & data.sampled
    assert n1.sum() == round(0.3 * 3000)


def test_truth_decomposition_identity():
    data = generate(small_spec(seed=4))
    thetas = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    for theta, truth in zip(thetas, data.multilevel_truth(thetas)):
        assembled = truth.sum_weighted_within_sub + truth.sum_weighted_between_sub + truth.between
        assert abs(truth.ge_total - assembled) < 1e-12 * max(1.0, abs(truth.ge_total))
        assert truth.ge_total == pytest.approx(data.true_ge("country", theta))
        for rid, value in truth.region_ge.items():
            assert value == pytest.approx(data.true_ge(rid, theta))


def three_region_spec(seed=3) -> SyntheticSpec:
    return SyntheticSpec(
        regions=(
            RegionSpec("r1", (LeafSpec("a", g.LN(0.9, 0.5), 1200), LeafSpec("b", g.SM(2.5, 3.0, 1.6), 700),
                              LeafSpec("c", g.LN(0.6, 0.3), 400))),
            RegionSpec("r2", (LeafSpec("d", g.SM(1.8, 4.0, 2.2), 900),)),
            RegionSpec("r3", (LeafSpec("e", g.LN(1.1, 0.8), 300), LeafSpec("f", g.LN(0.7, 0.4), 1500))),
        ),
        brackets=6,
        sampling_fraction=0.5,
        seed=seed,
    )


def label_mask_truth(data, theta) -> MultilevelTruth:
    """Reference: the label-mask algorithm, decompose_finite on the labels."""
    region_labels, leaf_labels = person_labels(data.spec)
    top = decompose_finite(data.incomes, region_labels, theta)
    fields = {"region_ge": {}, "region_between_sub": {}, "region_within_sub": {}, "leaf_ge": {}}
    sum_wb = sum_ww = 0.0
    for term in top.groups:
        mask = region_labels == term.label
        sub = decompose_finite(data.incomes[mask], leaf_labels[mask], theta)
        fields["region_ge"][term.label] = term.ge
        fields["region_between_sub"][term.label] = sub.between
        fields["region_within_sub"][term.label] = sub.within
        sum_wb += term.weight * sub.between
        sum_ww += term.weight * sub.within
        for leaf_term in sub.groups:
            fields["leaf_ge"][leaf_term.label] = leaf_term.ge
    return MultilevelTruth(theta=theta, ge_total=top.total, between=top.between,
                           sum_weighted_between_sub=sum_wb, sum_weighted_within_sub=sum_ww, **fields)


@pytest.mark.parametrize("spec", [small_spec(seed=5), three_region_spec()], ids=["small", "three-region"])
def test_truth_equals_label_mask_reference(spec):
    data = generate(spec)
    for theta, truth in zip(ORACLE_THETAS, data.multilevel_truth(ORACLE_THETAS)):
        reference = label_mask_truth(data, theta)
        assert truth == reference
        for name in ("region_ge", "region_between_sub", "region_within_sub", "leaf_ge"):
            assert list(getattr(truth, name)) == list(getattr(reference, name))  # same order
        assert data.true_ge(spec.country_id, theta) == ge_finite(data.incomes, theta)
        for labels in person_labels(spec):
            for node_id in dict.fromkeys(labels.tolist()):
                assert data.true_ge(node_id, theta) == ge_finite(data.incomes[labels == node_id], theta)


def traced_peak(call) -> int:
    """Peak bytes traced while call runs, above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_truth_holds_one_ratio_array_at_a_time():
    spec = SyntheticSpec(  # 200,000 people
        regions=tuple(RegionSpec(f"r{i}", tuple(LeafSpec(f"l{i}{j}", g.LN(1.0, 0.5) if j % 2 else g.SM(2.2, 4.0, 1.8),
                                                         10_000) for j in range(5))) for i in range(4)),
        brackets=8,
        seed=3,
    )
    data = generate(spec)
    thetas = ORACLE_THETAS[:13]  # the sensitivity grid: power, MLD and Theil forms, each one temporary
    peak = traced_peak(lambda: data.multilevel_truth(thetas))
    assert peak <= 1.1 * traced_peak(lambda: data.multilevel_truth((2.0,)))
    # that is the country's ratios and one temporary: no log r kept across thetas, no level's ratios kept
    x = data.incomes
    assert peak <= 1.1 * traced_peak(lambda: np.mean((x / x.mean()) ** 2.0))


def test_degenerate_leaves_zero_inequality():
    spec = SyntheticSpec(
        regions=(RegionSpec("r", (LeafSpec("a", g.LN(0.0, 0.0), 500),
                                  LeafSpec("b", g.LN(0.0, 0.0), 500))),),
        brackets=(0.0, 0.5, 1.5, np.inf),
        sampling_fraction=0.5,
        seed=1,
    )
    data = generate(spec)
    counts = data.root.data.counts
    assert counts[0] == 0 and counts[2] == 0 and counts[1] > 0  # everything in one bracket
    thetas = (-1.0, 0.0, 1.0, 2.0)
    for theta, truth in zip(thetas, data.multilevel_truth(thetas)):
        assert truth.ge_total == 0.0
        assert truth.between == 0.0


def test_quantile_brackets_fail_on_degenerate_sample():
    spec = SyntheticSpec(
        regions=(RegionSpec("r", (LeafSpec("a", g.LN(0.0, 0.0), 500),)),),
        brackets=8,
        sampling_fraction=0.5,
        seed=1,
    )
    with pytest.raises(ValueError):
        generate(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(regions=())
    with pytest.raises(ValueError):
        small_spec(brackets=1)
    with pytest.raises(ValueError):
        LeafSpec("x", g.LN(0.0, 1.0), 0)
    with pytest.raises(ValueError):
        RegionSpec("r", ())
    with pytest.raises(ValueError):
        SyntheticSpec(regions=small_spec().regions, sampling_fraction=0.0)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"sampling_fraction": True}, "sampling_fraction must be a number, got True"),
        ({"sampling_fraction": "0.5"}, "sampling_fraction must be a number, got '0.5'"),
        ({"brackets": "12"}, "brackets must be an integer or a list of boundaries, got '12'"),
        ({"brackets": True}, "brackets must be an integer or a list of boundaries, got True"),
        ({"brackets": 2.0}, "brackets must be an integer or a list of boundaries, got 2.0"),
        ({"brackets": 1}, "need at least two brackets"),
        ({"brackets": (1, 2, math.inf)}, "first boundary must be 0, got 1.0"),
        ({"brackets": [0, 1, 2]}, "last boundary must be +inf (open top bracket)"),
        ({"brackets": (0, math.inf)}, "need at least two brackets"),
        ({"brackets": (0, 2, 1, math.inf)}, "boundaries must be strictly increasing"),
        ({"fit_families": {"country": "gb2", "leaf": "gb2"}},
         "fit_families takes only the keys country, region and subregion, got {'country': 'gb2', 'leaf': 'gb2'}"),
        ({"fit_families": ["country"]},
         "fit_families takes only the keys country, region and subregion, got ['country']"),
        ({"fit_families": {"region": "gbb2"}}, "unknown family tag 'gbb2'"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),  # McmcConfig's rule: simulate fits with it
    ],
    ids=["fraction-bool", "fraction-string", "brackets-string", "brackets-bool", "brackets-float", "one-bracket",
         "first-not-zero", "closed-top", "one-boundary-pair", "not-increasing", "unknown-level",
         "families-not-a-mapping", "unknown-tag", "negative-seed"],
)
def test_spec_checks_its_own_settings_with_the_loaders_messages(settings, message):
    # the same rules and texts as a spec file gets from load_synthetic_spec
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SyntheticSpec(regions=small_spec().regions, **settings)


def test_fit_families_fill_left_out_levels_from_the_defaults():
    assert small_spec().fit_families == {"country": "gb2", "region": "sm", "subregion": "ln"}
    spec = replace(small_spec(), fit_families={"country": "ln", "region": "ln", "subregion": "ln"})
    spec = replace(spec, fit_families={"region": "gb2"})  # from the defaults, not from the replaced spec
    assert spec.fit_families == {"country": "gb2", "region": "gb2", "subregion": "ln"}
    families = {}
    for node in generate(spec).root.walk():
        families.setdefault(node.level, set()).add(node.family)
    assert families == {"country": {"gb2"}, "region": {"gb2"}, "subregion": {"ln"}}



def test_spec_types_check_what_they_hold():
    leaf = LeafSpec("a", g.LN(1.0, 0.4), 100)
    with pytest.raises(ValueError, match=r"^leaf 'a': params must be GB2, SM or LN parameters, got 'ln'$"):
        LeafSpec("a", "ln", 100)
    with pytest.raises(ValueError, match=r"^region 'r': each leaf must be a LeafSpec, got 'a'$"):
        RegionSpec("r", (leaf, "a"))
    with pytest.raises(ValueError, match=r"^each region must be a RegionSpec, got 'r'$"):
        SyntheticSpec(regions=(RegionSpec("r", (leaf,)), "r"))

@pytest.mark.parametrize("regions, duplicate", [
    ((RegionSpec("r", (LeafSpec("x", g.LN(0.0, 1.0), 1000), LeafSpec("x", g.LN(0.0, 1.0), 2000))),), "x"),
    ((RegionSpec("r", (LeafSpec("x", g.LN(0.0, 1.0), 1000),)),
      RegionSpec("s", (LeafSpec("x", g.LN(0.0, 1.0), 2000),))), "x"),
    ((RegionSpec("country", (LeafSpec("x", g.LN(0.0, 1.0), 1000),)),), "country"),
    ((RegionSpec("r", (LeafSpec("r", g.LN(0.0, 1.0), 1000),)),), "r"),
], ids=["sibling-leaves", "cousin-leaves", "region-is-country", "leaf-is-region"])
def test_spec_rejects_duplicate_node_ids(regions, duplicate):
    with pytest.raises(ValueError, match=f"node id '{duplicate}' is used more than once"):
        SyntheticSpec(regions=regions, sampling_fraction=0.5)


@pytest.mark.parametrize("bad_id", [1, "", None, ["x"]], ids=["int", "empty", "null", "list"])
def test_spec_ids_must_be_nonempty_strings(bad_id):
    leaf = LeafSpec("x", g.LN(0.0, 1.0), 1000)
    message = f"id {bad_id!r} must be a non-empty string"
    with pytest.raises(ValueError, match=f"^leaf {re.escape(message)}$"):
        LeafSpec(bad_id, g.LN(0.0, 1.0), 1000)
    with pytest.raises(ValueError, match=f"^region {re.escape(message)}$"):
        RegionSpec(bad_id, (leaf,))
    with pytest.raises(ValueError, match=f"^country {re.escape(message)}$"):
        SyntheticSpec(regions=(RegionSpec("r", (leaf,)),), country_id=bad_id)


def test_compare_methods_schema_and_identities(tmp_path):
    comparison = compare_methods(small_spec(seed=9), (0.0, 1.0), McmcConfig(iterations=500, burnin=120, seed=2))
    assert [truth.theta for truth, _ in comparison] == [0.0, 1.0]
    path = tmp_path / "comparison.csv"
    dataio.write_comparison_csv(path, comparison)
    with path.open(newline="") as handle:
        written = list(csv.DictReader(handle))
    for truth, reports in comparison:
        assert list(reports) == list(METHODS)
        for method, report in reports.items():
            rows = {r["component"]: r for r in written if float(r["theta"]) == truth.theta and r["method"] == method}
            assert list(rows) == list(COMPONENTS)
            assert report.method == method and report.theta == truth.theta
            assert [float(rows[c]["estimate"]) for c in COMPONENTS] == [getattr(report, c) for c in COMPONENTS]
            if method != "separate":
                assert report.residual_region == 0.0
                assert report.residual_subregion == 0.0
            assert abs(report.identity_gap) < 1e-10 * max(1.0, abs(report.ge_total))
            assert rows["residual_region"]["truth"] == rows["residual_region"]["error"] == ""
            assert float(rows["ge_total"]["truth"]) == truth.ge_total
    # truth-aligned errors are reported
    ge_rows = [r for r in written if r["component"] == "ge_total" and float(r["theta"]) == 1.0]
    assert len(ge_rows) == len(METHODS)
    for row in ge_rows:
        assert float(row["error"]) == pytest.approx(float(row["estimate"]) - float(row["truth"]))


def test_render_comparison_table():
    [(truth, reports)] = compare_methods(small_spec(seed=9), (1.0,), McmcConfig(iterations=300, burnin=100, seed=2))
    lines = dataio.render_comparison(truth, reports).splitlines()
    assert lines[0] == "theta = 1"
    assert lines[1] == f"{'component':<28}{'proposed':>12}{'separate':>12}{'mixture':>12}{'truth':>12}"
    assert [line.split()[0] for line in lines[2:8]] == list(COMPONENTS)
    flags = list(dict.fromkeys(flag for report in reports.values() for flag in report.flags))
    assert lines[8:] == (["flags:", *(f"  - {flag}" for flag in flags)] if flags else [])
    for line in lines[2:8]:
        assert len(line) == 28 + 4 * 12
        component, *cells, truth_txt = line.split()
        estimates = [f"{getattr(reports[m], component):.5f}" for m in ("proposed", "separate", "mixture")]
        if component.startswith("residual"):
            assert cells == ["--", estimates[1], "--"]
            assert truth_txt == "--"
        else:
            assert cells == estimates
            assert truth_txt == f"{getattr(truth, component):.5f}"


def test_estimator_consistency_over_doubling():
    # well-specified single-family world: every unit is the same lognormal,
    # so all three levels are correctly specified and errors shrink with n
    thetas = (0.0, 1.0)
    sizes = (1500, 6000, 24000)
    errors = np.zeros(len(sizes))
    for s, size in enumerate(sizes):
        per_seed = []
        for seed in range(10):
            spec = SyntheticSpec(
                regions=(
                    RegionSpec("r1", (LeafSpec("l1", g.LN(0.8, 0.5), size),
                                      LeafSpec("l2", g.LN(0.8, 0.5), size))),
                    RegionSpec("r2", (LeafSpec("l3", g.LN(0.8, 0.5), size),)),
                ),
                brackets=10,
                sampling_fraction=0.5,
                seed=100 + seed,
                fit_families={"country": "ln", "region": "ln", "subregion": "ln"},
            )
            data = generate(spec)
            fitted = g.fit_hierarchy(data.root, McmcConfig(iterations=1200, burnin=300, seed=seed))
            for theta, truth in zip(thetas, data.multilevel_truth(thetas)):
                report = assemble(fitted, theta, "proposed")
                per_seed.append(abs(report.ge_total - truth.ge_total) / truth.ge_total)
        errors[s] = np.mean(per_seed)
    assert errors[0] > errors[1] > errors[2]
