"""Synthetic generation: oracle fidelity, truth identities, method comparison."""

import numpy as np
import pytest

import gedecomp as g
from gedecomp.grouped import McmcConfig
from gedecomp.pipeline import assemble
from gedecomp.sim import (
    LeafSpec,
    MethodComparison,
    RegionSpec,
    SyntheticSpec,
    compare_methods,
    generate,
)


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


def test_generate_deterministic():
    d1 = generate(small_spec())
    d2 = generate(small_spec())
    assert np.array_equal(d1.incomes, d2.incomes)
    for node_id in d1.samples:
        assert np.array_equal(d1.samples[node_id].counts, d2.samples[node_id].counts)
        assert np.array_equal(d1.samples[node_id].boundaries, d2.samples[node_id].boundaries)


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
    for leaf in ("n1", "n2", "s1"):
        assert np.array_equal(
            base.incomes[base.leaf_labels == leaf], extended.incomes[extended.leaf_labels == leaf]
        )


def test_grouped_counts_match_stored_population():
    data = generate(small_spec())
    boundaries = data.root.data.boundaries
    for node_id, sample in data.samples.items():
        mask = data._node_mask(node_id) & data.sampled
        counts, _ = np.histogram(data.incomes[mask], bins=boundaries)
        assert np.array_equal(sample.counts, counts.astype(float))
    # sampling fraction respected per leaf
    n1 = (data.leaf_labels == "n1") & data.sampled
    assert n1.sum() == round(0.3 * 3000)


def test_truth_decomposition_identity():
    data = generate(small_spec(seed=4))
    for theta in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        truth = data.multilevel_truth(theta)
        assembled = truth.sum_weighted_within_sub + truth.sum_weighted_between_sub + truth.between
        assert abs(truth.ge_total - assembled) < 1e-12 * max(1.0, abs(truth.ge_total))
        assert truth.ge_total == pytest.approx(data.true_ge("country", theta))
        for rid, value in truth.region_ge.items():
            assert value == pytest.approx(data.true_ge(rid, theta))


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
    for theta in (-1.0, 0.0, 1.0, 2.0):
        truth = data.multilevel_truth(theta)
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


def test_compare_methods_schema_and_identities():
    comparison = compare_methods(small_spec(seed=9), (0.0, 1.0), McmcConfig(iterations=500, burnin=120, seed=2))
    methods = {"proposed", "separate", "mixture"}
    for theta in (0.0, 1.0):
        for method in methods:
            rows = {r.component: r for r in comparison.rows if r.theta == theta and r.method == method}
            assert set(rows) == set(MethodComparison.COMPONENTS)
            report = comparison.reports[(method, theta)]
            assert report.method == method
            if method != "separate":
                assert rows["residual_region"].estimate == 0.0
                assert rows["residual_subregion"].estimate == 0.0
            assert abs(report.identity_gap) < 1e-10 * max(1.0, abs(report.ge_total))
            assert rows["residual_region"].truth is None
            assert rows["ge_total"].truth is not None
    # truth-aligned errors are reported
    ge_rows = [r for r in comparison.rows if r.component == "ge_total" and r.theta == 1.0]
    for row in ge_rows:
        assert row.error == pytest.approx(row.estimate - row.truth)


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
                country_family="ln",
                region_family="ln",
                leaf_family="ln",
            )
            data = generate(spec)
            fitted = g.fit_hierarchy(data.root, McmcConfig(iterations=1200, burnin=300, seed=seed))
            for theta in thetas:
                truth = data.multilevel_truth(theta)
                report = assemble(fitted, theta, "proposed")
                per_seed.append(abs(report.ge_total - truth.ge_total) / truth.ge_total)
        errors[s] = np.mean(per_seed)
    assert errors[0] > errors[1] > errors[2]
