"""Self-tests of the benchmark harness: output checks, tracing, and a tiny run
of every workload through the launcher."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gedecomp
import gedecomp.cli  # noqa: F401  (the workloads use gedecomp.cli.main)
import specs
import workloads
import worker
from calibrate import REFERENCE_LOAD_S, cpu_per_load
from layers import layer_metrics
from tracing import Tracer, summarise

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every per-layer metric the benchmark names
NAMED_LAYER_METRICS = [
    "distributions.cdf.gb2.us", "distributions.cdf.sm.us", "distributions.cdf.ln.us",
    "distributions.cdf.calls", "distributions.cdf.points_per_call",
    "distributions.ge_over_draws.s", "distributions.mean_over_draws.s",
    "grouped.fit.calls", "grouped.fit.s", "grouped.fit.self_s",
    "grouped.iter_us.gb2", "grouped.iter_us.sm", "grouped.iter_us.ln",
    "grouped.log_likelihood.calls", "grouped.log_likelihood.us", "grouped.ll_per_iter", "grouped.accept_rate",
    "grouped.posterior_ge.s", "grouped.posterior_mean_income.s",
    "pipeline.fit_hierarchy.s", "pipeline.assemble.calls", "pipeline.assemble.s",
    "pipeline.ge_surface.s", "pipeline.ge_surface.cells_per_s",
    "inequality.decompose_finite.calls", "inequality.decompose_finite.s",
    "inequality.decompose_finite.incomes_per_s", "inequality.between_from_means.s",
    "benchmark.solve.calls", "benchmark.solve.s", "sim.generate.s", "sim.multilevel_truth.s",
    "dataio.load_manifest.s", "dataio.save_report.s", "dataio.write_csv.s", "dataio.bytes_written",
    "cli.main.self_s", "trace.overhead_s",
]
NAMED_END_TO_END = ["setup_s", "setup_wall_s", "op_p50_ref_s", "op_p50_s", "op_cpu_p50_s", "reference_load_ms",
                    "op_tail_s", "ess_per_s", "ess_theil", "truth_rel_err", "failed_frac", "peak_rss_mb"]


# -- output checks ---------------------------------------------------------

def test_national_check_flags_theil_outside_band():
    good = {-1.0: 0.3, 0.0: 0.27, 1.0: 0.245, 2.0: 0.4}
    assert workloads.National.check("gb2", good, 5.0) == []
    assert workloads.National.check("gb2", {**good, 1.0: 0.26}, 5.0)
    assert workloads.National.check("gb2", {**good, 0.0: 0.29}, 5.0)
    assert workloads.National.check("ln", {**good, 2.0: math.nan}, 5.0)
    assert workloads.National.check("sm", good, math.inf)


class _WrongTheil:
    """gedecomp with posterior_ge shifted by 0.05 at theta = 1."""

    def __init__(self, gd):
        self._gd = gd

    def __getattr__(self, name):
        return getattr(self._gd, name)

    def posterior_ge(self, draws, theta):
        summary = self._gd.posterior_ge(draws, theta)
        return replace(summary, value=summary.value + 0.05) if theta == 1.0 else summary


def test_injected_wrong_output_is_counted_as_failed(tmp_path):
    workload = workloads.National(_WrongTheil(gedecomp), 1, tmp_path, "tiny")
    workload.setup()
    results = worker.op_loop(workload, 0, 0.0, 3)  # gb2, sm, ln
    assert [bool(r.failures) for r in results] == [True, False, False]
    assert "Theil" in results[0].failures[0]


def test_op_loop_scales_cpu_time_by_the_reference_load(tmp_path, monkeypatch):
    workload = workloads.National(gedecomp, 1, tmp_path, "tiny")
    workload.setup()
    speeds = iter([0.002, 0.004, 0.001])  # seconds per load before op 0, after op 0, after op 1
    monkeypatch.setattr(worker, "cpu_per_load", lambda loads: next(speeds))
    results = worker.op_loop(workload, 0, 0.0, 2)
    assert [r.load_cpu_s for r in results] == [0.004, 0.001]
    assert results[0].ref_s == pytest.approx(results[0].cpu_s * REFERENCE_LOAD_S / 0.003)
    assert results[1].ref_s == pytest.approx(results[1].cpu_s * REFERENCE_LOAD_S / 0.0025)
    assert 0 < results[0].cpu_s < 10


def test_reference_load_takes_cpu_time():
    assert 0 < cpu_per_load(2) < 1


def test_op_that_raises_is_counted_as_failed(tmp_path):
    workload = workloads.National(gedecomp, 1, tmp_path, "tiny")
    workload.setup()
    workload.sample = None
    result = worker.run_op(workload, 0)
    assert result.failures and math.isnan(result.wall_s)


def _report(gap: float, value: float = 0.3):
    row = gedecomp.pipeline.SubregionRow(id="a", region="r", share=1.0, mean_income=1.0, income_share=1.0,
                                         weight=1.0, ge_bayes=value, ge_bayes_sd=None, excluded_draws=0,
                                         ge_cb=value, negative=False)
    return gedecomp.DecompositionReport(
        method="proposed", theta=1.0, phi_policy="uniform", seed=0, iterations=10, burnin=1,
        ge_total=0.5 + gap, ge_total_sd=None, between=0.1, sum_weighted_between_sub=0.1,
        sum_weighted_within_sub=0.3, residual_region=0.0, residual_subregion=0.0,
        regions=(), subregions=(row,), flags=())


def test_wide_tree_check_flags_identity_gap_and_nonfinite_rows():
    thetas = workloads.GE_THETAS
    good = [replace(_report(0.0), theta=t) for t in thetas]
    assert workloads.WideTree.check(good) == []
    assert workloads.WideTree.check(good[:-1] + [replace(_report(1e-9), theta=thetas[-1])])
    assert workloads.WideTree.check(good[:-1] + [replace(_report(0.0, math.nan), theta=thetas[-1])])
    assert workloads.WideTree.check(good[:-1])


def test_sensitivity_checks_flag_broken_outputs():
    rows = []
    for method in ("proposed", "separate", "mixture"):
        for theta in workloads.SENSITIVITY_THETAS:
            for component, value in (("ge_total", 0.5), ("between", 0.1), ("residual_region", 0.0),
                                     ("sum_weighted_between_sub", 0.1), ("sum_weighted_within_sub", 0.3),
                                     ("residual_subregion", 0.0)):
                rows.append({"method": method, "theta": repr(theta), "component": component,
                             "estimate": repr(value)})
    assert workloads.Sensitivity.check_comparison(rows) == []
    rows[0] = {**rows[0], "estimate": repr(0.5 + 1e-9)}
    assert workloads.Sensitivity.check_comparison(rows)

    grid, b = 3, workloads.SURFACE_B
    surface = [{"theta": repr(t), "a": repr(a), "q": repr(q), "ge": repr(gedecomp.SM(a, b, q).ge(t))}
               for t in workloads.SENSITIVITY_THETAS for q in (1.5, 2.0, 4.0) for a in (1.5, 2.0, 4.0)]
    rng = np.random.default_rng(0)
    assert workloads.Sensitivity.check_surface(gedecomp, surface, grid, rng) == []
    wrong = [{**row, "ge": repr(float(row["ge"]) * (1.0 + 1e-9))} for row in surface]
    assert workloads.Sensitivity.check_surface(gedecomp, wrong, grid, rng)
    assert workloads.Sensitivity.check_surface(gedecomp, surface[:-1], grid, rng)


def test_theil_per_draw_matches_the_library():
    for family, params in (("gb2", gedecomp.GB2(2.1, 6.2, 0.84, 1.9)), ("sm", gedecomp.SM(3.0, 4.0, 1.5)),
                           ("ln", gedecomp.LN(1.0, 0.4))):
        names = type(params).param_names
        value = workloads.theil_per_draw(names, params.to_vector()[None, :])[0]
        assert value == pytest.approx(params.ge(1.0), rel=1e-12)
    assert workloads.theil_per_draw(("a", "b", "q"), np.array([[0.5, 1.0, 1.5]]))[0] == np.inf


# -- tracing ---------------------------------------------------------------

def test_tracer_restores_every_binding_and_reports_absent_layers(tmp_path, monkeypatch):
    before = (gedecomp.fit, gedecomp.grouped.log_likelihood, gedecomp.GB2.cdf, gedecomp.pipeline.fit_hierarchy)
    monkeypatch.delattr(gedecomp.pipeline, "ge_surface")
    tracer = Tracer(gedecomp).install()
    try:
        assert gedecomp.fit is not before[0] and gedecomp.grouped.fit is gedecomp.fit
        workload = workloads.National(gedecomp, 1, tmp_path, "tiny")
        workload.setup()
        tracer.op = 0
        result = workload.op(0)
    finally:
        tracer.uninstall()
    assert (gedecomp.fit, gedecomp.grouped.log_likelihood, gedecomp.GB2.cdf,
            gedecomp.pipeline.fit_hierarchy) == before
    assert any(a.startswith("pipeline.ge_surface ") for a in tracer.absent)
    trace = summarise(tracer.spans, tracer.counted, [result.wall_s])
    trace.update(absent=tracer.absent, op_p50_s=result.wall_s, op_p50_ref_s=result.cpu_s,
                 untraced_op_p50_ref_s=result.cpu_s)
    metrics = layer_metrics(trace)
    assert metrics["pipeline.ge_surface.s"]["note"].startswith("absent")
    assert metrics["grouped.fit.calls"]["value"] == 1
    assert metrics["distributions.cdf.points_per_call"]["value"] == len(specs.NATIONAL_REL_FREQ) - 1
    assert metrics["grouped.ll_per_iter"]["value"] == pytest.approx(1.0, abs=0.01)
    assert sum(trace["self_share_pct"].values()) == pytest.approx(100.0, abs=1e-6)


# -- tiny end-to-end runs through the launcher -----------------------------

def _run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["national", "wide-tree", "sensitivity"])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]) and got["value"] != 0
    printed = {line.split()[0]: line for line in lines[:-1]}
    for name in NAMED_END_TO_END:
        assert name in printed, name


@pytest.mark.parametrize("workload", ["national", "wide-tree", "sensitivity"])
def test_tiny_traced_run_emits_every_layer_metric(workload):
    lines = _run(workload, 1)
    result = json.loads(lines[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    printed = {line.split()[0]: line for line in lines[:-1]}
    for name in NAMED_LAYER_METRICS:
        assert name in printed, name
        line = printed[name]
        value = float(line.split()[1])
        assert value != 0 or "not exercised" in line or "absent" in line or name == "trace.overhead_s", line
    assert any(line.startswith("self-time share") for line in lines)
