"""Metric definitions: end-to-end from the untraced run, per-layer from the trace.

``BENCHMARK.json`` lists the metrics the benchmark is judged on; the
functions here compute those and every other named metric, so the printed
report and ``.perfbench/results/`` also carry the ones a workload does not
exercise (marked with a note) and the ones that cannot be bounded (a tail
percentile that needs many ops, a failure fraction that is 0 when healthy).
"""

from __future__ import annotations

from calibrate import REFERENCE_LOAD_S

FAMILIES = ("gb2", "sm", "ln")


def _metric(value, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def end_to_end_metrics(raw: dict) -> dict:
    tail = raw.get("op_tail")
    metrics = {
        "setup_s": _metric(raw["setup_s"], "s", f"median of {len(raw['setup_s_all'])} set-ups; "
                           "CPU time at the reference machine speed"),
        "setup_wall_s": _metric(raw["setup_wall_s"], "s", "wall time, median of the same set-ups; not gated"),
        "op_p50_ref_s": _metric(raw["op_p50_ref_s"], "s",
                                f"n={len(raw['op_walls'])} ops; CPU time at the reference machine speed"),
        "op_p50_s": _metric(raw["op_p50_s"], "s", "wall time; not gated"),
        "op_cpu_p50_s": _metric(raw["op_cpu_p50_s"], "s", "CPU time; not gated"),
        "reference_load_ms": _metric(raw["load_cpu_ms"], "ms",
                                     f"CPU time of one reference load, {REFERENCE_LOAD_S * 1e3:g} ms on the "
                                     "reference machine; not gated"),
        "op_tail_s": _metric(tail["value"], "s", f"p{tail['percentile']:.1f}, n={tail['n']} ops") if tail
        else _metric(None, "s", f"needs >= 11 ops, had {len(raw['op_walls'])}"),
        "ess_per_s": _metric(raw["ess_per_s"], "1/s", "summed Theil bulk ESS over summed fit time"),
        "failed_frac": _metric(raw["failed"] / raw["attempted"], "1",
                               f"{raw['failed']} of {raw['attempted']} ops"),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
    }
    if "ess_theil" in raw:
        metrics["ess_theil"] = _metric(raw["ess_theil"], "draws",
                                       "fit-weighted geometric mean of the family means over the first ops")
        for family, value in raw["ess_theil_by_family"].items():
            metrics[f"ess_theil.{family}"] = _metric(value, "draws", f"mean over the {family} fits; not gated")
        metrics["truth_rel_err"] = _metric(raw["truth_rel_err"], "1", "mean over components and thetas")
    return metrics


def layer_metrics(trace: dict) -> dict:
    """Every named per-layer metric, per op unless the unit says otherwise."""
    names, counted, fit = trace["names"], trace["counted"], trace["fit"]
    absent = " ".join(trace["absent"])

    def note(layer: str, calls: float) -> str:
        if layer + " (" in absent:
            return "absent: a wrapped name no longer exists"
        return "" if calls else "not exercised on this workload"

    def span(name: str, key: str = "s") -> dict:
        entry = names.get(name, {})
        return _metric(entry.get(key, 0.0), "count/op" if key == "calls" else "s",
                       note(name, entry.get("calls", 0.0)))

    def rate(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m: dict = {}
    cdf_calls = cdf_points = 0.0
    for family in FAMILIES:
        c = counted.get(f"distributions.cdf.{family}", {"calls": 0.0, "s": 0.0, "points": 0.0})
        cdf_calls += c["calls"]
        cdf_points += c["points"]
        m[f"distributions.cdf.{family}.us"] = _metric(1e6 * rate(c["s"], c["calls"]), "us",
                                                      note(f"distributions.cdf.{family}", c["calls"]))
    m["distributions.cdf.calls"] = _metric(cdf_calls, "count/op", note("distributions.cdf.gb2", cdf_calls))
    m["distributions.cdf.points_per_call"] = _metric(rate(cdf_points, cdf_calls), "count",
                                                     note("distributions.cdf.gb2", cdf_calls))
    for name in ("distributions.ge_over_draws", "distributions.mean_over_draws", "grouped.posterior_ge",
                 "grouped.posterior_mean_income", "pipeline.fit_hierarchy", "pipeline.assemble",
                 "pipeline.ge_surface", "inequality.decompose_finite", "inequality.between_from_means",
                 "benchmark.solve", "sim.generate", "sim.multilevel_truth", "dataio.load_manifest",
                 "dataio.save_report", "dataio.write_csv"):
        m[f"{name}.s"] = span(name)
    for name in ("grouped.fit", "pipeline.assemble", "inequality.decompose_finite", "benchmark.solve"):
        m[f"{name}.calls"] = span(name, "calls")
    m["grouped.fit.s"] = span("grouped.fit")
    m["grouped.fit.self_s"] = span("grouped.fit", "self_s")
    m["cli.main.self_s"] = span("cli.main", "self_s")

    iterations = sum(fit["iterations"].values())
    for family in FAMILIES:
        m[f"grouped.iter_us.{family}"] = _metric(
            1e6 * rate(fit["seconds"].get(family, 0.0), fit["iterations"].get(family, 0)), "us",
            note("grouped.fit", fit["iterations"].get(family, 0)))
    ll = counted.get("grouped.log_likelihood", {"calls": 0.0, "s": 0.0})
    m["grouped.log_likelihood.calls"] = _metric(ll["calls"], "count/op", note("grouped.log_likelihood", ll["calls"]))
    m["grouped.log_likelihood.us"] = _metric(1e6 * rate(ll["s"], ll["calls"]), "us",
                                             note("grouped.log_likelihood", ll["calls"]))
    m["grouped.ll_per_iter"] = _metric(rate(ll["calls"] * trace["n_ops"], iterations), "1",
                                       "likelihood calls per MH proposal")
    m["grouped.accept_rate"] = _metric(rate(sum(fit["accept"]), len(fit["accept"])), "1",
                                       "mean post-burn-in acceptance")

    surface = names.get("pipeline.ge_surface", {})
    m["pipeline.ge_surface.cells_per_s"] = _metric(rate(surface.get("cells", 0.0), surface.get("s", 0.0)), "1/s",
                                                   note("pipeline.ge_surface", surface.get("calls", 0.0)))
    decompose = names.get("inequality.decompose_finite", {})
    m["inequality.decompose_finite.incomes_per_s"] = _metric(
        rate(decompose.get("incomes", 0.0), decompose.get("s", 0.0)), "1/s",
        note("inequality.decompose_finite", decompose.get("calls", 0.0)))
    writers = [names.get(name, {}) for name in ("dataio.save_report", "dataio.write_csv")]
    m["dataio.bytes_written"] = _metric(sum(w.get("bytes", 0.0) for w in writers), "bytes/op",
                                        note("dataio.write_csv", sum(w.get("calls", 0.0) for w in writers)))

    for module, share in trace["self_share_pct"].items():
        m[f"share.{module}"] = _metric(share, "%", "self time over traced op time")
    m["trace.op_p50_s"] = _metric(trace["op_p50_s"], "s", f"n={trace['n_ops']} traced ops")
    m["trace.overhead_s"] = _metric(trace["op_p50_ref_s"] - trace["untraced_op_p50_ref_s"], "s",
                                    "traced minus untraced op_p50_ref_s in the same run")
    return m
