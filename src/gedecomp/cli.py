"""Command-line interface.

Subcommands: fit one unit, decompose microdata, run the multilevel
pipeline from a manifest, simulate a synthetic hierarchy, compare the three
estimation methods on synthetic data, and emit parameter-sensitivity
surfaces.  Failures exit nonzero with a structured JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dataio, pipeline, sim
from .grouped import McmcConfig, fit, posterior_ge, posterior_mean_income
from .inequality import decompose_finite, ge_finite

DEFAULT_THETAS = (-1.0, 0.0, 1.0, 2.0)


def _theta_list(args) -> tuple[float, ...]:
    return tuple(args.theta) if args.theta else DEFAULT_THETAS


def _theta_tag(theta: float) -> str:
    return f"{theta:g}".replace("-", "m").replace(".", "p")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_mcmc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iters", type=int, default=10_000, help="MCMC iterations (default 10000)")
    parser.add_argument("--burnin", type=int, default=2_000, help="burn-in iterations (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--no-adapt", action="store_true", help="disable burn-in proposal adaptation")


def _mcmc_from_args(args) -> McmcConfig:
    return McmcConfig(iterations=args.iters, burnin=args.burnin, adapt=not args.no_adapt, seed=args.seed)


def _phi_from_args(args):
    spec = args.phi
    if spec in ("uniform", "raking"):
        return spec, spec
    if spec.startswith("file:"):
        return spec, dataio.load_phi_csv(spec[len("file:"):])
    raise ValueError(f"--phi must be uniform, raking, or file:PATH (got {spec!r})")


def _summary_dict(summary) -> dict:
    return {
        "value": summary.value,
        "sd": summary.sd,
        "n_draws": summary.n_draws,
        "n_excluded": summary.n_excluded,
        "unreliable": summary.unreliable,
    }


def cmd_fit(args) -> int:
    sample = dataio.parse_grouped_csv(args.data, scale=args.scale_counts)
    draws = fit(args.family, sample, _mcmc_from_args(args))
    means = draws.param_means()
    sds = draws.param_sds()
    doc = {
        "family": draws.family,
        "unit": draws.unit,
        "iterations": draws.config.iterations,
        "burnin": draws.config.burnin,
        "seed": draws.config.seed,
        "acceptance_rate": draws.acceptance_rate,
        "posterior_mean": {name: float(means[i]) for i, name in enumerate(draws.param_names)},
        "posterior_sd": {name: float(sds[i]) for i, name in enumerate(draws.param_names)},
        "mean_income": _summary_dict(posterior_mean_income(draws)),
        "ge": {f"{theta:g}": _summary_dict(posterior_ge(draws, theta)) for theta in _theta_list(args)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        out = _out_dir(args) / f"fit_{draws.unit}_{draws.family}.json"
        out.write_text(text + "\n")
        print(out)
    else:
        print(text)
    return 0


def _read_microdata(path):
    incomes, groups, subgroups = [], [], []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[0].strip().lower() != "income":
            raise dataio.CsvFormatError(f"{path}: expected header starting with 'income'")
        has_group = len(header) > 1
        has_sub = len(header) > 2
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            incomes.append(float(row[0]))
            if has_group:
                groups.append(row[1])
            if has_sub:
                subgroups.append(row[2])
    return (
        np.array(incomes),
        np.array(groups) if groups else None,
        np.array(subgroups) if subgroups else None,
    )


def cmd_decompose(args) -> int:
    incomes, groups, subgroups = _read_microdata(args.data)
    doc: dict = {"n": int(len(incomes)), "theta": {}}
    for theta in _theta_list(args):
        entry: dict = {"ge_total": ge_finite(incomes, theta)}
        if groups is not None:
            top = decompose_finite(incomes, groups, theta)
            entry["within"] = top.within
            entry["between"] = top.between
            entry["groups"] = {
                str(t.label): {"ge": t.ge, "share": t.share, "income_share": t.income_share, "weight": t.weight}
                for t in top.groups
            }
            if subgroups is not None:
                nested = {}
                for t in top.groups:
                    mask = groups == t.label
                    sub = decompose_finite(incomes[mask], subgroups[mask], theta)
                    nested[str(t.label)] = {"within": sub.within, "between": sub.between}
                entry["subgroups"] = nested
        doc["theta"][f"{theta:g}"] = entry
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        out = _out_dir(args) / "decomposition.json"
        out.write_text(text + "\n")
        print(out)
    else:
        print(text)
    return 0


def cmd_pipeline(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    base = manifest.mcmc
    mcmc = McmcConfig(
        iterations=args.iters if args.iters is not None else base.iterations,
        burnin=args.burnin if args.burnin is not None else base.burnin,
        step_sizes=base.step_sizes,
        adapt=base.adapt,
        seed=args.seed if args.seed is not None else base.seed,
    )
    thetas = tuple(args.theta) if args.theta else manifest.thetas
    if args.phi is not None:
        _, phi = _phi_from_args(args)
    else:
        phi = manifest.phi_policy()

    fitted = pipeline.fit_hierarchy(manifest.root, mcmc, levels=pipeline.METHODS[args.method])
    out = _out_dir(args)
    for theta in thetas:
        report = pipeline.assemble(fitted, theta, args.method, phi)
        tag = _theta_tag(theta)
        dataio.save_report(out / f"report_theta_{tag}.json", report)
        dataio.write_region_csv(out / f"regions_theta_{tag}.csv", report)
        dataio.write_subregion_csv(out / f"subregions_theta_{tag}.csv", report)
        print(dataio.render_table(report))
        print()
    return 0


def cmd_simulate(args) -> int:
    spec = dataio.load_synthetic_spec(args.spec)
    data = sim.generate(spec)
    out = _out_dir(args)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    node_files = {}
    for node in data.root.walk():
        rel = f"data/{node.id}.csv"
        dataio.write_grouped_csv(out / rel, data.samples[node.id])
        node_files[node.id] = rel
    manifest = dataio.Manifest(
        root=data.root,
        thetas=tuple(args.theta) if args.theta else DEFAULT_THETAS,
        phi="uniform",
        phi_values=None,
        mcmc=McmcConfig(seed=spec.seed),
        scale_counts=1.0,
        node_files=node_files,
    )
    dataio.write_manifest(out / "manifest.json", manifest)
    truth_doc = {}
    for theta in manifest.thetas:
        truth = data.multilevel_truth(theta)
        truth_doc[f"{theta:g}"] = {
            "ge_total": truth.ge_total,
            "between": truth.between,
            "sum_weighted_between_sub": truth.sum_weighted_between_sub,
            "sum_weighted_within_sub": truth.sum_weighted_within_sub,
            "region_ge": truth.region_ge,
            "leaf_ge": truth.leaf_ge,
        }
    (out / "truth.json").write_text(json.dumps(truth_doc, indent=2, sort_keys=True) + "\n")
    print(out / "manifest.json")
    return 0


def cmd_compare(args) -> int:
    spec = dataio.load_synthetic_spec(args.spec)
    comparison = sim.compare_methods(spec, _theta_list(args), _mcmc_from_args(args))
    out = _out_dir(args)
    dataio.write_comparison_csv(out / "comparison.csv", comparison)
    for theta in _theta_list(args):
        print(dataio.render_comparison(comparison, theta))
        print()
    return 0


def cmd_surface(args) -> int:
    a_values = np.linspace(args.a_min, args.a_max, args.a_num)
    q_values = np.linspace(args.q_min, args.q_max, args.q_num)
    surfaces = pipeline.ge_surface("sm", a_values, q_values, args.b, _theta_list(args))
    out = _out_dir(args)
    path = out / "surface.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta", "a", "q", "ge"])
        for surface in surfaces:
            for i, qv in enumerate(surface.q_values):
                for j, av in enumerate(surface.a_values):
                    value = surface.values[i, j]
                    writer.writerow(
                        [repr(surface.theta), repr(float(av)), repr(float(qv)),
                         "" if math.isnan(value) else repr(float(value))]
                    )
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gedecomp",
        description="Generalized-entropy inequality from grouped income data, "
        "with benchmark-consistent multilevel decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one unit's grouped counts")
    p_fit.add_argument("--family", required=True, choices=("gb2", "sm", "ln"))
    p_fit.add_argument("--data", required=True, help="grouped-count CSV (lower,upper,count)")
    p_fit.add_argument("--scale-counts", type=float, default=1.0)
    p_fit.add_argument("--theta", type=float, action="append")
    p_fit.add_argument("--out", help="output directory (default: print JSON)")
    _add_mcmc_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_dec = sub.add_parser("decompose", help="finite-population decomposition of microdata")
    p_dec.add_argument("--data", required=True, help="CSV with columns income[,group[,subgroup]]")
    p_dec.add_argument("--theta", type=float, action="append")
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    p_pipe = sub.add_parser("pipeline", help="multilevel decomposition from a manifest")
    p_pipe.add_argument("--manifest", required=True)
    p_pipe.add_argument("--method", choices=tuple(pipeline.METHODS), default="proposed")
    p_pipe.add_argument("--theta", type=float, action="append", help="override manifest theta list")
    p_pipe.add_argument("--phi", help="uniform, raking, or file:PATH (override manifest)")
    p_pipe.add_argument("--iters", type=int)
    p_pipe.add_argument("--burnin", type=int)
    p_pipe.add_argument("--seed", type=int)
    p_pipe.add_argument("--out", required=True)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_sim = sub.add_parser("simulate", help="generate a synthetic hierarchy with truth")
    p_sim.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_sim.add_argument("--theta", type=float, action="append")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="proposed vs separate vs mixture on synthetic data")
    p_cmp.add_argument("--spec", required=True)
    p_cmp.add_argument("--theta", type=float, action="append")
    p_cmp.add_argument("--out", required=True)
    _add_mcmc_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_surf = sub.add_parser("surface", help="GE over an (a, q) parameter grid")
    p_surf.add_argument("--family", choices=("sm",), default="sm")
    p_surf.add_argument("--b", type=float, default=3.0)
    p_surf.add_argument("--a-min", type=float, default=1.5)
    p_surf.add_argument("--a-max", type=float, default=4.0)
    p_surf.add_argument("--a-num", type=int, default=26)
    p_surf.add_argument("--q-min", type=float, default=1.5)
    p_surf.add_argument("--q-max", type=float, default=4.0)
    p_surf.add_argument("--q-num", type=int, default=26)
    p_surf.add_argument("--theta", type=float, action="append")
    p_surf.add_argument("--out", required=True)
    p_surf.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured failure report, nonzero exit
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
