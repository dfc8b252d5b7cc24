"""Command-line interface.

Subcommands: fit one unit, decompose microdata, run the multilevel
pipeline from a manifest, simulate a synthetic hierarchy, compare the three
estimation methods on synthetic data, and emit parameter-sensitivity
surfaces.  Failures exit nonzero with a structured JSON error on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, pipeline, sim
from .distributions import FAMILIES, theta_kind
from .grouped import McmcConfig, fit, posterior_ge, posterior_mean_income
from .inequality import _decompose_two_levels, _node_ge, _split_by_label


def _theta_key(theta: float) -> str:
    """The key of theta in output documents; file names use _theta_tag."""
    return f"{theta:g}"


def _theta_list(args, default=dataio.DEFAULT_THETAS) -> tuple[float, ...]:
    """The thetas to run, each finite and each with its own key, so no output replaces another."""
    thetas = tuple(args.theta) if args.theta else default
    seen: dict[str, float] = {}
    for theta in thetas:
        theta_kind(theta)  # rejects a non-finite theta
        key = _theta_key(theta)
        if key in seen:
            raise ValueError(f"thetas {seen[key]!r} and {theta!r} share the output key {key!r}")
        seen[key] = theta
    return thetas


def _theta_tag(theta: float) -> str:
    return _theta_key(theta).replace("-", "m").replace(".", "p")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_mcmc_flags(parser: argparse.ArgumentParser) -> None:
    default = McmcConfig()
    note = "(default {}; pipeline takes the manifest's)".format
    parser.add_argument("--iters", type=int,
                        help=f"MCMC iterations; iters - burnin draws are kept {note(default.iterations)}")
    parser.add_argument("--burnin", type=int,
                        help="burn-in iterations: iters - burnin is the number of Laplace proposals, and "
                        "the fixed-kernel random-walk fallback, started at the mode, discards its first "
                        f"burnin iterations {note(default.burnin)}")
    parser.add_argument("--seed", type=int, help=f"master random seed {note(default.seed)}")


def _mcmc_from_args(args, base=McmcConfig()) -> McmcConfig:
    """base with the MCMC flags that were given."""
    given = {"iterations": args.iters, "burnin": args.burnin, "seed": args.seed}
    return dataclasses.replace(base, **{name: value for name, value in given.items() if value is not None})


def _write_or_print(args, name: str, doc: dict) -> None:
    """Write doc as JSON to name under --out and print that path, or print the JSON."""
    if args.out:
        path = _out_dir(args) / name
        dataio.write_json(path, doc)
        print(path)
    else:
        print(dataio.json_text(doc), end="")


def _summary_dict(summary) -> dict:
    return {**dataclasses.asdict(summary), "unreliable": summary.unreliable}


def cmd_fit(args) -> int:
    thetas = _theta_list(args)
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
        "sampler": draws.sampler,
        "pareto_k": draws.pareto_k,
        "posterior_mean": {name: float(means[i]) for i, name in enumerate(draws.param_names)},
        "posterior_sd": {name: float(sds[i]) for i, name in enumerate(draws.param_names)},
        "mean_income": _summary_dict(posterior_mean_income(draws)),
        "ge": {_theta_key(theta): _summary_dict(posterior_ge(draws, theta)) for theta in thetas},
    }
    _write_or_print(args, f"fit_{draws.unit}_{draws.family}.json", doc)
    return 0


def cmd_decompose(args) -> int:
    thetas = _theta_list(args)
    incomes, groups, subgroups = dataio.read_microdata(args.data)
    # the grouping does not depend on theta: split the rows once, and take each node's ratios once for all thetas
    if groups is not None:
        labels, parts = _split_by_label(groups, incomes)
        nested = []
    if subgroups is not None:  # a subgroup column comes with a group column
        _, sub_columns = _split_by_label(groups, subgroups)
        nested = [_split_by_label(sub, part) for sub, part in zip(sub_columns, parts)]
    per_theta = (_node_ge(incomes, thetas)[2] if groups is None
                 else _decompose_two_levels(incomes, labels, parts, nested, thetas))
    doc: dict = {"n": int(len(incomes)), "theta": {}}
    for theta, result in zip(thetas, per_theta):
        if groups is None:
            entry: dict = {"ge_total": result}
        else:
            top, subs = result
            entry = {"ge_total": top.total, "within": top.within, "between": top.between}
            entry["groups"] = {
                str(t.label): {"ge": t.ge, "share": t.share, "income_share": t.income_share, "weight": t.weight}
                for t in top.groups
            }
            if subgroups is not None:
                entry["subgroups"] = {
                    str(t.label): {"within": sub.within, "between": sub.between} for t, sub in zip(top.groups, subs)
                }
        doc["theta"][_theta_key(theta)] = entry
    _write_or_print(args, "decomposition.json", doc)
    return 0


def cmd_pipeline(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    mcmc = _mcmc_from_args(args, manifest.mcmc)
    thetas = _theta_list(args, manifest.thetas)
    phi = manifest.phi
    if args.phi is not None:  # overrides the manifest; a file path is relative to the working directory
        phi = dataio.resolve_phi(args.phi, Path(), manifest.root)

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


_TRUTH_FIELDS = ("ge_total", "between", "sum_weighted_between_sub", "sum_weighted_within_sub", "region_ge", "leaf_ge")


def cmd_simulate(args) -> int:
    spec = dataio.load_synthetic_spec(args.spec)
    data = sim.generate(spec)
    thetas = _theta_list(args)
    out = Path(args.out)
    dataio.write_hierarchy(out, data.root, thetas, McmcConfig(seed=spec.seed))
    truth_doc = {_theta_key(truth.theta): {name: getattr(truth, name) for name in _TRUTH_FIELDS}
                 for truth in data.multilevel_truth(thetas)}
    dataio.write_json(out / "truth.json", truth_doc)
    print(out / "manifest.json")
    return 0


def cmd_compare(args) -> int:
    thetas = _theta_list(args)
    spec = dataio.load_synthetic_spec(args.spec)
    comparison = sim.compare_methods(spec, thetas, _mcmc_from_args(args))
    out = _out_dir(args)
    dataio.write_comparison_csv(out / "comparison.csv", comparison)
    for theta in thetas:
        print(dataio.render_comparison(comparison, theta))
        print()
    return 0


def cmd_surface(args) -> int:
    for flag, count in (("--a-num", args.a_num), ("--q-num", args.q_num)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    a_values = np.linspace(args.a_min, args.a_max, args.a_num)
    q_values = np.linspace(args.q_min, args.q_max, args.q_num)
    surfaces = pipeline.ge_surface(a_values, q_values, args.b, _theta_list(args))
    path = _out_dir(args) / "surface.csv"
    dataio.write_surface_csv(path, surfaces)
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
    p_fit.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_fit.add_argument("--data", required=True, help="grouped-count CSV (lower,upper,count)")
    p_fit.add_argument("--scale-counts", type=float, default=1.0)
    p_fit.add_argument("--theta", type=float, action="append")
    p_fit.add_argument("--out", help="output directory (default: print JSON)")
    _add_mcmc_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_dec = sub.add_parser("decompose", help="finite-population decomposition of microdata")
    p_dec.add_argument("--data", required=True,
                       help="CSV whose header starts with income; the columns named group and subgroup "
                            "give the labels, and other columns are ignored")
    p_dec.add_argument("--theta", type=float, action="append")
    p_dec.add_argument("--out")
    p_dec.set_defaults(func=cmd_decompose)

    p_pipe = sub.add_parser("pipeline", help="multilevel decomposition from a manifest")
    p_pipe.add_argument("--manifest", required=True)
    p_pipe.add_argument("--method", choices=tuple(pipeline.METHODS), default="proposed")
    p_pipe.add_argument("--theta", type=float, action="append", help="override manifest theta list")
    p_pipe.add_argument("--phi", help=f"{', '.join(pipeline.PHI_POLICIES)}, or file:PATH (override manifest)")
    p_pipe.add_argument("--out", required=True)
    _add_mcmc_flags(p_pipe)
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
