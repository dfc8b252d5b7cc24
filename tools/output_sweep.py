"""Write the output of every gedecomp command for fixed inputs.

Usage: python tools/output_sweep.py OUT

Runs ``fit`` (gb2, sm, ln at 800/200 and again at the library default
10,000/2,000, whose 8,000 proposals span several log density blocks, and gb2
on a table where no draw has a mean, so every summary is written as null),
``decompose`` (income only, with groups, with
groups and subgroups, and with a weight column before the group and
subgroup columns, which the labels are read past by name), ``simulate``, ``compare`` (and ``compare`` with gb2 at
every level, so that all ten nodes are one gb2 batch, most of them on the
lockstep fallback walk), ``pipeline`` (proposed,
separate, mixture, and proposed with raking and with a phi file's loss
weights, given by ``--phi`` and, as ``pipeline_manifest_phi``, by the
manifest's own ``"phi"``, resolved against the manifest's directory) and
``surface`` (on a grid with masked cells) on inputs the script writes
itself, with the code of this checkout's ``src/``.  Each run writes its files under
``OUT/<run>/`` and its standard output to
``OUT/<run>.stdout``; every path is relative to OUT, so the tree does not
depend on where OUT is.  The outputs of two checkouts are byte-identical
exactly when ``diff -r OUT_A OUT_B`` prints nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gedecomp.cli import main  # noqa: E402

# distinct output keys; 1e-9 lies inside the limit window of theta = 0, and 0.05
# and 0.95 are generic thetas near 0 and 1 (the near-limit increment forms)
THETA_ARGS = [arg for theta in (-1.0, 0.0, 1e-9, 0.05, 0.5, 0.95, 1.0, 2.0) for arg in ("--theta", repr(theta))]
SHORT_CHAIN = ["--iters", "800", "--burnin", "200"]

# the 2013 national bracket table (millions of yen) at 2,000 households
NATIONAL_BOUNDARIES = ("0", "1", "2", "3", "4", "5", "7", "10", "15", "20", "inf")
NATIONAL_COUNTS = (136, 278, 356, 314, 252, 318, 220, 94, 18, 12)

# every count below 1 or above 5: no gb2 draw of this table has a mean
UNDEFINED_TABLE = "lower,upper,count\n0,1,30\n1,2,0\n2,3,0\n3,4,0\n4,5,0\n5,inf,30\n"

SPEC = {
    "seed": 7,
    "sampling_fraction": 0.2,
    "brackets": 8,
    "fit_families": {"country": "gb2", "region": "sm", "subregion": "ln"},
    "regions": [
        {"id": "r1", "leaves": [
            {"id": "r1a", "population": 4000, "params": {"family": "sm", "a": 2.2, "b": 4.0, "q": 1.8}},
            {"id": "r1b", "population": 3000, "params": {"family": "ln", "xi": 1.2, "sigma2": 0.4}},
        ]},
        {"id": "r2", "leaves": [
            {"id": "r2a", "population": 3500, "params": {"family": "gb2", "a": 2.5, "b": 5.0, "p": 1.2, "q": 1.6}},
            {"id": "r2b", "population": 2500, "params": {"family": "sm", "a": 2.0, "b": 4.5, "q": 2.0}},
            {"id": "r2c", "population": 2000, "params": {"family": "ln", "xi": 1.5, "sigma2": 0.3}},
        ]},
        {"id": "r3", "leaves": [
            {"id": "r3a", "population": 5000, "params": {"family": "sm", "a": 2.8, "b": 3.5, "q": 1.5}},
        ]},
    ],
}


def write_inputs() -> None:
    Path("inputs").mkdir()
    Path("inputs/spec.json").write_text(json.dumps(SPEC, indent=2) + "\n")
    all_gb2 = {**SPEC, "fit_families": {level: "gb2" for level in SPEC["fit_families"]}}
    Path("inputs/spec_gb2.json").write_text(json.dumps(all_gb2, indent=2) + "\n")
    rows = ["lower,upper,count"]
    rows += [f"{lo},{hi},{n}" for lo, hi, n in zip(NATIONAL_BOUNDARIES, NATIONAL_BOUNDARIES[1:], NATIONAL_COUNTS)]
    Path("inputs/national.csv").write_text("\n".join(rows) + "\n")
    Path("inputs/undefined.csv").write_text(UNDEFINED_TABLE)
    # a distinct positive loss weight for every region and leaf: the nodes a pipeline step benchmarks
    children = [node["id"] for region in SPEC["regions"] for node in (region, *region["leaves"])]
    Path("inputs/phi.csv").write_text("id,phi\n" + "".join(f"{i},{0.5 + 0.25 * k}\n" for k, i in enumerate(children)))
    rng = np.random.default_rng(2013)
    micro = []
    for group, subgroups in (("a", ("a1", "a2")), ("b", ("b1",)), ("c", ("c1", "c2", "c3"))):
        for k, sub in enumerate(subgroups):
            for value in np.exp(rng.normal(1.0 + 0.2 * k, 0.5 + 0.1 * len(subgroups), 300)):
                micro.append((repr(float(value)), group, sub))
    for columns, name in ((1, "income"), (2, "grouped"), (3, "nested")):
        header = ",".join(("income", "group", "subgroup")[:columns])
        lines = [header] + [",".join(row[:columns]) for row in micro]
        Path(f"inputs/micro_{name}.csv").write_text("\n".join(lines) + "\n")
    # a weight column before the labels: grouped by name, the file decomposes as micro_nested.csv
    lines = ["income,weight,group,subgroup"] + [f"{income},{1 + k % 3},{group},{sub}"
                                                for k, (income, group, sub) in enumerate(micro)]
    Path("inputs/micro_weighted.csv").write_text("\n".join(lines) + "\n")


def write_own_phi_manifest() -> None:
    """simulate's manifest with phi file:phi.csv, a copy of inputs/phi.csv beside it, and data in simulate/."""
    doc = json.loads(Path("simulate/manifest.json").read_text())
    doc["phi"] = "file:phi.csv"
    for node in doc["nodes"]:
        node["data"] = f"../simulate/{node['data']}"
    Path("manifest_phi").mkdir()
    Path("manifest_phi/manifest.json").write_text(json.dumps(doc, indent=2) + "\n")
    Path("manifest_phi/phi.csv").write_text(Path("inputs/phi.csv").read_text())


def runs() -> list[tuple[str, list[str]]]:
    manifest = "simulate/manifest.json"
    return [
        *[(f"fit_{family}", ["fit", "--family", family, "--data", "inputs/national.csv", *SHORT_CHAIN,
                             "--seed", "3", "--out", f"fit_{family}", *THETA_ARGS])
          for family in ("gb2", "sm", "ln")],
        *[(f"fit_default_{family}", ["fit", "--family", family, "--data", "inputs/national.csv", "--seed", "3",
                                     "--out", f"fit_default_{family}", *THETA_ARGS])
          for family in ("gb2", "sm", "ln")],
        ("fit_undefined", ["fit", "--family", "gb2", "--data", "inputs/undefined.csv", "--iters", "400",
                           "--burnin", "100", "--out", "fit_undefined"]),
        *[(f"decompose_{name}", ["decompose", "--data", f"inputs/micro_{name}.csv", "--out", f"decompose_{name}",
                                 *THETA_ARGS])
          for name in ("income", "grouped", "nested", "weighted")],
        ("simulate", ["simulate", "--spec", "inputs/spec.json", "--out", "simulate", *THETA_ARGS]),
        ("compare", ["compare", "--spec", "inputs/spec.json", "--out", "compare", *SHORT_CHAIN, "--seed", "5",
                     *THETA_ARGS]),
        ("compare_gb2", ["compare", "--spec", "inputs/spec_gb2.json", "--out", "compare_gb2", *SHORT_CHAIN,
                         "--seed", "7", *THETA_ARGS]),
        *[(f"pipeline_{method}", ["pipeline", "--manifest", manifest, "--method", method, "--out", f"pipeline_{method}",
                                  *SHORT_CHAIN])
          for method in ("proposed", "separate", "mixture")],
        ("pipeline_raking", ["pipeline", "--manifest", manifest, "--phi", "raking", "--out", "pipeline_raking",
                             *SHORT_CHAIN]),
        ("pipeline_phi_file", ["pipeline", "--manifest", manifest, "--phi", "file:inputs/phi.csv",
                               "--out", "pipeline_phi_file", *SHORT_CHAIN]),
        # phi.csv is only in manifest_phi/, so it is found only relative to the manifest
        ("pipeline_manifest_phi", ["pipeline", "--manifest", "manifest_phi/manifest.json",
                                   "--out", "pipeline_manifest_phi", *SHORT_CHAIN]),
        # a grid reaching below a * q = 1, where the masked cells are empty fields
        ("surface", ["surface", "--a-min", "0.6", "--a-num", "7", "--q-min", "1.0", "--q-num", "5",
                     "--out", "surface", *THETA_ARGS]),
    ]


def sweep(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=False)
    os.chdir(out)
    write_inputs()
    for name, argv in runs():
        if name == "pipeline_manifest_phi":
            write_own_phi_manifest()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: gedecomp {' '.join(argv)} exited {code}\n{stderr.getvalue()}")
        Path(f"{name}.stdout").write_text(stdout.getvalue())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sweep(Path(sys.argv[1]).resolve())
