"""Command-line surface: every subcommand end to end on small inputs."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gedecomp import dataio
from gedecomp.cli import main
from gedecomp.inequality import decompose_finite, ge_finite

SPEC_DOC = {
    "seed": 11,
    "sampling_fraction": 0.4,
    "brackets": 8,
    "fit_families": {"country": "gb2", "region": "sm", "subregion": "ln"},
    "regions": [
        {"id": "r1", "leaves": [
            {"id": "m1", "population": 2000, "params": {"family": "sm", "a": 2.2, "b": 4.0, "q": 1.8}},
            {"id": "m2", "population": 1500, "params": {"family": "ln", "xi": 1.2, "sigma2": 0.4}},
        ]},
        {"id": "r2", "leaves": [
            {"id": "m3", "population": 2500, "params": {"family": "sm", "a": 2.0, "b": 4.5, "q": 2.0}},
        ]},
    ],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    return path


def test_fit_command_prints_posterior_json(tmp_path, capsys):
    csv_path = tmp_path / "unit.csv"
    csv_path.write_text(
        "lower,upper,count\n0,1,10\n1,2,25\n2,3,30\n3,5,20\n5,8,10\n8,inf,5\n"
    )
    code = main([
        "fit", "--family", "ln", "--data", str(csv_path),
        "--iters", "600", "--burnin", "150", "--seed", "4", "--theta", "0", "--theta", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert set(doc["posterior_mean"]) == {"xi", "sigma2"}
    assert doc["ge"]["0"]["value"] > 0.0
    assert 0.0 < doc["acceptance_rate"] < 1.0
    assert doc["sampler"] == "laplace" and doc["pareto_k"] <= 0.7


def test_fit_command_writes_an_undefined_summary_as_null(tmp_path, capsys):
    # no gb2 draw of this table has a mean, so every summary excludes all 300 draws
    csv_path = tmp_path / "undefined.csv"
    csv_path.write_text("lower,upper,count\n0,1,30\n1,2,0\n2,3,0\n3,4,0\n4,5,0\n5,inf,30\n")

    def not_json(token):
        raise ValueError(f"{token} is not JSON")

    code = main(["fit", "--family", "gb2", "--data", str(csv_path), "--iters", "400", "--burnin", "100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=not_json)
    for summary in [doc["mean_income"], *doc["ge"].values()]:
        assert summary["value"] is None and summary["sd"] is None
        assert summary["n_excluded"] == summary["n_draws"] == 300


def test_json_text_writes_non_finite_floats_as_null():
    doc = {"a": [math.nan, 1.5, (math.inf, -math.inf)], "b": {"c": np.float64("nan"), "d": 2, "e": True}}
    text = dataio.json_text(doc)
    assert json.loads(text) == {"a": [None, 1.5, [None, None]], "b": {"c": None, "d": 2, "e": True}}
    assert text == dataio.json_text({"a": [None, 1.5, [None, None]], "b": {"c": None, "d": 2, "e": True}})


def test_cli_and_a_fit_leave_scipy_optimize_and_stats_unloaded():
    # each costs about a second of start-up; the fit needs only scipy.special
    code = (
        "import sys, gedecomp.cli, gedecomp as g\n"
        "sample = g.GroupedSample([0, 1, 2, 3, 5, 8, float('inf')], [10, 25, 30, 20, 10, 5])\n"
        "assert g.fit('sm', sample, g.McmcConfig(600, 150)).sampler == 'laplace'\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.stats'))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_command_scale_counts(tmp_path, capsys):
    csv_path = tmp_path / "unit.csv"
    csv_path.write_text("lower,upper,count\n0,1,1\n1,2,2.5\n2,3,3\n3,inf,1\n")
    code = main(["fit", "--family", "ln", "--data", str(csv_path),
                 "--scale-counts", "10", "--iters", "400", "--burnin", "100"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["unit"] == "unit"


def test_decompose_command(tmp_path, capsys):
    rows = ["income,group,subgroup"]
    rng = np.random.default_rng(0)
    for group, sub in (("a", "a1"), ("a", "a2"), ("b", "b1")):
        for value in np.exp(rng.normal(0.4, 0.6, 40)):
            rows.append(f"{value},{group},{sub}")
    path = tmp_path / "micro.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["decompose", "--data", str(path), "--theta", "0", "--theta", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for tag in ("0", "2"):
        entry = doc["theta"][tag]
        assert entry["within"] + entry["between"] == pytest.approx(entry["ge_total"], rel=1e-10)
        assert set(entry["groups"]) == {"a", "b"}
        assert set(entry["subgroups"]) == {"a", "b"}
    # the command splits the rows once; the file equals per-theta decompose_finite to the byte
    assert main(["decompose", "--data", str(path), "--theta", "0", "--theta", "2", "--out", str(tmp_path)]) == 0
    incomes = np.array([float(r.split(",")[0]) for r in rows[1:]])
    groups = np.array([r.split(",")[1] for r in rows[1:]])
    subgroups = np.array([r.split(",")[2] for r in rows[1:]])
    expected = {"n": len(incomes), "theta": {}}
    for theta in (0.0, 2.0):
        top = decompose_finite(incomes, groups, theta)
        expected["theta"][f"{theta:g}"] = {
            "ge_total": ge_finite(incomes, theta),
            "within": top.within,
            "between": top.between,
            "groups": {t.label: {"ge": t.ge, "share": t.share, "income_share": t.income_share, "weight": t.weight}
                       for t in top.groups},
            "subgroups": {t.label: {"within": sub.within, "between": sub.between}
                          for t in top.groups
                          for sub in [decompose_finite(incomes[groups == t.label], subgroups[groups == t.label], theta)]},
        }
    expected_text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "decomposition.json").read_text() == expected_text


@pytest.mark.parametrize("header, rows, labels", [
    ("income,weight", ["1.5,1", "2.0,2", "4.0,1", "8.0,2"], "income"),
    ("income,weight,group", ["1.5,1,a", "2.0,2,a", "4.0,1,b", "8.0,2,b"], "income,group"),
    (" Income , Subgroup ,weight, GROUP ", ["1.5,a1,1,a", "2.0,a2,2,a", "4.0,b1,1,b", "8.0,b1,2,b"],
     "income,group,subgroup"),
], ids=["weight-only", "weight-then-group", "any-order"])
def test_decompose_reads_the_labels_by_column_name(tmp_path, capsys, header, rows, labels):
    # a column not named group or subgroup, such as a weight, is never a label
    names = [name.strip().lower() for name in header.split(",")]
    path, plain = tmp_path / "micro.csv", tmp_path / "plain.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    columns = [names.index(name) for name in labels.split(",")]
    plain.write_text("\n".join([labels] + [",".join(row.split(",")[c] for c in columns) for row in rows]) + "\n")
    docs = []
    for data in (path, plain):
        assert main(["decompose", "--data", str(data), "--theta", "0", "--theta", "1"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]
    assert ("groups" in docs[0]["theta"]["0"]) == ("group" in labels)


def test_decompose_rejects_a_subgroup_column_without_a_group_column(tmp_path, capsys):
    path = tmp_path / "micro.csv"
    path.write_text("income,subgroup\n1.5,a1\n2.0,a2\n")
    assert main(["decompose", "--data", str(path)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "CsvFormatError", "message": f"{path}: a subgroup column needs a group column"}


@pytest.mark.parametrize("header, name", [("income,group,Group", "group"),
                                          ("income,group,subgroup, SubGroup ", "subgroup")],
                         ids=["group-twice", "subgroup-twice"])
def test_decompose_rejects_a_header_naming_a_label_column_twice(tmp_path, capsys, header, name):
    path = tmp_path / "micro.csv"
    path.write_text(f"{header}\n1.5,a,b,c\n2.0,a,b,c\n")
    assert main(["decompose", "--data", str(path)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": "CsvFormatError", "message": f"{path}: the header names the {name} column more than once"}


@pytest.mark.parametrize(
    "bad_row, message",
    [("2.5,a", "expected 3 columns"), ("abc,a,a1", "expected a number, got 'abc'"), ("-1,a,a1", "income must be positive")],
    ids=["missing-column", "non-numeric", "negative"],
)
def test_decompose_rejects_malformed_row_naming_file_and_line(tmp_path, capsys, bad_row, message):
    path = tmp_path / "micro.csv"
    path.write_text(f"income,group,subgroup\n1.5,a,a1\n\n{bad_row}\n2.0,b,b1\n")
    code = main(["decompose", "--data", str(path)])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert doc["error"] == "CsvFormatError"
    assert doc["message"].startswith(f"{path}:4: ") and message in doc["message"]


def test_simulate_then_pipeline_and_compare(tmp_path, spec_file, capsys):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)]) == 0
    capsys.readouterr()
    manifest_path = sim_dir / "manifest.json"
    assert manifest_path.exists()
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert "1" in truth and "ge_total" in truth["1"]

    out_dir = tmp_path / "run"
    code = main([
        "pipeline", "--manifest", str(manifest_path), "--out", str(out_dir),
        "--theta", "1", "--iters", "500", "--burnin", "120",
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "GE_total" in printed
    report = dataio.load_report(out_dir / "report_theta_1.json")
    assert report.method == "proposed"
    assert abs(report.identity_gap) < 1e-10
    assert (out_dir / "regions_theta_1.csv").exists()
    assert (out_dir / "subregions_theta_1.csv").exists()

    sep_dir = tmp_path / "sep"
    code = main([
        "pipeline", "--manifest", str(manifest_path), "--out", str(sep_dir),
        "--method", "separate", "--theta", "1", "--iters", "500", "--burnin", "120",
    ])
    assert code == 0
    sep_report = dataio.load_report(sep_dir / "report_theta_1.json")
    assert sep_report.method == "separate"

    mix_dir = tmp_path / "mix"
    code = main([
        "pipeline", "--manifest", str(manifest_path), "--out", str(mix_dir),
        "--method", "mixture", "--theta", "1", "--iters", "500", "--burnin", "120",
    ])
    assert code == 0
    capsys.readouterr()

    cmp_dir = tmp_path / "cmp"
    code = main([
        "compare", "--spec", str(spec_file), "--out", str(cmp_dir),
        "--theta", "1", "--iters", "400", "--burnin", "100",
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "proposed" in printed and "mixture" in printed
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == "theta,method,component,estimate,truth,error"
    assert len(lines) == 1 + 3 * 6  # three methods x six components


def test_compare_csv_components_add_up_and_errors_are_estimate_minus_truth(tmp_path, spec_file, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--spec", str(spec_file), "--out", str(out),
                 "--theta", "0", "--theta", "2", "--iters", "400", "--burnin", "100"])
    capsys.readouterr()
    assert code == 0
    with (out / "comparison.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    groups: dict[tuple[str, str], dict[str, dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["theta"]), {})[row["component"]] = row
    assert set(groups) == {(m, t) for m in ("proposed", "separate", "mixture") for t in ("0.0", "2.0")}
    for comp in groups.values():
        total = float(comp["ge_total"]["estimate"])
        parts = sum(float(row["estimate"]) for name, row in comp.items() if name != "ge_total")
        assert len(comp) == 6 and abs(total - parts) <= 1e-12 * max(1.0, abs(total))
        for name, row in comp.items():
            if name.startswith("residual"):
                assert row["truth"] == row["error"] == ""
            else:
                assert float(row["error"]) == float(row["estimate"]) - float(row["truth"])


def test_compare_rejects_ids_that_are_not_strings_before_fitting(tmp_path, capsys):
    # leaf ids 1 and "1" would share one seed; a numeric country id is as wrong
    leaves = [{"id": leaf_id, "population": 500, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
              for leaf_id in (1, "1")]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"country_id": 7, "regions": [{"id": "r1", "leaves": leaves}]}))
    out = tmp_path / "cmp"
    code = main(["compare", "--spec", str(spec_path), "--out", str(out),
                 "--theta", "1", "--iters", "400", "--burnin", "100"])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert doc == {"error": "ManifestError", "message": f"{spec_path}: leaf id 1 must be a non-empty string"}
    assert not (out / "comparison.csv").exists()


def test_pipeline_negative_theta_filenames(tmp_path, spec_file, capsys):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)])
    out_dir = tmp_path / "run"
    code = main([
        "pipeline", "--manifest", str(sim_dir / "manifest.json"), "--out", str(out_dir),
        "--theta", "-1", "--iters", "400", "--burnin", "100",
    ])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "report_theta_m1.json").exists()


def test_pipeline_that_fails_at_a_later_theta_writes_nothing(tmp_path, capsys):
    # leaf a's draws mostly have no second moment: theta = 1 assembles, theta = 2 fails
    doc = {"seed": 3, "sampling_fraction": 0.1, "brackets": 8,
           "fit_families": {"country": "gb2", "region": "sm", "subregion": "sm"},
           "regions": [
               {"id": "r1", "leaves": [
                   {"id": "a", "population": 3000, "params": {"family": "sm", "a": 1.4, "b": 3.0, "q": 1.4}},
                   {"id": "b", "population": 2000, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.3}}]},
               {"id": "r2", "leaves": [
                   {"id": "c", "population": 2000, "params": {"family": "ln", "xi": 1.2, "sigma2": 0.4}},
                   {"id": "d", "population": 2000, "params": {"family": "ln", "xi": 0.9, "sigma2": 0.2}}]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "sim"),
                 "--theta", "1", "--theta", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["pipeline", "--manifest", str(tmp_path / "sim" / "manifest.json"), "--method", "mixture",
                 "--iters", "1000", "--burnin", "200", "--theta", "1", "--theta", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err) == {
        "error": "PipelineError",
        "message": "subregion a: undefined, 794/800 draws with GE outside the moment window at theta=2"}
    assert captured.out == ""  # no table of theta = 1
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_pipeline_rejects_nonfinite_theta_before_fitting(tmp_path, spec_file, capsys, source):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)])
    manifest_path = sim_dir / "manifest.json"
    theta_args = ["--theta", "1", "--theta", "nan"]
    if source == "manifest":
        manifest = json.loads(manifest_path.read_text())
        manifest["theta"] = [1.0, math.nan]
        manifest_path.write_text(json.dumps(manifest))
        theta_args = []
    capsys.readouterr()
    out_dir = tmp_path / "run"
    code = main(["pipeline", "--manifest", str(manifest_path), "--out", str(out_dir),
                 "--iters", "400", "--burnin", "100", *theta_args])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    # a manifest theta fails when the manifest loads, as a ManifestError (a ValueError)
    assert doc["error"] == {"flag": "ValueError", "manifest": "ManifestError"}[source]
    assert "finite" in doc["message"]
    assert not out_dir.exists()  # no report of the valid theta either


@pytest.mark.parametrize("command", ["decompose", "pipeline"])
def test_thetas_sharing_an_output_key_fail_before_any_work(tmp_path, spec_file, capsys, monkeypatch, command):
    # f"{theta:g}" keeps six significant digits: 1 and 1.0000001 would both write the "1" entry
    if command == "decompose":
        data = tmp_path / "micro.csv"
        data.write_text("income,group\n1.5,a\n2.5,a\n3.0,b\n")
        args = ["decompose", "--data", str(data)]
    else:
        main(["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "sim")])

        def no_fit(*_, **__):
            raise AssertionError("fitted before the thetas were checked")

        monkeypatch.setattr("gedecomp.pipeline.fit_hierarchy", no_fit)
        args = ["pipeline", "--manifest", str(tmp_path / "sim" / "manifest.json"), "--iters", "400", "--burnin", "100"]
    capsys.readouterr()
    out_dir = tmp_path / "out"
    code = main([*args, "--out", str(out_dir), "--theta", "1", "--theta", "1.0000001"])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert doc == {"error": "ValueError", "message": "thetas 1.0 and 1.0000001 share the output key '1'"}
    assert not out_dir.exists()


def test_surface_command(tmp_path, capsys):
    out_dir = tmp_path / "surf"
    code = main([
        "surface", "--b", "3", "--a-min", "0.6", "--a-max", "3.0", "--a-num", "3",
        "--q-min", "1.0", "--q-max", "3.0", "--q-num", "3", "--theta", "1", "--out", str(out_dir),
    ])
    capsys.readouterr()
    assert code == 0
    lines = (out_dir / "surface.csv").read_text().splitlines()
    assert lines[0] == "theta,a,q,ge"
    assert len(lines) == 1 + 9
    cells = [line.split(",") for line in lines[1:]]
    grid = [["1.0", repr(a), repr(q)] for q in (1.0, 2.0, 3.0) for a in np.linspace(0.6, 3.0, 3).tolist()]
    assert [row[:3] for row in cells] == grid  # one row per (q, a), a varying fastest
    assert any(row[3] == "" for row in cells)  # masked inadmissible corner
    assert any(row[3] != "" and float(row[3]) > 0 for row in cells)


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_surface_rejects_nonfinite_theta(tmp_path, capsys, theta):
    out_dir = tmp_path / "surf"
    code = main(["surface", "--a-num", "3", "--q-num", "3", "--theta", "1", "--theta", theta, "--out", str(out_dir)])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert doc["error"] == "ValueError" and "finite" in doc["message"]
    assert not (out_dir / "surface.csv").exists()


@pytest.mark.parametrize("flag, count", [("--a-num", "0"), ("--a-num", "-1"), ("--q-num", "0"), ("--q-num", "-1")])
def test_surface_rejects_an_empty_grid(tmp_path, capsys, flag, count):
    out_dir = tmp_path / "surf"
    counts = {"--a-num": "3", "--q-num": "3", flag: count}
    code = main(["surface", *[arg for item in counts.items() for arg in item], "--theta", "1", "--out", str(out_dir)])
    doc = json.loads(capsys.readouterr().err)
    assert code == 2
    assert doc == {"error": "ValueError", "message": f"{flag} must be at least 1, got {count}"}
    assert not out_dir.exists()


def test_simulate_rejects_duplicate_node_ids(tmp_path, capsys):
    doc = json.loads(json.dumps(SPEC_DOC))
    doc["regions"][1]["leaves"][0]["id"] = "m1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--spec", str(path), "--out", str(tmp_path / "sim")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert "'m1'" in err["message"] and "more than once" in err["message"]
    assert not (tmp_path / "sim" / "manifest.json").exists()


@pytest.mark.parametrize("leaf_id", ["../../escape_leaf", "a/b", "a\\b", "..", ".", ""])
def test_simulate_rejects_an_id_that_is_not_a_file_name_before_writing(tmp_path, capsys, leaf_id):
    doc = json.loads(json.dumps(SPEC_DOC))
    doc["regions"][1]["leaves"][0]["id"] = leaf_id
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--spec", str(path), "--out", str(tmp_path / "sim2" / "deep")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    # an empty id is no id at all: the spec rejects it before simulate looks at file names
    expected = f"{path}: leaf id '' must be a non-empty string" if not leaf_id else (
        f"node {leaf_id!r}: an id must be a plain file name")
    assert err["message"].startswith(expected)
    assert list(tmp_path.rglob("*")) == [path]  # nothing written, inside --out or outside it


@pytest.mark.parametrize(
    "fit_families, message",
    [({"country": "gbb2"}, "unknown family tag 'gbb2'"), ({"country": "gb2", "leaf": "gb2"}, "'leaf'")],
    ids=["unknown-tag", "unknown-level"],
)
def test_simulate_rejects_bad_fit_families_before_writing(tmp_path, capsys, fit_families, message):
    doc = {**SPEC_DOC, "fit_families": fit_families}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--spec", str(path), "--out", str(tmp_path / "sim")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ManifestError"
    assert err["message"].startswith(f"{path}: ") and message in err["message"]
    assert not (tmp_path / "sim").exists()



@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_spec_with_a_negative_seed_fails_naming_the_file_before_writing(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC_DOC, "seed": -5}))
    code = main([command, "--spec", str(path), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err == {"error": "ManifestError", "message": f"{path}: seed must be a non-negative integer, got -5"}
    assert list(tmp_path.rglob("*")) == [path]

def short_manifest(tmp_path, spec_file, capsys) -> Path:
    """A simulated manifest with a 400-iteration chain and burn-in 100."""
    main(["simulate", "--spec", str(spec_file), "--out", str(tmp_path / "sim"), "--theta", "1"])
    capsys.readouterr()
    path = tmp_path / "sim" / "manifest.json"
    doc = json.loads(path.read_text())
    doc["mcmc"] = {"iterations": 400, "burnin": 100}
    path.write_text(json.dumps(doc))
    return path


def test_pipeline_flag_replaces_only_its_own_mcmc_setting(tmp_path, spec_file, capsys):
    manifest_path = short_manifest(tmp_path, spec_file, capsys)
    assert main(["pipeline", "--manifest", str(manifest_path), "--out", str(tmp_path / "run"), "--seed", "9"]) == 0
    capsys.readouterr()
    report = dataio.load_report(tmp_path / "run" / "report_theta_1.json")
    assert (report.iterations, report.burnin, report.seed) == (400, 100, 9)
    assert report.phi_policy == "uniform"


def test_pipeline_phi_flag_replaces_the_manifest_policy(tmp_path, spec_file, capsys):
    manifest_path = short_manifest(tmp_path, spec_file, capsys)
    assert json.loads(manifest_path.read_text())["phi"] == "uniform"
    code = main(["pipeline", "--manifest", str(manifest_path), "--out", str(tmp_path / "run"), "--phi", "raking"])
    capsys.readouterr()
    assert code == 0
    report = dataio.load_report(tmp_path / "run" / "report_theta_1.json")
    assert report.phi_policy == "raking"
    assert (report.iterations, report.burnin, report.seed) == (400, 100, SPEC_DOC["seed"])


def test_structured_error_and_exit_code(tmp_path, capsys):
    code = main(["pipeline", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.err)
    assert "error" in doc and "message" in doc


def test_bad_phi_flag_fails(tmp_path, spec_file, capsys):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(spec_file), "--out", str(sim_dir)])
    capsys.readouterr()
    code = main([
        "pipeline", "--manifest", str(sim_dir / "manifest.json"), "--out", str(tmp_path / "o"),
        "--phi", "nonsense", "--iters", "300", "--burnin", "80",
    ])
    assert code == 2


def test_negative_seed_fails_naming_the_seed(tmp_path, spec_file, capsys):
    csv_path = tmp_path / "unit.csv"
    csv_path.write_text("lower,upper,count\n0,1,10\n1,2,25\n2,3,30\n3,inf,5\n")
    manifest_path = short_manifest(tmp_path, spec_file, capsys)
    for argv in (["fit", "--family", "ln", "--data", str(csv_path)],
                 ["pipeline", "--manifest", str(manifest_path), "--out", str(tmp_path / "run")]):
        assert main(argv + ["--seed", "-1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "seed must be a non-negative integer, got -1"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_pipeline_rejects_a_phi_file_missing_a_node_before_fitting(tmp_path, spec_file, capsys, monkeypatch, source):
    manifest_path = short_manifest(tmp_path, spec_file, capsys)
    phi_path = tmp_path / "sim" / "phi.csv"
    phi_path.write_text("id,phi\nr1,1\nm1,1\nm2,1\nr2,1\n")  # no row for the leaf m3
    phi_args = ["--phi", f"file:{phi_path}"]
    if source == "manifest":  # the manifest's own phi file, relative to the manifest
        doc = json.loads(manifest_path.read_text())
        doc["phi"] = "file:phi.csv"
        manifest_path.write_text(json.dumps(doc))
        phi_args = []

    def no_fit(*_, **__):
        raise AssertionError("fitted before the phi file was checked")

    monkeypatch.setattr("gedecomp.pipeline.fit_hierarchy", no_fit)
    out_dir = tmp_path / "run"
    code = main(["pipeline", "--manifest", str(manifest_path), "--out", str(out_dir), *phi_args])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ManifestError"
    assert err["message"].endswith(f"{phi_path}: phi file does not cover node 'm3'")
    assert not out_dir.exists()
