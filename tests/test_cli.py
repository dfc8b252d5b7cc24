"""Command-line surface: every subcommand end to end on small inputs."""

import json

import numpy as np
import pytest

from gedecomp import dataio
from gedecomp.cli import main

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
