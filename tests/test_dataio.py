"""CSV/JSON formats: parsing, validation, round-trips, table rendering."""

import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gedecomp as g
from gedecomp import dataio
from gedecomp.grouped import McmcConfig
from gedecomp.pipeline import METHODS, DecompositionReport, GeSurface, RegionRow, SubregionRow, ge_surface
from gedecomp.sim import LeafSpec, MultilevelTruth, RegionSpec, SyntheticSpec, generate

from conftest import NATIONAL_REL_FREQ


NATIONAL_CSV = """lower,upper,count
0,1,0.068
1,2,0.139
2,3,0.178
3,4,0.157
4,5,0.126
5,7,0.159
7,10,0.110
10,15,0.047
15,20,0.009
20,inf,0.006
"""


def test_parse_national_table(tmp_path):
    path = tmp_path / "national.csv"
    path.write_text(NATIONAL_CSV)
    sample = dataio.parse_grouped_csv(path, scale=5_000_000)
    assert sample.n_brackets == 10
    assert sample.boundaries[0] == 0.0 and math.isinf(sample.boundaries[-1])
    assert_allclose(sample.counts, NATIONAL_REL_FREQ * 5_000_000, rtol=1e-12)
    assert sample.unit == "national"


def test_parse_minimal_two_brackets(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("lower,upper,count\n0,2,4\n2,inf,6\n")
    sample = dataio.parse_grouped_csv(path)
    assert sample.n_brackets == 2
    assert sample.total == 10.0


@pytest.mark.parametrize(
    "body, message",
    [
        ("lower,upper,count\n2,inf,6\n0,2,4\n", ":3: bracket starts at 0.0"),  # shuffled rows break the chain
        ("lower,upper,count\n0,2,4\n2,5,6\n", ": last bracket must be open"),  # missing inf terminal
        ("lower,upper,count\n0,2,-4\n2,inf,6\n", ":2: count must be finite and nonnegative"),
        ("lower,upper,count\n0,2,4\n", ": need at least two bracket rows"),
        ("a,b,c\n0,2,4\n2,inf,6\n", ": expected header starting with 'lower,upper,count'"),
        ("lower,upper,count\n0,2,4\n\n2,inf,nan\n", ":4: count must be finite and nonnegative, got nan"),
        ("lower,upper,count\n0,2,4\n2,inf\n", ":3: expected 3 columns"),
        ("lower,upper,count\n0,two,4\n2,inf,6\n", ":2: expected a number, got 'two'"),
        ("lower,upper,count\n-1,1,3\n1,inf,5\n", ":2: first boundary must be 0, got -1.0"),
        ("lower,upper,count\n0,2,3\n2,1,4\n1,inf,5\n", ":3: boundaries must be strictly increasing"),
        ("lower,upper,count\n0,2,0\n2,inf,0\n", ": total count must be positive"),  # no line to name
    ],
    ids=["shuffled", "no-inf", "negative", "single", "header", "nan-count", "short-row", "non-numeric",
         "negative-first", "decreasing", "all-zero"],
)
def test_parse_rejects_malformed(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(dataio.CsvFormatError, match=f"^{re.escape(str(path) + message)}"):
        dataio.parse_grouped_csv(path)


def test_grouped_csv_round_trip(tmp_path):
    sample = g.GroupedSample([0.0, 1.5, 4.0, np.inf], [2.5, 7.0, 1.25], "roundtrip")
    path = tmp_path / "roundtrip.csv"
    dataio.write_grouped_csv(path, sample)
    parsed = dataio.parse_grouped_csv(path)
    assert np.array_equal(parsed.boundaries, sample.boundaries)
    assert np.array_equal(parsed.counts, sample.counts)
    assert parsed.unit == "roundtrip"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def write_manifest_tree(tmp_path, seed=3):
    """Write a simulated three-leaf tree in the simulate layout under tmp_path; return what it runs."""
    spec = SyntheticSpec(
        regions=(
            RegionSpec("east", (LeafSpec("e1", g.SM(2.2, 4.0, 1.8), 2000),
                                LeafSpec("e2", g.LN(1.1, 0.4), 1500))),
            RegionSpec("west", (LeafSpec("w1", g.SM(2.0, 4.5, 2.0), 2500),)),
        ),
        brackets=8,
        sampling_fraction=0.4,
        seed=seed,
    )
    manifest = dataio.Manifest(generate(spec).root, (-1.0, 0.0, 1.0, 2.0), "uniform",
                               McmcConfig(iterations=400, burnin=100, seed=seed))
    dataio.write_hierarchy(tmp_path, manifest.root, manifest.thetas, manifest.mcmc)
    return manifest


def test_manifest_round_trip(tmp_path):
    original = write_manifest_tree(tmp_path)
    loaded = dataio.load_manifest(tmp_path / "manifest.json")
    assert loaded.thetas == original.thetas
    assert loaded.phi == "uniform"
    assert loaded.mcmc == original.mcmc
    assert [n.id for n in loaded.root.walk()] == [n.id for n in original.root.walk()]
    for got, expected in zip(loaded.root.walk(), original.root.walk()):
        assert got.level == expected.level
        assert got.family == expected.family
        assert got.population == expected.population
        assert np.array_equal(got.data.counts, expected.data.counts)
    # serialize -> parse -> serialize is byte-stable, for the manifest and for every data CSV
    again = tmp_path / "again"
    dataio.write_hierarchy(again, loaded.root, loaded.thetas, loaded.mcmc)
    names = ["manifest.json", *(f"data/{n.id}.csv" for n in original.root.walk())]
    assert sorted(str(p.relative_to(again)) for p in again.rglob("*.*")) == sorted(names)
    for name in names:
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()


def test_manifest_validation_errors(tmp_path):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())

    missing = dict(doc)
    missing["nodes"] = [dict(n) for n in doc["nodes"]]
    missing["nodes"][2]["data"] = "data/nowhere.csv"
    (tmp_path / "broken.json").write_text(json.dumps(missing))
    with pytest.raises(dataio.ManifestError, match="nowhere"):
        dataio.load_manifest(tmp_path / "broken.json")

    dup = dict(doc)
    dup["nodes"] = doc["nodes"] + [doc["nodes"][-1]]
    (tmp_path / "dup.json").write_text(json.dumps(dup))
    with pytest.raises(dataio.ManifestError, match="duplicate"):
        dataio.load_manifest(tmp_path / "dup.json")

    orphan = dict(doc)
    orphan["nodes"] = [dict(n) for n in doc["nodes"]]
    orphan["nodes"][1]["parent"] = "ghost"
    (tmp_path / "orphan.json").write_text(json.dumps(orphan))
    with pytest.raises(dataio.ManifestError, match="ghost"):
        dataio.load_manifest(tmp_path / "orphan.json")

    two_roots = dict(doc)
    two_roots["nodes"] = [dict(n) for n in doc["nodes"]]
    two_roots["nodes"][1]["parent"] = None
    (tmp_path / "roots.json").write_text(json.dumps(two_roots))
    with pytest.raises(dataio.ManifestError, match="root"):
        dataio.load_manifest(tmp_path / "roots.json")


def test_manifest_rejects_records_unreachable_from_the_root(tmp_path):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    record = {"level": "subregion", "population": 10.0, "family": "ln", "data": "data/e1.csv"}
    doc["nodes"] += [
        {**record, "id": "x", "parent": "y"},
        {**record, "id": "y", "parent": "x"},
        {**record, "id": "z", "parent": "z", "data": "data/nowhere.csv"},
    ]
    (tmp_path / "cycle.json").write_text(json.dumps(doc))
    message = f"{tmp_path / 'cycle.json'}: nodes ['x', 'y', 'z'] are not reachable from the root 'country'"
    with pytest.raises(dataio.ManifestError, match=re.escape(message)):
        dataio.load_manifest(tmp_path / "cycle.json")

    doc["nodes"][-3:] = ["e2"]
    (tmp_path / "string.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match=re.escape("node record 'e2' is not a JSON object")):
        dataio.load_manifest(tmp_path / "string.json")


def test_manifest_csv_error_names_the_manifest_and_the_node(tmp_path):
    write_manifest_tree(tmp_path)
    (tmp_path / "data" / "e2.csv").write_text("lower,upper,count\n0,1,5\n1,inf,abc\n")
    message = f"{tmp_path / 'manifest.json'}: node 'e2': {tmp_path / 'data' / 'e2.csv'}:3: expected a number"
    with pytest.raises(dataio.ManifestError, match=re.escape(message)):
        dataio.load_manifest(tmp_path / "manifest.json")


def test_manifest_data_path_that_is_a_directory_names_the_manifest_and_the_node(tmp_path):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["nodes"][-1]["data"] = ""  # the manifest's own directory, which exists
    (tmp_path / "dir.json").write_text(json.dumps(doc))
    message = f"{tmp_path / 'dir.json'}: node {doc['nodes'][-1]['id']!r}: [Errno 21] Is a directory"
    with pytest.raises(dataio.ManifestError, match=re.escape(message)):
        dataio.load_manifest(tmp_path / "dir.json")


def test_manifest_rejects_nonfinite_theta(tmp_path):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["theta"] = [1.0, math.nan]
    (tmp_path / "nan.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match="finite"):
        dataio.load_manifest(tmp_path / "nan.json")


@pytest.mark.parametrize("stale", [{"adapt": False}, {"step_sizes": [0.1, 0.1, 0.1]}, {"iters": 500}])
def test_manifest_rejects_unknown_mcmc_settings(tmp_path, stale):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(doc["mcmc"]) == ["burnin", "iterations"]
    doc["mcmc"].update(stale)
    (tmp_path / "stale.json").write_text(json.dumps(doc))
    (key,) = stale
    with pytest.raises(dataio.ManifestError, match=rf"stale\.json: unknown mcmc settings \['{key}'\]"):
        dataio.load_manifest(tmp_path / "stale.json")
    del doc["mcmc"]  # both settings have defaults
    (tmp_path / "default.json").write_text(json.dumps(doc))
    assert dataio.load_manifest(tmp_path / "default.json").mcmc == McmcConfig(seed=doc["seed"])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mcmc", {"iterations": 100, "burnin": 100}, "burn-in must satisfy 0 <= burnin < iterations"),
        ("mcmc", {"iterations": "abc"}, "iterations must be an integer, got 'abc'"),
        ("mcmc", {"iterations": 3.7, "burnin": 1}, "iterations must be an integer, got 3.7"),
        ("mcmc", {"iterations": True, "burnin": 0}, "iterations must be an integer, got True"),
        ("mcmc", {"iterations": 100, "burnin": False}, "burnin must be an integer, got False"),
        ("mcmc", {"iterations": 0}, "iterations must be positive"),
        ("mcmc", 500, "mcmc must be a JSON object of iterations and burnin, got 500"),
        ("mcmc", [], "mcmc must be a JSON object of iterations and burnin, got []"),
        ("mcmc", "", "mcmc must be a JSON object of iterations and burnin, got ''"),
        ("seed", 2.5, "seed must be a non-negative integer, got 2.5"),
        ("seed", True, "seed must be a non-negative integer, got True"),
        ("theta", "12", "theta must be a non-empty list of numbers, got '12'"),
        ("theta", [], "theta must be a non-empty list of numbers, got []"),
        ("theta", [1, "2"], "each theta must be a number, got '2'"),
        ("theta", [True], "each theta must be a number, got True"),
        ("theta", 1.0, "theta must be a non-empty list of numbers, got 1.0"),
        ("phi", 3, "unknown phi policy 3"),
        ("phi", "file:short.csv", "short.csv:2: expected 2 columns"),
        ("phi", "file:none.csv", "No such file or directory: "),
        ("phi", "file:partial.csv", "partial.csv: phi file does not cover node 'w1'"),
        ("phi", "file:extra.csv", "extra.csv: phi file names 'zz', which is not a node of the tree"),
        ("scale_counts", 0, "scale_counts must be positive and finite, got 0.0"),
        ("scale_counts", -2.5, "scale_counts must be positive and finite, got -2.5"),
        ("scale_counts", math.nan, "scale_counts must be positive and finite, got nan"),
        ("scale_counts", math.inf, "scale_counts must be positive and finite, got inf"),
        ("scale_counts", True, "scale_counts must be a number, got True"),
        ("scale_counts", "2", "scale_counts must be a number, got '2'"),
        ("population", True, "node 'e1': population must be a number, got True"),
        ("population", "2000", "node 'e1': population must be a number, got '2000'"),
    ],
    ids=["burnin-too-long", "string", "fraction", "iterations-bool", "burnin-bool", "zero-iterations",
         "mcmc-not-an-object", "mcmc-empty-list", "mcmc-empty-string", "seed-fraction", "seed-bool",
         "theta-string", "theta-empty", "theta-string-item", "theta-bool-item", "theta-number",
         "phi-not-a-string", "phi-file-short-row", "phi-file-missing", "phi-file-missing-a-leaf",
         "phi-file-unknown-id",
         "scale-zero", "scale-negative", "scale-nan", "scale-inf", "scale-bool", "scale-string",
         "population-bool", "population-string"],
)
def test_manifest_rejects_malformed_settings_naming_the_file(tmp_path, field, value, message):
    write_manifest_tree(tmp_path)
    (tmp_path / "short.csv").write_text("id,phi\ncountry\n")
    partial = "id,phi\neast,1\ne1,1\ne2,1\nwest,1\n"  # every region and subregion but w1
    (tmp_path / "partial.csv").write_text(partial)
    (tmp_path / "extra.csv").write_text(partial + "w1,1\nzz,2\n")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    if field == "population":  # a node's setting: the first leaf's
        next(node for node in doc["nodes"] if node["id"] == "e1")[field] = value
    else:
        doc[field] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match=re.escape(f"{tmp_path / 'bad.json'}: ") + ".*" + re.escape(message)):
        dataio.load_manifest(tmp_path / "bad.json")


def _node(doc, node_id) -> dict:
    return next(node for node in doc["nodes"] if node["id"] == node_id)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _node(doc, "e1").update(level="county"), "node 'e1': unknown level 'county'"),
        (lambda doc: _node(doc, "e1").update(population=0), "node 'e1': population must be positive"),
        (lambda doc: _node(doc, "e1").update(family="pareto"), "node 'e1': unknown family tag 'pareto'"),
        (lambda doc: _node(doc, "east").update(family="pareto"), "node 'east': unknown family tag 'pareto'"),
        (lambda doc: _node(doc, "country").update(level="region"),
         "root 'country' must be the country node, got level 'region'"),
        (lambda doc: doc.update(nodes=[n for n in doc["nodes"] if n["id"] == "country"]),
         "country 'country' needs at least one region"),
        (lambda doc: _node(doc, "east").update(level="subregion"),
         "node 'east': children of the country must be regions"),
        (lambda doc: _node(doc, "e1").update(level="region"), "node 'e1': regions may only contain leaf subregions"),
        (lambda doc: _node(doc, "e1").pop("family"), "node record 'e1' is missing 'family'"),
        # a number id would be a second leaf beside the string "1", with the same seed and CSV id
        (lambda doc: [_node(doc, "e1").update(id=1), _node(doc, "e2").update(id="1")],
         "node record 1: id must be a non-empty string"),
        (lambda doc: _node(doc, "e1").update(id=""), "node record '': id must be a non-empty string"),
        (lambda doc: _node(doc, "e1").update(parent=["east"]),
         "node record 'e1': parent ['east'] must be null or a non-empty string"),
        (lambda doc: _node(doc, "country").update(parent=""),
         "node record 'country': parent '' must be null or a non-empty string"),
    ],
    ids=["unknown-level", "population-zero", "unknown-family", "unknown-region-family", "root-not-a-country",
         "country-without-regions",
         "country-child-not-a-region", "region-child-not-a-leaf", "record-missing-a-key",
         "id-a-number", "id-empty", "parent-a-list", "parent-empty"],
)
def test_manifest_rejects_tree_faults_naming_the_file_and_the_node(tmp_path, edit, message):
    write_manifest_tree(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    edit(doc)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match="^" + re.escape(f"{tmp_path / 'bad.json'}: {message}")):
        dataio.load_manifest(tmp_path / "bad.json")


def test_manifest_custom_phi_file(tmp_path):
    manifest = write_manifest_tree(tmp_path)
    ids = [n.id for n in manifest.root.walk()]
    lines = "id,phi\n" + "\n".join(f"{i},1.0" for i in ids)
    (tmp_path / "phi.csv").write_text(lines + "\n")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["phi"] = "file:phi.csv"
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    loaded = dataio.load_manifest(tmp_path / "manifest.json")
    assert loaded.phi == {i: 1.0 for i in ids}



def test_phi_csv_validation(tmp_path):
    path = tmp_path / "phi.csv"
    path.write_text("id,phi\nr1,-1\n")
    with pytest.raises(dataio.CsvFormatError):
        dataio.load_phi_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(dataio.CsvFormatError):
        dataio.load_phi_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("id,phi\nr1,1.0\nr2,nan\n", ":3: phi must be positive and finite, got nan"),
        ("id,phi\nr1,1.0\n\nr2,inf\n", ":4: phi must be positive and finite, got inf"),
        ("id,phi\nr1,1.0\nr2,2.0\nr1,3.0\n", ":4: repeated id 'r1'"),
        ("id,phi\nr1\n", ":2: expected 2 columns (id,phi)"),
        ("id,phi\n\n", ": no rows after the header"),
    ],
    ids=["nan", "inf", "repeated-id", "short-row", "empty"],
)
def test_phi_csv_rejects_bad_rows_naming_the_line(tmp_path, body, message):
    path = tmp_path / "phi.csv"
    path.write_text(body)
    with pytest.raises(dataio.CsvFormatError, match=f"^{re.escape(str(path) + message)}$"):
        dataio.load_phi_csv(path)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def tiny_report() -> DecompositionReport:
    return DecompositionReport(
        method="proposed",
        theta=1.0,
        phi_policy="uniform",
        seed=3,
        iterations=400,
        burnin=100,
        ge_total=0.25,
        ge_total_sd=0.01,
        between=0.006,
        sum_weighted_between_sub=0.005,
        sum_weighted_within_sub=0.239,
        residual_region=0.0,
        residual_subregion=0.0,
        regions=(
            RegionRow(id="east", share=0.55, mean_income=3.9, income_share=0.5, weight=0.5, ge_bayes=0.24,
                      ge_bayes_sd=0.012, excluded_draws=0, ge_cb=0.245, between_sub=0.004, within_sub=0.241,
                      subresidual=0.0, bw_ratio=0.0166, negative=False),
        ),
        subregions=(
            SubregionRow(id="e1", region="east", share=0.6, mean_income=3.7, income_share=0.58, weight=0.58,
                         ge_bayes=0.22, ge_bayes_sd=0.015, excluded_draws=0, ge_cb=0.225, negative=False),
        ),
        flags=("subregion e1: 90/8000 draws outside the moment window at theta=2",),
    )


def test_report_round_trip(tmp_path):
    report = tiny_report()
    path = tmp_path / "report.json"
    dataio.save_report(path, report)
    assert dataio.load_report(path) == report
    # byte stability
    dataio.save_report(tmp_path / "again.json", dataio.load_report(path))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_save_report_writes_the_bytes_of_the_reports_asdict_document(tmp_path):
    # the report is walked once, each dataclass read as the dict of its
    # fields and each non-finite float written as null as it is read
    report = tiny_report()
    report = dataclasses.replace(
        report, ge_total_sd=math.nan, between=math.inf,
        regions=(dataclasses.replace(report.regions[0], ge_bayes=np.float64(-math.inf), bw_ratio=None),),
    )
    path = tmp_path / "report.json"
    dataio.save_report(path, report)
    assert path.read_text() == dataio.json_text(dataclasses.asdict(report))
    doc = json.loads(path.read_text())
    assert doc["ge_total_sd"] is doc["between"] is doc["regions"][0]["ge_bayes"] is None


@pytest.mark.parametrize(
    "text, message",
    [('{"method": "proposed",', "invalid JSON"), ('{"method": "proposed"}', "not a decomposition report")],
    ids=["truncated", "missing-fields"],
)
def test_load_report_rejects_a_file_that_is_not_a_report(tmp_path, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(dataio.ManifestError, match=f"^{re.escape(str(path))}: {message}"):
        dataio.load_report(path)


def test_report_json_full_precision(tmp_path):
    report = tiny_report()
    value = 0.1234567890123456789
    report = dataio.report_from_dict({**dataclasses.asdict(report), "ge_total": value})
    path = tmp_path / "precise.json"
    dataio.save_report(path, report)
    assert dataio.load_report(path).ge_total == value


def test_region_and_subregion_csv(tmp_path):
    report = tiny_report()
    dataio.write_region_csv(tmp_path / "regions.csv", report)
    dataio.write_subregion_csv(tmp_path / "subregions.csv", report)
    region_lines = (tmp_path / "regions.csv").read_text().splitlines()
    # the columns are the row type's fields in order, so a field moved in RegionRow moves a column
    assert region_lines == [
        "id,share,mean_income,income_share,weight,ge_bayes,ge_bayes_sd,ge_cb,between_sub,within_sub,bw_ratio,"
        "subresidual,excluded_draws,negative",
        "east,0.55,3.9,0.5,0.5,0.24,0.012,0.245,0.004,0.241,0.0166,0.0,0,0",
    ]
    sub_lines = (tmp_path / "subregions.csv").read_text().splitlines()
    assert sub_lines == [
        "id,region,share,mean_income,income_share,weight,ge_bayes,ge_bayes_sd,ge_cb,excluded_draws,negative",
        "e1,east,0.6,3.7,0.58,0.58,0.22,0.015,0.225,0,0",
    ]


def tiny_truth(theta=1.0) -> MultilevelTruth:
    return MultilevelTruth(theta=theta, ge_total=0.26, between=0.007, sum_weighted_between_sub=0.004,
                           sum_weighted_within_sub=0.249, region_ge={}, region_between_sub={},
                           region_within_sub={}, leaf_ge={})


def method_report(method: str, flags=()) -> DecompositionReport:
    """tiny_report under method, with residuals a table must show only for separate."""
    return dataclasses.replace(tiny_report(), method=method, residual_region=0.00192, residual_subregion=-0.02862,
                               flags=flags)


def test_render_table_layout():
    text = dataio.render_table(tiny_report())
    assert "GE_total" in text and "0.25000" in text
    assert "between-region" in text and "0.00600" in text
    assert "residual-region" in text
    assert text.count("--") == 2  # residual rows dashed outside the separate method
    assert "flags:" in text
    separate = dataio.report_from_dict({**dataclasses.asdict(tiny_report()),
                                        "method": "separate", "residual_region": 0.00192,
                                        "residual_subregion": -0.02862})
    sep_text = dataio.render_table(separate)
    assert "0.00192" in sep_text and "-0.02862" in sep_text


@pytest.mark.parametrize("method", METHODS)
def test_render_table_and_render_comparison_dash_the_same_residuals(method):
    text = dataio.render_table(method_report(method))
    table_dashed = [line.split()[-1] == "--" for line in text.splitlines()[2:8]]
    if method == "separate":
        assert table_dashed == [False] * 6
        assert "0.00192" in text and "-0.02862" in text
    else:
        assert table_dashed == [False, False, True, False, False, True]
        assert "0.00192" not in text and "-0.02862" not in text
    column = 1 + list(METHODS).index(method)
    lines = dataio.render_comparison(tiny_truth(), {m: method_report(m) for m in METHODS}).splitlines()
    assert [line.split()[column] == "--" for line in lines[2:8]] == table_dashed


def test_render_comparison_prints_each_flag_once():
    flags = ("subregion e1: 51/600 draws with GE outside the moment window at theta=2",
             "subregion e2: 7/600 draws with GE outside the moment window at theta=2")
    reports = {"proposed": method_report("proposed", flags[1:]), "separate": method_report("separate", flags[::-1]),
               "mixture": method_report("mixture", flags)}
    lines = dataio.render_comparison(tiny_truth(2.0), reports).splitlines()
    assert lines[0] == "theta = 2"
    assert lines[8:] == ["flags:", f"  - {flags[1]}", f"  - {flags[0]}"]
    unflagged = {m: method_report(m) for m in METHODS}
    assert len(dataio.render_comparison(tiny_truth(), unflagged).splitlines()) == 8


# ---------------------------------------------------------------------------
# synthetic spec files
# ---------------------------------------------------------------------------

def test_load_synthetic_spec(tmp_path):
    doc = {
        "seed": 5,
        "sampling_fraction": 0.2,
        "brackets": [0, 1, 3, "inf"],
        "fit_families": {"country": "gb2", "region": "sm", "subregion": "ln"},
        "regions": [
            {"id": "r1", "leaves": [
                {"id": "m1", "population": 800, "params": {"family": "sm", "a": 2.0, "b": 4.0, "q": 1.5}},
                {"id": "m2", "population": 700, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}},
            ]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = dataio.load_synthetic_spec(path)
    assert spec.seed == 5
    assert spec.brackets == (0.0, 1.0, 3.0, math.inf)
    assert spec.regions[0].leaves[0].params == g.SM(2.0, 4.0, 1.5)
    assert spec.regions[0].leaves[1].params == g.LN(1.0, 0.4)

    bad = dict(doc)
    bad["regions"] = [{"id": "r1", "leaves": [{"id": "m1", "population": 10, "params": {"family": "sm", "a": 2.0}}]}]
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    with pytest.raises(dataio.ManifestError):
        dataio.load_synthetic_spec(tmp_path / "bad.json")


@pytest.mark.parametrize(
    "params, match",
    [
        ({"family": "sm", "a": 2.0, "b": 3.0, "q": 1.5, "p": 4.0}, r"'sm' takes \['a', 'b', 'q'\]"),
        ({"family": "ln", "xi": 1.0, "sigma2": 0.4, "sigma": 0.6}, r"'ln' takes \['xi', 'sigma2'\]"),
        ({"family": "pareto", "a": 2.0}, r"field 'family' is 'pareto', expected one of \['gb2', 'sm', 'ln'\]"),
        ({"family": "sm", "a": 2.0, "b": 3.0}, r"leaf 'm1': family 'sm' takes \['a', 'b', 'q'\], got \['a', 'b'\]"),
        ({"family": "ln", "xi": 1.0}, r"leaf 'm1': family 'ln' takes \['xi', 'sigma2'\], got \['xi'\]"),
        ({"family": "sm", "a": "2.2", "b": 3.0, "q": 1.5}, r"leaf 'm1': parameter 'a' must be a number, got '2.2'"),
        ({"family": "sm", "a": 2.2, "b": True, "q": 1.5}, r"leaf 'm1': parameter 'b' must be a number, got True"),
        ({"family": "ln", "xi": 1.0, "sigma2": None}, r"leaf 'm1': parameter 'sigma2' must be a number, got None"),
    ],
    ids=["sm-with-p", "ln-with-sigma", "unknown-family", "sm-without-q", "ln-without-sigma2", "string-param",
         "bool-param", "null-param"],
)
def test_synthetic_spec_rejects_leaf_params_of_another_family(tmp_path, params, match):
    doc = {"regions": [{"id": "r1", "leaves": [{"id": "m1", "population": 10, "params": params}]}]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match=match):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


@pytest.mark.parametrize("bad_id", [1, "", None, ["m"]], ids=["int", "empty", "null", "list"])
@pytest.mark.parametrize("kind", ["leaf", "region", "country"])
def test_synthetic_spec_rejects_an_id_that_is_not_a_nonempty_string(tmp_path, kind, bad_id):
    leaf = {"id": "m1", "population": 10, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    region = {"id": "r1", "leaves": [leaf]}
    doc = {"regions": [region]}
    if kind == "country":
        doc["country_id"] = bad_id
    else:
        (leaf if kind == "leaf" else region)["id"] = bad_id
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    message = f"{tmp_path / 'spec.json'}: {kind} id {bad_id!r} must be a non-empty string"
    with pytest.raises(dataio.ManifestError, match=f"^{re.escape(message)}$"):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


@pytest.mark.parametrize(
    "fit_families, message",
    [
        ({"country": "gbb2"}, "unknown family tag 'gbb2'"),
        ({"country": "gb2", "leaf": "gb2"}, "fit_families takes only the keys country, region and subregion, "
                                             "got {'country': 'gb2', 'leaf': 'gb2'}"),
        (["country"], "fit_families takes only the keys country, region and subregion, got ['country']"),
    ],
    ids=["unknown-tag", "unknown-level", "not-an-object"],
)
def test_synthetic_spec_rejects_bad_fit_families_naming_the_file(tmp_path, fit_families, message):
    leaf = {"id": "m1", "population": 10, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    doc = {"fit_families": fit_families, "regions": [{"id": "r1", "leaves": [leaf]}]}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    with pytest.raises(dataio.ManifestError, match=re.escape(f"{tmp_path / 'spec.json'}: {message}")):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


def test_synthetic_spec_defaults_come_from_the_dataclass(tmp_path):
    leaf = {"id": "m1", "population": 10, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    (tmp_path / "spec.json").write_text(json.dumps({"regions": [{"id": "r1", "leaves": [leaf]}]}))
    spec = dataio.load_synthetic_spec(tmp_path / "spec.json")
    assert spec == SyntheticSpec(regions=(RegionSpec("r1", (LeafSpec("m1", g.LN(1.0, 0.4), 10),)),))


@pytest.mark.parametrize(
    "seed, population, message",
    [
        (5.5, 10, "seed must be an integer, got 5.5"),
        (5, 10.5, "leaf 'm1': population must be an integer >= 1, got 10.5"),
        (True, 10, "seed must be an integer, got True"),
        (5, True, "leaf 'm1': population must be an integer >= 1, got True"),
        ("5", 10, "seed must be an integer, got '5'"),
        (5, 0, "leaf 'm1': population must be an integer >= 1, got 0"),
    ],
    ids=["seed", "population", "seed-bool", "population-bool", "seed-string", "population-zero"],
)
def test_synthetic_spec_rejects_fractional_integers(tmp_path, seed, population, message):
    leaf = {"id": "m1", "population": population, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    (tmp_path / "spec.json").write_text(json.dumps({"seed": seed, "regions": [{"id": "r1", "leaves": [leaf]}]}))
    with pytest.raises(dataio.ManifestError, match=re.escape(f"{tmp_path / 'spec.json'}: {message}")):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"sampling_fraction": True}, "sampling_fraction must be a number, got True"),
        ({"sampling_fraction": "0.5"}, "sampling_fraction must be a number, got '0.5'"),
        ({"brackets": [0, True, "inf"]}, "each bracket but \"inf\" must be a number, got True"),
        ({"brackets": [0, "2", "inf"]}, "each bracket but \"inf\" must be a number, got '2'"),
        ({"brackets": [0, 2, "INF"]}, "each bracket but \"inf\" must be a number, got 'INF'"),
    ],
    ids=["fraction-bool", "fraction-string", "bracket-bool", "bracket-string", "bracket-upper-case-inf"],
)
def test_synthetic_spec_rejects_settings_that_are_not_numbers(tmp_path, settings, message):
    leaf = {"id": "m1", "population": 10, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    (tmp_path / "spec.json").write_text(json.dumps({**settings, "regions": [{"id": "r1", "leaves": [leaf]}]}))
    with pytest.raises(dataio.ManifestError, match=re.escape(f"{tmp_path / 'spec.json'}: {message}")):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


@pytest.mark.parametrize(
    "brackets, message",
    [
        ("12", "brackets must be an integer or a list of boundaries, got '12'"),
        (True, "brackets must be an integer or a list of boundaries, got True"),
        (2.0, "brackets must be an integer or a list of boundaries, got 2.0"),
        (1, "need at least two brackets"),
        ([1, 2, "inf"], "first boundary must be 0, got 1.0"),
        ([0, 1, 2], "last boundary must be +inf (open top bracket)"),
        ([0, "inf"], "need at least two brackets"),
        ([0, 2, 1, "inf"], "boundaries must be strictly increasing"),
    ],
    ids=["string", "bool", "float", "one", "first-not-zero", "closed-top", "one-bracket", "not-increasing"],
)
def test_synthetic_spec_rejects_bad_brackets_at_load_naming_the_file(tmp_path, brackets, message):
    leaf = {"id": "m1", "population": 10, "params": {"family": "ln", "xi": 1.0, "sigma2": 0.4}}
    (tmp_path / "spec.json").write_text(json.dumps({"brackets": brackets, "regions": [{"id": "r1", "leaves": [leaf]}]}))
    with pytest.raises(dataio.ManifestError, match="^" + re.escape(f"{tmp_path / 'spec.json'}: {message}")):
        dataio.load_synthetic_spec(tmp_path / "spec.json")


def test_surface_csv_is_the_csv_writer_bytes(tmp_path):
    # a grid crossing the moment-window edges, so some cells are masked, at thetas with long reprs
    a_values, q_values = np.linspace(0.3, 4.0, 7), np.linspace(0.3, 4.0, 5)
    surfaces = ge_surface(a_values, q_values, 3.0, (-1.0, 1e-9, 0.05, 1 / 3, 2.0))
    surfaces.append(GeSurface(theta=0.7, b=3.0, a_values=np.array([1.5]), q_values=np.array([2.5]),
                              values=np.array([[math.nan]])))
    assert 0 < sum(int(np.isnan(s.values).sum()) for s in surfaces) < sum(s.values.size for s in surfaces)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["theta", "a", "q", "ge"])
    for surface in surfaces:
        for q, row in zip(surface.q_values.tolist(), surface.values.tolist()):
            for a, v in zip(surface.a_values.tolist(), row):
                writer.writerow([repr(surface.theta), repr(a), repr(q), "" if math.isnan(v) else repr(v)])
    path = tmp_path / "surface.csv"
    dataio.write_surface_csv(path, surfaces)
    data = path.read_bytes()
    assert data == expected.getvalue().encode()
    assert data.count(b"\r\n") == 1 + sum(s.values.size for s in surfaces)
    assert data.count(b"\n") == data.count(b"\r") == data.count(b"\r\n")  # every line ends in \r\n
