"""File formats: grouped-count CSVs, microdata, manifests, and report output.

Grouped counts travel as CSV (statistical offices publish bracket tables as
spreadsheets); manifests and reports are JSON because they nest.  Machine
JSON keeps full float precision; the human table is rounded to 5 decimals.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import FAMILIES, make_family, theta_kind
from .grouped import GroupedSample, McmcConfig
from .pipeline import (
    PHI_POLICIES,
    DecompositionReport,
    HierarchyNode,
    PipelineError,
    RegionRow,
    SubregionRow,
    validate_tree,
)
from .sim import LeafSpec, MultilevelTruth, RegionSpec, SyntheticSpec

__all__ = [
    "CsvFormatError",
    "ManifestError",
    "Manifest",
    "parse_grouped_csv",
    "write_grouped_csv",
    "load_manifest",
    "write_hierarchy",
    "load_phi_csv",
    "resolve_phi",
    "report_from_dict",
    "save_report",
    "load_report",
    "write_region_csv",
    "write_subregion_csv",
    "render_table",
    "write_comparison_csv",
    "write_surface_csv",
    "read_microdata",
    "json_text",
    "write_json",
    "render_comparison",
    "load_synthetic_spec",
]


class CsvFormatError(ValueError):
    """Raised for malformed CSV input files."""


class ManifestError(ValueError):
    """Raised for malformed JSON input: manifests, synthetic specs and reports."""


#: the thetas a manifest without a theta list, and a command without --theta, runs
DEFAULT_THETAS = (-1.0, 0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Shared CSV and JSON plumbing: every reader and writer goes through these
# ---------------------------------------------------------------------------

def _read_csv(path: Path, header: tuple[str, ...]) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header row and the (line number, cells) of each non-blank row.

    The header must start with ``header`` (case and spaces ignored), every
    row must have a cell for each header column, and at least one row must
    follow the header.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        head = next(reader, None)
        if head is None or [h.strip().lower() for h in head[: len(header)]] != list(header):
            raise CsvFormatError(f"{path}: expected header starting with '{','.join(header)}'")
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    for lineno, row in rows:
        if len(row) < len(head):
            raise CsvFormatError(f"{path}:{lineno}: expected {len(head)} columns ({','.join(head)})")
    if not rows:
        raise CsvFormatError(f"{path}: no rows after the header")
    return head, rows


def _number(path: Path, lineno: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(f"{path}:{lineno}: expected a number, got {text!r}") from None


def _positive(path: Path, lineno: int, text: str, name: str) -> float:
    value = _number(path, lineno, text)
    if not (math.isfinite(value) and value > 0):
        raise CsvFormatError(f"{path}:{lineno}: {name} must be positive and finite, got {text.strip()}")
    return value


def _write_csv(path, header, rows) -> None:
    """A header row, then the rows; csv writes a None cell as empty."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def json_text(doc) -> str:
    """Indented JSON with a stable key order and a final newline; a NaN or infinite float is null,
    and a dataclass the object of its fields."""
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_or_null(doc):
    """doc as plain JSON values in one walk: each NaN or infinite float as None (JSON, RFC 8259,
    has no such numbers) and each dataclass as the dict of its fields, as ``dataclasses.asdict``
    gives it."""
    if isinstance(doc, float):  # the commonest leaf, tested first
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    if dataclasses.is_dataclass(doc):
        return {f.name: _finite_or_null(getattr(doc, f.name)) for f in dataclasses.fields(doc)}
    return doc


def write_json(path, doc) -> None:
    Path(path).write_text(json_text(doc))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from None


def _json_number(value, name: str) -> float:
    """A JSON number as a float: an int or a float, not a bool (json reads true as True) or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Grouped-count CSV:  header lower,upper,count; last upper is the literal inf
# ---------------------------------------------------------------------------

def parse_grouped_csv(path, scale: float = 1.0, unit: str | None = None) -> GroupedSample:
    """Read bracket boundaries and counts; counts may be rescaled."""
    path = Path(path)
    _, rows = _read_csv(path, ("lower", "upper", "count"))
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least two bracket rows")
    brackets = [(lineno, [_number(path, lineno, cell) for cell in row[:3]]) for lineno, row in rows]
    boundaries = [brackets[0][1][0]]
    counts = []
    for lineno, (lower, upper, count) in brackets:
        if lower != boundaries[-1]:
            raise CsvFormatError(
                f"{path}:{lineno}: bracket starts at {lower}, expected {boundaries[-1]} (rows out of order?)"
            )
        if not upper > lower:
            raise CsvFormatError(f"{path}:{lineno}: boundaries must be strictly increasing, got {lower} to {upper}")
        if not (math.isfinite(count) and count >= 0):
            raise CsvFormatError(f"{path}:{lineno}: count must be finite and nonnegative, got {count}")
        boundaries.append(upper)
        counts.append(count)
    if boundaries[0] != 0.0:
        raise CsvFormatError(f"{path}:{brackets[0][0]}: first boundary must be 0, got {boundaries[0]}")
    if not math.isinf(boundaries[-1]):
        raise CsvFormatError(f"{path}: last bracket must be open (upper = inf)")
    try:
        sample = GroupedSample(np.array(boundaries), np.array(counts), unit or path.stem)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    return sample.scaled(scale) if scale != 1.0 else sample


def write_grouped_csv(path, sample: GroupedSample) -> None:
    b = sample.boundaries
    _write_csv(path, ("lower", "upper", "count"),
               ([_num_txt(b[g]), _num_txt(b[g + 1]), _num_txt(sample.counts[g])] for g in range(sample.n_brackets)))


def _num_txt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


def read_microdata(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Incomes, and group and subgroup labels where the header names those columns.

    The CSV header starts with ``income``; the columns named ``group`` and
    ``subgroup`` (case and spaces ignored, as for the header's first names)
    give the labels wherever they stand, and other columns are ignored.  A
    header that names either twice, or a ``subgroup`` column without a
    ``group`` column, is a CsvFormatError.
    """
    path = Path(path)
    head, rows = _read_csv(path, ("income",))
    names = [name.strip().lower() for name in head]
    for name in ("group", "subgroup"):
        if names.count(name) > 1:
            raise CsvFormatError(f"{path}: the header names the {name} column more than once")
    if "subgroup" in names and "group" not in names:
        raise CsvFormatError(f"{path}: a subgroup column needs a group column")
    incomes = np.array([_positive(path, lineno, row[0], "income") for lineno, row in rows])
    groups, subgroups = (np.array([row[names.index(name)] for _, row in rows]) if name in names else None
                         for name in ("group", "subgroup"))
    return incomes, groups, subgroups


# ---------------------------------------------------------------------------
# Hierarchy manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifest:
    """What a manifest runs: the validated tree, its counts times scale_counts, and the run settings.

    phi is pipeline.assemble's argument: a name of PHI_POLICIES, or a phi file's {node id: loss weight}.
    """

    root: HierarchyNode
    thetas: tuple[float, ...]
    phi: str | dict[str, float]
    mcmc: McmcConfig


def load_phi_csv(path) -> dict[str, float]:
    """Custom loss weights: CSV with header id,phi."""
    path = Path(path)
    values: dict[str, float] = {}
    for lineno, row in _read_csv(path, ("id", "phi"))[1]:
        if row[0] in values:
            raise CsvFormatError(f"{path}:{lineno}: repeated id {row[0]!r}")
        values[row[0]] = _positive(path, lineno, row[1], "phi")
    return values


def resolve_phi(phi_spec, base: Path, root: HierarchyNode) -> str | dict[str, float]:
    """The pipeline's phi for a name of PHI_POLICIES, or for file:PATH with PATH under base.

    A phi file must weight each region and subregion of root's tree, the
    children a ``proposed`` step benchmarks, and name no other id but the
    country's, whose weight is unused.
    """
    if phi_spec in PHI_POLICIES:
        return phi_spec
    if not str(phi_spec).startswith("file:"):
        raise ManifestError(f"unknown phi policy {phi_spec!r}; expected {', '.join(PHI_POLICIES)}, or file:PATH")
    path = base / phi_spec[len("file:"):]
    values = load_phi_csv(path)
    nodes = list(root.walk())
    ids = {node.id for node in nodes}
    for node_id in values:
        if node_id not in ids:
            raise ManifestError(f"{path}: phi file names {node_id!r}, which is not a node of the tree")
    for node in nodes[1:]:  # the root walks first
        if node.id not in values:
            raise ManifestError(f"{path}: phi file does not cover node {node.id!r}")
    return values


def load_manifest(path) -> Manifest:
    """Parse and validate a hierarchy manifest JSON file.

    Data paths are resolved relative to the manifest's directory.  Every
    node record must be reachable from the one root.
    """
    path = Path(path)
    raw = _read_json(path)
    base = path.parent
    try:
        node_specs = raw["nodes"]
        thetas = raw.get("theta", list(DEFAULT_THETAS))
        if not (isinstance(thetas, list) and thetas):
            raise ValueError(f"theta must be a non-empty list of numbers, got {thetas!r}")
        thetas = tuple(_json_number(t, "each theta") for t in thetas)
        for theta in thetas:
            theta_kind(theta)  # rejects a non-finite theta
        # seed, iterations and burnin go to McmcConfig as written: its checks are the one rule
        given = {"seed": raw["seed"]} if "seed" in raw else {}
        scale = _json_number(raw.get("scale_counts", 1.0), "scale_counts")
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale_counts must be positive and finite, got {scale}")
        mcmc_raw = raw.get("mcmc", {})
        if not isinstance(mcmc_raw, dict):
            raise ValueError(f"mcmc must be a JSON object of iterations and burnin, got {mcmc_raw!r}")
        unknown = sorted(set(mcmc_raw) - {"iterations", "burnin"})
        if unknown:
            raise ValueError(f"unknown mcmc settings {unknown}; expected iterations and burnin")
        given.update(mcmc_raw)
        mcmc = McmcConfig(**given)

        seen: dict[str, dict] = {}
        children: dict[str | None, list[dict]] = {}  # parent id (None for the root) -> records in file order
        for spec in node_specs:
            if not isinstance(spec, dict):
                raise ValueError(f"node record {spec!r} is not a JSON object")
            for key in ("id", "level", "population", "family", "data"):
                if key not in spec:
                    raise ValueError(f"node record {spec.get('id', '?')!r} is missing {key!r}")
            parent = spec.get("parent")
            if not (isinstance(spec["id"], str) and spec["id"]):
                raise ValueError(f"node record {spec['id']!r}: id must be a non-empty string")
            if not (parent is None or isinstance(parent, str) and parent):
                raise ValueError(f"node record {spec['id']!r}: parent {parent!r} must be null or a non-empty string")
            if spec["id"] in seen:
                raise ValueError(f"duplicate node id {spec['id']!r}")
            seen[spec["id"]] = spec
            children.setdefault(parent, []).append(spec)
        roots = children.pop(None, [])
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root node, found {len(roots)}")
        for parent, kids in children.items():
            if parent not in seen:
                raise ValueError(f"node {kids[0]['id']!r} references unknown parent {parent!r}")

        def build(spec: dict) -> HierarchyNode:
            data_path = base / spec["data"]
            if not data_path.exists():
                raise ValueError(f"node {spec['id']!r} data file not found: {data_path}")
            try:
                sample = parse_grouped_csv(data_path, scale=scale, unit=spec["id"])
            except (CsvFormatError, OSError) as exc:  # a data path that is a directory, or unreadable
                raise ValueError(f"node {spec['id']!r}: {exc}") from None
            kids = tuple(build(c) for c in children.get(spec["id"], []))
            return HierarchyNode(
                id=spec["id"],
                level=spec["level"],
                population=_json_number(spec["population"], f"node {spec['id']!r}: population"),
                family=spec["family"],
                data=sample,
                children=kids,
            )

        root = build(roots[0])
        reached = {node.id for node in root.walk()}
        unreachable = [node_id for node_id in seen if node_id not in reached]
        if unreachable:
            raise ValueError(f"nodes {unreachable} are not reachable from the root {root.id!r}")
        validate_tree(root)
        phi = resolve_phi(raw.get("phi", "uniform"), base, root)
    except (KeyError, TypeError, ValueError, OverflowError, OSError, PipelineError) as exc:
        raise ManifestError(f"{path}: {exc}") from None
    return Manifest(root=root, thetas=thetas, phi=phi, mcmc=mcmc)


def write_hierarchy(out, root: HierarchyNode, thetas, mcmc: McmcConfig) -> None:
    """Write root's tree in the ``simulate`` layout: out/data/<id>.csv per node, and out/manifest.json.

    The manifest runs the tree at thetas with mcmc's settings, the uniform
    phi and scale_counts 1, so load_manifest of it gives back the tree.
    The tree is validated, and every id must be a plain file name, before any write.
    """
    out = Path(out)
    validate_tree(root)
    nodes = list(root.walk())
    for node in nodes:
        if node.id in (".", "..") or "/" in node.id or "\\" in node.id:
            raise ValueError(f"node {node.id!r}: an id must be a plain file name, the name of its data/<id>.csv")
    (out / "data").mkdir(parents=True, exist_ok=True)
    parent_of = {child.id: node.id for node in nodes for child in node.children}
    records = []
    for node in nodes:
        data = f"data/{node.id}.csv"
        write_grouped_csv(out / data, node.data)
        records.append({"id": node.id, "parent": parent_of.get(node.id), "level": node.level,
                        "population": node.population, "family": node.family, "data": data})
    doc = {"theta": list(thetas), "phi": "uniform", "seed": mcmc.seed, "scale_counts": 1.0,
           "mcmc": {"iterations": mcmc.iterations, "burnin": mcmc.burnin}, "nodes": records}
    write_json(out / "manifest.json", doc)


# ---------------------------------------------------------------------------
# Decomposition reports
# ---------------------------------------------------------------------------

def report_from_dict(doc: dict) -> DecompositionReport:
    regions = tuple(RegionRow(**r) for r in doc["regions"])
    subregions = tuple(SubregionRow(**s) for s in doc["subregions"])
    fields = {k: v for k, v in doc.items() if k not in ("regions", "subregions", "flags")}
    return DecompositionReport(
        regions=regions, subregions=subregions, flags=tuple(doc["flags"]), **fields
    )


def save_report(path, report: DecompositionReport) -> None:
    """Full-precision machine JSON with a stable key order."""
    write_json(path, report)


def load_report(path) -> DecompositionReport:
    path = Path(path)
    try:
        return report_from_dict(_read_json(path))
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"{path}: not a decomposition report ({exc!r})") from None


#: a report's national components, (field, render_table label) in table order; the residuals have no truth
_COMPONENTS = (
    ("ge_total", "GE_total"),
    ("between", "between-region"),
    ("residual_region", "residual-region"),
    ("sum_weighted_between_sub", "sum_j w_j * between_sub_j"),
    ("sum_weighted_within_sub", "sum_j w_j * within_sub_j"),
    ("residual_subregion", "residual-subregion"),
)


def _shown(report: DecompositionReport, field: str) -> float | None:
    """The value a table shows for a component: a residual only for separate, whose levels are not reconciled."""
    return None if field.startswith("residual") and report.method != "separate" else getattr(report, field)


def _flag_lines(flags) -> list[str]:
    return ["flags:", *(f"  - {flag}" for flag in flags)] if flags else []


def _write_rows_csv(path, row_type, rows) -> None:
    """One column per field of row_type, in field order; a bool is written as 0 or 1."""
    columns = tuple(f.name for f in dataclasses.fields(row_type))
    _write_csv(path, columns, ([int(v) if isinstance(v, bool) else v for v in (getattr(row, c) for c in columns)]
                               for row in rows))


def write_region_csv(path, report: DecompositionReport) -> None:
    """Per-region values for external mapping and plotting."""
    _write_rows_csv(path, RegionRow, report.regions)


def write_subregion_csv(path, report: DecompositionReport) -> None:
    _write_rows_csv(path, SubregionRow, report.subregions)


def _fmt5(x: float | None) -> str:
    return "--" if x is None else f"{x:.5f}"


def render_table(report: DecompositionReport) -> str:
    """Human-readable multilevel table, rounded to 5 decimals."""
    lines = [
        f"method={report.method}  theta={report.theta:g}  phi={report.phi_policy}",
        f"{'component':<34}{'estimate':>12}",
    ]
    lines.extend(f"{label:<34}{_fmt5(_shown(report, field)):>12}" for field, label in _COMPONENTS)
    return "\n".join(lines + _flag_lines(report.flags))


# ---------------------------------------------------------------------------
# Method-comparison output
# ---------------------------------------------------------------------------

def write_comparison_csv(path, comparison) -> None:
    """theta,method,component,estimate,truth,error rows of compare_methods' (truth, reports) pairs.

    Every estimate is written, a residual too; a residual has no truth, so
    its truth and error cells are empty.
    """
    rows = []
    for truth, reports in comparison:
        for report in reports.values():
            for field, _ in _COMPONENTS:
                estimate, exact = getattr(report, field), getattr(truth, field, None)
                rows.append([report.theta, report.method, field, estimate, exact,
                             None if exact is None else estimate - exact])
    _write_csv(path, ("theta", "method", "component", "estimate", "truth", "error"), rows)


def write_surface_csv(path, surfaces) -> None:
    """theta,a,q,ge rows of GeSurface grids, a varying fastest; a masked GE is an empty cell.

    Written as text lines with csv's \r\n ending: no field needs quoting,
    since each is a float repr or an empty masked cell.  Each grid value is
    formatted once, not once per cell it appears in.
    """
    with Path(path).open("w", newline="") as handle:
        handle.write("theta,a,q,ge\r\n")
        for surface in surfaces:
            heads = [f"{surface.theta!r},{a!r}," for a in surface.a_values.tolist()]
            cells = map(repr, surface.values.ravel().tolist())
            for q in map(repr, surface.q_values.tolist()):  # zip takes a head before each cell: one row of cells
                handle.write("".join([f"{head}{q},{'' if v == 'nan' else v}\r\n" for head, v in zip(heads, cells)]))


def render_comparison(truth: MultilevelTruth, reports: dict[str, DecompositionReport]) -> str:
    """One theta's table, a column per method of reports and the truth, then the reports' distinct flags."""
    lines = [f"theta = {truth.theta:g}", f"{'component':<28}" + "".join(f"{m:>12}" for m in reports) + f"{'truth':>12}"]
    for field, _ in _COMPONENTS:
        cells = "".join(f"{_fmt5(_shown(report, field)):>12}" for report in reports.values())
        lines.append(f"{field:<28}{cells}{_fmt5(getattr(truth, field, None)):>12}")
    flags = dict.fromkeys(flag for report in reports.values() for flag in report.flags)
    return "\n".join(lines + _flag_lines(flags))


# ---------------------------------------------------------------------------
# Synthetic-spec JSON
# ---------------------------------------------------------------------------

def load_synthetic_spec(path) -> SyntheticSpec:
    """Parse a synthetic-hierarchy spec (truth parameters and shape)."""
    path = Path(path)
    raw = _read_json(path)
    try:
        regions = []
        for region_raw in raw["regions"]:
            leaves = []
            for leaf_raw in region_raw["leaves"]:
                params_raw = dict(leaf_raw["params"])
                family = params_raw.pop("family")
                leaf = f"leaf {leaf_raw['id']!r}"
                if family not in FAMILIES:
                    raise ValueError(f"{leaf}: field 'family' is {family!r}, expected one of {list(FAMILIES)}")
                names = FAMILIES[family].param_names
                if set(params_raw) != set(names):
                    raise ValueError(f"{leaf}: family {family!r} takes {list(names)}, got {sorted(params_raw)}")
                vector = [_json_number(params_raw[name], f"{leaf}: parameter {name!r}") for name in names]
                leaves.append(
                    LeafSpec(
                        id=leaf_raw["id"],
                        params=make_family(family, vector),
                        population=leaf_raw["population"],
                    )
                )
            regions.append(RegionSpec(id=region_raw["id"], leaves=tuple(leaves)))
        # the settings the file gives, each field after regions, as written: SyntheticSpec has the defaults and rules
        given = {f.name: raw[f.name] for f in dataclasses.fields(SyntheticSpec)[1:] if f.name in raw}
        if isinstance(given.get("brackets"), list):
            given["brackets"] = tuple(math.inf if b == "inf" else _json_number(b, "each bracket but \"inf\"")
                                      for b in given["brackets"])
        return SyntheticSpec(regions=tuple(regions), **given)
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from None
