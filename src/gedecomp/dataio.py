"""File formats: grouped-count CSVs, hierarchy manifests, and report output.

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
    DecompositionReport,
    HierarchyNode,
    RegionRow,
    SubregionRow,
    validate_tree,
)
from .sim import LeafSpec, MethodComparison, RegionSpec, SyntheticSpec

__all__ = [
    "CsvFormatError",
    "ManifestError",
    "Manifest",
    "parse_grouped_csv",
    "write_grouped_csv",
    "load_manifest",
    "write_manifest",
    "load_phi_csv",
    "resolve_phi",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "write_region_csv",
    "write_subregion_csv",
    "render_table",
    "write_comparison_csv",
    "render_comparison",
    "load_synthetic_spec",
]


class CsvFormatError(ValueError):
    """Raised for malformed grouped-count CSV files."""


class ManifestError(ValueError):
    """Raised for malformed hierarchy manifests."""


# ---------------------------------------------------------------------------
# Grouped-count CSV:  header lower,upper,count; last upper is the literal inf
# ---------------------------------------------------------------------------

def parse_grouped_csv(path, scale: float = 1.0, unit: str | None = None) -> GroupedSample:
    """Read bracket boundaries and counts; counts may be rescaled."""
    path = Path(path)
    rows = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["lower", "upper", "count"]:
            raise CsvFormatError(f"{path}: expected header 'lower,upper,count'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise CsvFormatError(f"{path}:{lineno}: expected 3 columns")
            try:
                lower = float(row[0])
                upper = math.inf if row[1].strip().lower() in ("inf", "+inf") else float(row[1])
                count = float(row[2])
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: {exc}") from None
            rows.append((lower, upper, count))
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need at least two bracket rows")
    boundaries = [rows[0][0]]
    counts = []
    for i, (lower, upper, count) in enumerate(rows):
        if lower != boundaries[-1]:
            raise CsvFormatError(
                f"{path}: bracket {i + 1} starts at {lower}, expected {boundaries[-1]} (rows out of order?)"
            )
        if count < 0:
            raise CsvFormatError(f"{path}: bracket {i + 1} has a negative count")
        boundaries.append(upper)
        counts.append(count)
    if not math.isinf(boundaries[-1]):
        raise CsvFormatError(f"{path}: last bracket must be open (upper = inf)")
    try:
        sample = GroupedSample(np.array(boundaries), np.array(counts), unit or path.stem)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from None
    return sample.scaled(scale) if scale != 1.0 else sample


def write_grouped_csv(path, sample: GroupedSample) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lower", "upper", "count"])
        for g in range(sample.n_brackets):
            upper = sample.boundaries[g + 1]
            upper_txt = "inf" if math.isinf(upper) else _num_txt(upper)
            writer.writerow([_num_txt(sample.boundaries[g]), upper_txt, _num_txt(sample.counts[g])])


def _num_txt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


# ---------------------------------------------------------------------------
# Hierarchy manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifest:
    """Parsed manifest: the validated tree plus run-wide settings."""

    root: HierarchyNode
    thetas: tuple[float, ...]
    phi: str  # 'uniform' | 'raking' | 'file:PATH'
    phi_values: dict[str, float] | None
    mcmc: McmcConfig
    scale_counts: float
    node_files: dict[str, str]  # id -> data path as written in the manifest

    def phi_policy(self):
        """The phi argument the pipeline expects."""
        return self.phi_values if self.phi_values is not None else self.phi


def load_phi_csv(path) -> dict[str, float]:
    """Custom loss weights: CSV with header id,phi."""
    path = Path(path)
    values: dict[str, float] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id", "phi"]:
            raise CsvFormatError(f"{path}: expected header 'id,phi'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                value = float(row[1])
            except (IndexError, ValueError):
                raise CsvFormatError(f"{path}:{lineno}: expected 'id,phi' row") from None
            if value <= 0:
                raise CsvFormatError(f"{path}:{lineno}: phi must be positive")
            values[row[0]] = value
    if not values:
        raise CsvFormatError(f"{path}: no loss weights found")
    return values


def resolve_phi(phi_spec: str, base: Path) -> tuple[str, dict[str, float] | None]:
    """Parse a phi policy (uniform | raking | file:PATH under base): the policy, and a file's weights or None."""
    if phi_spec in ("uniform", "raking"):
        return phi_spec, None
    if phi_spec.startswith("file:"):
        return phi_spec, load_phi_csv(base / phi_spec[len("file:"):])
    raise ManifestError(f"unknown phi policy {phi_spec!r}; expected uniform, raking, or file:PATH")


def load_manifest(path) -> Manifest:
    """Parse and validate a hierarchy manifest JSON file.

    Data paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from None
    base = path.parent

    try:
        node_specs = raw["nodes"]
        thetas = tuple(float(t) for t in raw.get("theta", (-1.0, 0.0, 1.0, 2.0)))
        for theta in thetas:
            theta_kind(theta)  # rejects a non-finite theta
        seed = int(raw.get("seed", 0))
        scale = float(raw.get("scale_counts", 1.0))
        phi_spec = raw.get("phi", "uniform")
        mcmc_raw = dict(raw.get("mcmc", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from None

    unknown = sorted(set(mcmc_raw) - {"iterations", "burnin"})
    if unknown:
        raise ManifestError(f"{path}: unknown mcmc settings {unknown}; expected iterations and burnin")
    mcmc = McmcConfig(
        iterations=int(mcmc_raw.get("iterations", 10_000)),
        burnin=int(mcmc_raw.get("burnin", 2_000)),
        seed=seed,
    )
    phi, phi_values = resolve_phi(phi_spec, base)

    seen: dict[str, dict] = {}
    for spec in node_specs:
        for key in ("id", "level", "population", "family", "data"):
            if key not in spec:
                raise ManifestError(f"{path}: node record {spec.get('id', '?')!r} is missing {key!r}")
        if spec["id"] in seen:
            raise ManifestError(f"{path}: duplicate node id {spec['id']!r}")
        seen[spec["id"]] = spec

    roots = [s for s in seen.values() if s.get("parent") in (None, "")]
    if len(roots) != 1:
        raise ManifestError(f"{path}: expected exactly one root node, found {len(roots)}")
    children: dict[str, list[dict]] = {}
    for spec in seen.values():
        parent = spec.get("parent")
        if parent in (None, ""):
            continue
        if parent not in seen:
            raise ManifestError(f"{path}: node {spec['id']!r} references unknown parent {parent!r}")
        children.setdefault(parent, []).append(spec)

    node_files: dict[str, str] = {}

    def build(spec: dict) -> HierarchyNode:
        data_path = base / spec["data"]
        if not data_path.exists():
            raise ManifestError(f"{path}: node {spec['id']!r} data file not found: {data_path}")
        try:
            sample = parse_grouped_csv(data_path, scale=scale, unit=spec["id"])
        except CsvFormatError as exc:
            raise ManifestError(f"node {spec['id']!r}: {exc}") from None
        node_files[spec["id"]] = spec["data"]
        kids = tuple(build(c) for c in children.get(spec["id"], []))
        try:
            return HierarchyNode(
                id=spec["id"],
                level=spec["level"],
                population=float(spec["population"]),
                family=spec["family"],
                data=sample,
                children=kids,
            )
        except Exception as exc:
            raise ManifestError(f"{path}: {exc}") from None

    root = build(roots[0])
    try:
        validate_tree(root)
    except Exception as exc:
        raise ManifestError(f"{path}: {exc}") from None
    return Manifest(
        root=root,
        thetas=thetas,
        phi=phi,
        phi_values=phi_values,
        mcmc=mcmc,
        scale_counts=scale,
        node_files=node_files,
    )


def write_manifest(path, manifest: Manifest) -> None:
    """Write the manifest JSON; the referenced data files are not touched."""
    path = Path(path)
    nodes = []
    parent_of: dict[str, str | None] = {manifest.root.id: None}
    for node in manifest.root.walk():
        for child in node.children:
            parent_of[child.id] = node.id
    for node in manifest.root.walk():
        nodes.append(
            {
                "id": node.id,
                "parent": parent_of[node.id],
                "level": node.level,
                "population": node.population,
                "family": node.family,
                "data": manifest.node_files[node.id],
            }
        )
    doc = {
        "theta": list(manifest.thetas),
        "phi": manifest.phi,
        "seed": manifest.mcmc.seed,
        "scale_counts": manifest.scale_counts,
        "mcmc": {
            "iterations": manifest.mcmc.iterations,
            "burnin": manifest.mcmc.burnin,
        },
        "nodes": nodes,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Decomposition reports
# ---------------------------------------------------------------------------

def report_to_dict(report: DecompositionReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["regions"] = [dataclasses.asdict(r) for r in report.regions]
    doc["subregions"] = [dataclasses.asdict(s) for s in report.subregions]
    doc["flags"] = list(report.flags)
    return doc


def report_from_dict(doc: dict) -> DecompositionReport:
    regions = tuple(RegionRow(**r) for r in doc["regions"])
    subregions = tuple(SubregionRow(**s) for s in doc["subregions"])
    fields = {k: v for k, v in doc.items() if k not in ("regions", "subregions", "flags")}
    return DecompositionReport(
        regions=regions, subregions=subregions, flags=tuple(doc["flags"]), **fields
    )


def save_report(path, report: DecompositionReport) -> None:
    """Full-precision machine JSON with a stable key order."""
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")


def load_report(path) -> DecompositionReport:
    return report_from_dict(json.loads(Path(path).read_text()))


def write_region_csv(path, report: DecompositionReport) -> None:
    """Per-region values for external mapping and plotting."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "id", "share", "mean_income", "income_share", "weight",
                "ge_bayes", "ge_bayes_sd", "ge_cb", "between_sub", "within_sub",
                "bw_ratio", "subresidual", "excluded_draws", "negative",
            ]
        )
        for r in report.regions:
            writer.writerow(
                [
                    r.id, repr(r.share), repr(r.mean_income), repr(r.income_share), repr(r.weight),
                    repr(r.ge_bayes), "" if r.ge_bayes_sd is None else repr(r.ge_bayes_sd),
                    repr(r.ge_cb), repr(r.between_sub), repr(r.within_sub),
                    "" if r.bw_ratio is None else repr(r.bw_ratio),
                    repr(r.subresidual), r.excluded_draws, int(r.negative),
                ]
            )


def write_subregion_csv(path, report: DecompositionReport) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "id", "region", "share", "mean_income", "income_share", "weight",
                "ge_bayes", "ge_bayes_sd", "ge_cb", "excluded_draws", "negative",
            ]
        )
        for s in report.subregions:
            writer.writerow(
                [
                    s.id, s.region, repr(s.share), repr(s.mean_income), repr(s.income_share),
                    repr(s.weight), repr(s.ge_bayes),
                    "" if s.ge_bayes_sd is None else repr(s.ge_bayes_sd),
                    repr(s.ge_cb), s.excluded_draws, int(s.negative),
                ]
            )


def _fmt5(x: float | None) -> str:
    return "--" if x is None else f"{x:.5f}"


def render_table(report: DecompositionReport) -> str:
    """Human-readable multilevel table, rounded to 5 decimals."""
    lines = [
        f"method={report.method}  theta={report.theta:g}  phi={report.phi_policy}",
        f"{'component':<34}{'estimate':>12}",
    ]
    rows = [
        ("GE_total", report.ge_total),
        ("between-region", report.between),
        ("residual-region", report.residual_region if report.method == "separate" else None),
        ("sum_j w_j * between_sub_j", report.sum_weighted_between_sub),
        ("sum_j w_j * within_sub_j", report.sum_weighted_within_sub),
        ("residual-subregion", report.residual_subregion if report.method == "separate" else None),
    ]
    for name, value in rows:
        lines.append(f"{name:<34}{_fmt5(value):>12}")
    if report.flags:
        lines.append("flags:")
        lines.extend(f"  - {flag}" for flag in report.flags)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Method-comparison output
# ---------------------------------------------------------------------------

def write_comparison_csv(path, comparison: MethodComparison) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta", "method", "component", "estimate", "truth", "error"])
        for row in comparison.rows:
            writer.writerow(
                [
                    repr(row.theta), row.method, row.component, repr(row.estimate),
                    "" if row.truth is None else repr(row.truth),
                    "" if row.error is None else repr(row.error),
                ]
            )


def render_comparison(comparison: MethodComparison, theta: float) -> str:
    """Per-theta table with one column per method, mirroring the report rows."""
    methods = ("proposed", "separate", "mixture")
    by_key = {(r.method, r.component): r for r in comparison.rows if r.theta == theta}
    lines = [f"theta = {theta:g}", f"{'component':<28}" + "".join(f"{m:>12}" for m in methods) + f"{'truth':>12}"]
    for component in MethodComparison.COMPONENTS:
        cells = []
        truth_txt = "--"
        for m in methods:
            row = by_key.get((m, component))
            if row is None:
                cells.append(f"{'--':>12}")
                continue
            estimate = row.estimate
            if component.startswith("residual") and m != "separate":
                cells.append(f"{'--':>12}")
            else:
                cells.append(f"{estimate:>12.5f}")
            if row.truth is not None:
                truth_txt = f"{row.truth:.5f}"
        lines.append(f"{component:<28}" + "".join(cells) + f"{truth_txt:>12}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthetic-spec JSON
# ---------------------------------------------------------------------------

def load_synthetic_spec(path) -> SyntheticSpec:
    """Parse a synthetic-hierarchy spec (truth parameters and shape)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from None
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
                if set(params_raw) - set(names):
                    raise ValueError(f"{leaf}: family {family!r} takes {list(names)}, got {sorted(params_raw)}")
                vector = [params_raw[name] for name in names]
                leaves.append(
                    LeafSpec(
                        id=leaf_raw["id"],
                        params=make_family(family, vector),
                        population=int(leaf_raw["population"]),
                    )
                )
            regions.append(RegionSpec(id=region_raw["id"], leaves=tuple(leaves)))
        brackets = raw.get("brackets", 10)
        if isinstance(brackets, list):
            brackets = tuple(math.inf if str(b).lower() == "inf" else float(b) for b in brackets)
        fit_families = raw.get("fit_families", {})
        return SyntheticSpec(
            regions=tuple(regions),
            brackets=brackets,
            sampling_fraction=float(raw.get("sampling_fraction", 0.1)),
            seed=int(raw.get("seed", 0)),
            country_id=raw.get("country_id", "country"),
            country_family=fit_families.get("country", "gb2"),
            region_family=fit_families.get("region", "sm"),
            leaf_family=fit_families.get("subregion", "ln"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from None
