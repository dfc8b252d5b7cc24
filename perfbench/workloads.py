"""The three benchmark workloads: inputs, one operation, and its output check.

Operations reach gedecomp only through ``gedecomp.fit``,
``gedecomp.posterior_ge``, ``gedecomp.posterior_mean_income`` and
``gedecomp.cli.main`` (``pipeline``, ``simulate``, ``compare`` and
``surface``, never ``--workers``).  The per-node draws behind the ESS of the
tree workloads are read from the return value of
``gedecomp.pipeline.fit_hierarchy``, the public fitting entry point that the
CLI and ``compare`` call; an interface that has disappeared raises.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

import specs
from ess import bulk_ess
from tracing import rebind

GE_THETAS = (-1.0, 0.0, 1.0, 2.0)
SENSITIVITY_THETAS = tuple(-1.0 + 0.25 * k for k in range(13))
# tolerance of the exact identity checks on written outputs
IDENTITY_TOL = 1e-12
# components of the proposed method's report that have an exact truth
TRUTH_COMPONENTS = ("ge_total", "between", "sum_weighted_between_sub", "sum_weighted_within_sub")
SURFACE_SPOT_CHECKS = 20
SURFACE_B = 3.0

# Workload sizes.  "full" is what the benchmark measures; "tiny" runs every
# code path in a few seconds for the self-tests.  ``calibration_loads``
# reference loads (about 2 ms each, see calibrate.py) run after every op,
# 4-7% of the op's time.
SIZES = {
    "full": {
        "national": {"iterations": None, "burnin": None, "quality_ops": 24, "calibration_loads": 24},
        "wide-tree": {"regions": 6, "leaves": 6, "population": 3000, "fraction": 0.5,
                      "iters": 800, "burnin": 200, "quality_ops": 8, "calibration_loads": 60},
        "sensitivity": {"regions": 4, "leaves": 3, "population": 20000, "fraction": 0.1,
                        "iters": 800, "burnin": 200, "grid": 51, "quality_ops": 8,
                        "calibration_loads": 80},
    },
    "tiny": {
        "national": {"iterations": 2000, "burnin": 500, "quality_ops": 3, "calibration_loads": 2},
        "wide-tree": {"regions": 2, "leaves": 2, "population": 2000, "fraction": 0.5,
                      "iters": 300, "burnin": 100, "quality_ops": 1, "calibration_loads": 2},
        "sensitivity": {"regions": 2, "leaves": 2, "population": 3000, "fraction": 0.3,
                        "iters": 300, "burnin": 100, "grid": 5, "quality_ops": 1,
                        "calibration_loads": 2},
    },
}


@dataclass
class OpResult:
    """Timings, quality measures and check failures of one operation."""

    wall_s: float = 0.0
    cpu_s: float = 0.0  # CPU time of the process over the same span as wall_s
    # set by the op loop: CPU seconds per reference load just after the op,
    # and cpu_s scaled to the reference machine speed (see calibrate.py)
    load_cpu_s: float = math.nan
    ref_s: float = math.nan
    fit_s: float = 0.0
    ess: list[tuple[str, float]] = field(default_factory=list)  # (family, Theil bulk ESS) per fit
    rel_errors: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


class Clock:
    """Wall and process CPU time from the start of an op's program calls."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def result(self, **fields) -> OpResult:
        return OpResult(wall_s=time.perf_counter() - self.wall, cpu_s=time.process_time() - self.cpu, **fields)


def theil_per_draw(names, draws: np.ndarray) -> np.ndarray:
    """Theil index of each parameter draw; +inf where the mean does not exist."""
    cols = dict(zip(names, np.asarray(draws, dtype=float).T))
    if "sigma2" in cols:
        return cols["sigma2"] / 2.0
    a, q = cols["a"], cols["q"]
    p = cols.get("p", np.ones_like(a))
    ok = a * q > 1.0
    inv = 1.0 / a
    with np.errstate(invalid="ignore", divide="ignore"):
        value = (special.digamma(p + inv) - special.digamma(q - inv)) * inv - (
            special.gammaln(p + inv) + special.gammaln(q - inv) - special.gammaln(p) - special.gammaln(q)
        )
    return np.where(ok, value, np.inf)


def theil_ess(posterior) -> float:
    """Bulk ESS of the per-draw Theil index of one fitted unit."""
    return bulk_ess(theil_per_draw(posterior.param_names, posterior.draws))


def _theta_args(thetas) -> list[str]:
    args: list[str] = []
    for theta in thetas:
        args += ["--theta", repr(float(theta))]
    return args


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _run_cli(gd, argv: list[str]) -> tuple[int, str]:
    """cli.main in-process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gd.cli.main(argv)
    return code, err.getvalue()


class FitCapture:
    """Keeps the return value and wall time of each ``fit_hierarchy`` call.

    Installed once per process; the names bound to the original function in
    every gedecomp module are rebound to the wrapper.
    """

    def __init__(self, gd):
        original = getattr(gd.pipeline, "fit_hierarchy", None)
        if original is None:
            raise RuntimeError("gedecomp.pipeline.fit_hierarchy no longer exists")
        self.calls: list[tuple[object, float]] = []

        def fit_hierarchy(*args, **kwargs):
            start = time.perf_counter()
            fitted = original(*args, **kwargs)
            self.calls.append((fitted, time.perf_counter() - start))
            return fitted

        rebind(original, fit_hierarchy)

    def take(self) -> list[tuple[object, float]]:
        calls, self.calls = self.calls, []
        return calls


class Workload:
    """Base: a workload prepares inputs once, then runs numbered operations."""

    name = ""

    def __init__(self, gd, seed: int, work: Path, size: str):
        self.gd = gd
        self.seed = seed
        self.work = work
        self.cfg = SIZES[size][self.name]

    @property
    def quality_ops(self) -> int:
        """Operations 0 .. quality_ops-1 feed the deterministic quality metrics."""
        return self.cfg["quality_ops"]

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError


class National(Workload):
    """One full-length fit of the 2013 national table, cycling gb2 / sm / ln."""

    name = "national"
    FAMILIES = ("gb2", "sm", "ln")

    def setup(self) -> None:
        gd = self.gd
        self.sample = gd.GroupedSample(specs.NATIONAL_BOUNDARIES, specs.national_counts(), "jp2013")

    def _config(self, seed: int):
        if self.cfg["iterations"] is None:  # the library default chain length
            return self.gd.McmcConfig(seed=seed)
        return self.gd.McmcConfig(iterations=self.cfg["iterations"], burnin=self.cfg["burnin"], seed=seed)

    def op(self, index: int) -> OpResult:
        gd = self.gd
        family = self.FAMILIES[index % len(self.FAMILIES)]
        config = self._config(specs.derived_seed(self.seed, 2, index))
        clock = Clock()
        draws = gd.fit(family, self.sample, config)
        fitted = time.perf_counter()
        ge = {theta: gd.posterior_ge(draws, theta) for theta in GE_THETAS}
        mean = gd.posterior_mean_income(draws)
        result = clock.result(fit_s=fitted - clock.wall)
        result.ess.append((family, theil_ess(draws)))
        result.failures = self.check(family, {t: s.value for t, s in ge.items()}, mean.value)
        if family == "gb2":
            result.rel_errors += [abs(ge[1.0].value - specs.PUBLISHED_THEIL) / specs.PUBLISHED_THEIL,
                                  abs(ge[0.0].value - specs.PUBLISHED_MLD) / specs.PUBLISHED_MLD]
        return result

    @staticmethod
    def check(family: str, ge: dict, mean: float) -> list[str]:
        failures = [f"{family}: GE({t:g}) = {v!r} is not finite" for t, v in ge.items() if not _finite(v)]
        if not _finite(mean):
            failures.append(f"{family}: mean income {mean!r} is not finite")
        if family == "gb2" and not failures:
            if abs(ge[1.0] - specs.PUBLISHED_THEIL) > specs.THEIL_BAND:
                failures.append(f"gb2: Theil {ge[1.0]:.5f} outside {specs.PUBLISHED_THEIL} +- {specs.THEIL_BAND}")
            if abs(ge[0.0] - specs.PUBLISHED_MLD) > specs.MLD_BAND:
                failures.append(f"gb2: MLD {ge[0.0]:.5f} outside {specs.PUBLISHED_MLD} +- {specs.MLD_BAND}")
        return failures


def _tree_ess(capture: FitCapture, result: OpResult) -> None:
    calls = capture.take()
    if not calls:
        result.failures.append("fit_hierarchy was not called")
    for fitted, seconds in calls:
        result.fit_s += seconds
        result.ess += [(posterior.family, theil_ess(posterior)) for posterior in fitted.draws.values()]


class WideTree(Workload):
    """The CLI pipeline over many short chains (a synthetic 6 x 6 tree)."""

    name = "wide-tree"

    def setup(self) -> None:
        c = self.cfg
        spec = specs.tree_spec(self.seed, c["regions"], c["leaves"], c["population"], c["fraction"])
        spec_path = specs.write_spec(self.work / "wide_spec.json", spec)
        sim_dir = self.work / "sim"
        code, err = _run_cli(self.gd, ["simulate", "--spec", str(spec_path), "--out", str(sim_dir)]
                             + _theta_args(GE_THETAS))
        if code != 0:
            raise RuntimeError(f"simulate failed: {err}")
        self.manifest = sim_dir / "manifest.json"
        self.truth = json.loads((sim_dir / "truth.json").read_text())
        self.capture = FitCapture(self.gd)

    def op(self, index: int) -> OpResult:
        c = self.cfg
        out = self.work / f"op{index}"
        argv = ["pipeline", "--manifest", str(self.manifest), "--out", str(out), "--method", "proposed",
                "--iters", str(c["iters"]), "--burnin", str(c["burnin"]),
                "--seed", str(specs.derived_seed(self.seed, 3, index))] + _theta_args(GE_THETAS)
        clock = Clock()
        code, err = _run_cli(self.gd, argv)
        result = clock.result()
        _tree_ess(self.capture, result)
        if code != 0:
            result.failures.append(f"pipeline exited {code}: {err.strip()}")
        else:
            reports = [self.gd.dataio.load_report(p) for p in sorted(out.glob("report_theta_*.json"))]
            result.failures += self.check(reports)
            for report in reports:
                truth = self.truth[f"{report.theta:g}"]
                for component in TRUTH_COMPONENTS:
                    result.rel_errors.append(abs(getattr(report, component) - truth[component]) / abs(truth[component]))
        shutil.rmtree(out, ignore_errors=True)
        return result

    @staticmethod
    def check(reports) -> list[str]:
        failures = []
        if sorted(r.theta for r in reports) != sorted(GE_THETAS):
            failures.append(f"reports cover thetas {[r.theta for r in reports]}, expected {list(GE_THETAS)}")
        for report in reports:
            gap = report.identity_gap
            if not abs(gap) <= IDENTITY_TOL:
                failures.append(f"theta={report.theta:g}: identity gap {gap!r}")
            for row in (*report.regions, *report.subregions):
                bad = [k for k, v in vars(row).items() if isinstance(v, float) and not math.isfinite(v)]
                if bad:
                    failures.append(f"theta={report.theta:g} {row.id}: non-finite {bad}")
        return failures


class Sensitivity(Workload):
    """A theta-sensitivity study: three-method comparison plus a GE surface."""

    name = "sensitivity"

    def setup(self) -> None:
        c = self.cfg
        spec = specs.tree_spec(self.seed, c["regions"], c["leaves"], c["population"], c["fraction"])
        self.spec_path = specs.write_spec(self.work / "sensitivity_spec.json", spec)
        self.capture = FitCapture(self.gd)

    def op(self, index: int) -> OpResult:
        c = self.cfg
        out = self.work / f"op{index}"
        thetas = _theta_args(SENSITIVITY_THETAS)
        compare = ["compare", "--spec", str(self.spec_path), "--out", str(out / "compare"),
                   "--iters", str(c["iters"]), "--burnin", str(c["burnin"]),
                   "--seed", str(specs.derived_seed(self.seed, 4, index))] + thetas
        surface = ["surface", "--out", str(out / "surface"), "--b", repr(SURFACE_B), "--a-num", str(c["grid"]),
                   "--q-num", str(c["grid"])] + thetas
        clock = Clock()
        code_compare, err_compare = _run_cli(self.gd, compare)
        code_surface, err_surface = _run_cli(self.gd, surface)
        result = clock.result()
        _tree_ess(self.capture, result)
        if code_compare != 0:
            result.failures.append(f"compare exited {code_compare}: {err_compare.strip()}")
        else:
            rows = _read_csv(out / "compare" / "comparison.csv")
            result.failures += self.check_comparison(rows)
            result.rel_errors += [abs(float(r["error"])) / abs(float(r["truth"])) for r in rows
                                  if r["method"] == "proposed" and r["component"] in TRUTH_COMPONENTS]
        if code_surface != 0:
            result.failures.append(f"surface exited {code_surface}: {err_surface.strip()}")
        else:
            rows = _read_csv(out / "surface" / "surface.csv")
            rng = np.random.default_rng(specs.derived_seed(self.seed, 5, index))
            result.failures += self.check_surface(self.gd, rows, c["grid"], rng)
        shutil.rmtree(out, ignore_errors=True)
        return result

    @staticmethod
    def check_comparison(rows) -> list[str]:
        failures = []
        groups: dict[tuple[str, str], dict[str, float]] = {}
        for row in rows:
            groups.setdefault((row["method"], row["theta"]), {})[row["component"]] = float(row["estimate"])
        expected = {(m, repr(float(t))) for m in ("proposed", "separate", "mixture") for t in SENSITIVITY_THETAS}
        if set(groups) != expected:
            failures.append(f"comparison covers {len(groups)} (method, theta) pairs, expected {len(expected)}")
        for (method, theta), comp in groups.items():
            parts = [comp.get(k, math.nan) for k in ("between", "residual_region", "sum_weighted_between_sub",
                                                     "sum_weighted_within_sub", "residual_subregion")]
            total = comp.get("ge_total", math.nan)
            gap = total - sum(parts)
            if not abs(gap) <= IDENTITY_TOL * max(1.0, abs(total)):
                failures.append(f"{method} theta={theta}: components miss GE_total by {gap!r}")
        return failures

    @staticmethod
    def check_surface(gd, rows, grid: int, rng) -> list[str]:
        expected = len(SENSITIVITY_THETAS) * grid * grid
        if len(rows) != expected:
            return [f"surface has {len(rows)} rows, expected {expected}"]
        failures = []
        for k in rng.choice(len(rows), size=min(SURFACE_SPOT_CHECKS, len(rows)), replace=False):
            row = rows[int(k)]
            theta, a, q = float(row["theta"]), float(row["a"]), float(row["q"])
            try:
                want = gd.SM(a, SURFACE_B, q).ge(theta)
            except ValueError:
                want = None  # outside the moment window: the cell must be empty
            got = float(row["ge"]) if row["ge"] else None
            if (want is None) != (got is None) or (
                    want is not None and not abs(got - want) <= 1e-12 * max(1.0, abs(want))):
                failures.append(f"surface cell theta={theta:g} a={a:g} q={q:g}: {got!r} != SM.ge {want!r}")
        return failures


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


WORKLOADS = {cls.name: cls for cls in (National, WideTree, Sensitivity)}
