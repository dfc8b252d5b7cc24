"""Per-module tracing of gedecomp from outside the package.

Each layer's public functions are wrapped where their callers look them
up: every module-level name in ``gedecomp.*`` bound to the function is
rebound to the wrapper, and methods are replaced on their class.  A wrapped
call records a span (name, start, end, parent, op id) in memory.  The
per-iteration callees of the sampler (``log_likelihood``, ``log_prior`` and
the family CDFs) would make ~10^5 spans per operation, so they record only
a call count, time and self time on the enclosing span.  A target whose
name no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("distributions", "grouped", "pipeline", "inequality", "benchmark", "sim", "dataio", "cli")


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Rebind every gedecomp module-level name bound to ``original``.

    Returns the (module, name) pairs that were rebound.
    """
    rebound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gedecomp" or name.startswith("gedecomp.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound.append((module, attr))
    return rebound


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    # time of counted callees not nested in another counted callee, within this span
    counted_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _fit_extra(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"family": args[0] if args else kwargs["family"], "iterations": config.iterations,
            "accept_rate": result.acceptance_rate}


def _incomes_extra(args, kwargs, result):
    return {"incomes": len(args[0] if args else kwargs["incomes"])}


def _cells_extra(args, kwargs, result):
    return {"cells": sum(surface.values.size for surface in result)}


def _bytes_extra(args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size if path.is_file() else 0}


class Tracer:
    """Installs the wrappers, collects spans, and restores everything on exit."""

    def __init__(self, gd):
        self.gd = gd
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counted_stack: list[float] = []
        self.top_counted_s = 0.0
        # counted callee name -> [calls, seconds, self seconds, points]
        self.counted: dict[str, list] = {}
        self.op: int | None = None
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            if parent is not None and tracer.spans[parent].name == name:
                return fn(*args, **kwargs)  # one span per name: solve_uniform -> solve
            span = Span(name, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            counted_before = tracer.top_counted_s
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.counted_s = tracer.top_counted_s - counted_before
                tracer.stack.pop()
            if extra is not None:
                span.extra.update(extra(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name: str, fn, points: bool = False):
        tracer = self
        stack = self.counted_stack
        acc = self.counted.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - child
                if points:
                    acc[3] += getattr(args[1], "size", 1)
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_counted_s += elapsed

        return wrapper

    # -- installation -------------------------------------------------------

    def _function(self, name: str, module: str, attr: str, make):
        owner = getattr(self.gd, module, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{name} ({module}.{attr})")
            return
        for module_obj, key in rebind(original, make(name, original)):
            self._restore.append((module_obj, key, original))

    def _method(self, name: str, module: str, cls: str, attr: str, make):
        owner = getattr(getattr(self.gd, module, None), cls, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{name} ({module}.{cls}.{attr})")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(name, original))

    def install(self) -> "Tracer":
        span, counted = self._span, self._counted
        for family, cls in (("gb2", "GB2"), ("sm", "SM"), ("ln", "LN")):
            self._method(f"distributions.cdf.{family}", "distributions", cls, "cdf",
                         lambda n, f: counted(n, f, points=True))
        for attr in ("ge_over_draws", "mean_over_draws"):
            self._function(f"distributions.{attr}", "distributions", attr, span)
        self._function("grouped.fit", "grouped", "fit", lambda n, f: span(n, f, _fit_extra))
        for attr in ("log_likelihood", "log_prior"):
            self._function(f"grouped.{attr}", "grouped", attr, counted)
        for attr in ("posterior_ge", "posterior_mean_income"):
            self._function(f"grouped.{attr}", "grouped", attr, span)
        self._function("pipeline.fit_hierarchy", "pipeline", "fit_hierarchy", span)
        assemblers = [a for a in dir(getattr(self.gd, "pipeline", None)) if a.startswith("assemble")]
        if not assemblers:
            self.absent.append("pipeline.assemble (pipeline.assemble*)")
        for attr in assemblers:
            self._function("pipeline.assemble", "pipeline", attr, span)
        self._function("pipeline.ge_surface", "pipeline", "ge_surface", lambda n, f: span(n, f, _cells_extra))
        self._function("inequality.decompose_finite", "inequality", "decompose_finite",
                       lambda n, f: span(n, f, _incomes_extra))
        self._function("inequality.between_from_means", "inequality", "between_from_means", span)
        for attr in ("solve", "solve_uniform", "solve_raking"):
            self._function("benchmark.solve", "benchmark", attr, span)
        self._function("sim.generate", "sim", "generate", span)
        self._method("sim.multilevel_truth", "sim", "SyntheticData", "multilevel_truth", span)
        self._function("dataio.load_manifest", "dataio", "load_manifest", span)
        self._function("dataio.save_report", "dataio", "save_report", lambda n, f: span(n, f, _bytes_extra))
        writers = [a for a in dir(getattr(self.gd, "dataio", None)) if a.startswith("write_") and a.endswith("csv")]
        if not writers:
            self.absent.append("dataio.write_csv (dataio.write_*csv)")
        for attr in writers:
            self._function("dataio.write_csv", "dataio", attr, lambda n, f: span(n, f, _bytes_extra))
        self._function("cli.main", "cli", "main", span)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _module(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(spans: list[Span], counted_totals: dict, op_walls: list[float]) -> dict:
    """Per-name totals, per-module self time and shares over the traced ops.

    Times and counts are per operation; shares are of summed op wall time.
    """
    n_ops = max(len(op_walls), 1)
    wall = sum(op_walls)
    names: dict[str, dict] = {}
    module_self = {m: 0.0 for m in MODULES}
    children = [0.0] * len(spans)
    children_counted = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
            children_counted[span.parent] += span.counted_s
    fit = {"iterations": {}, "seconds": {}, "accept": []}
    for i, span in enumerate(spans):
        duration = span.end - span.start
        # counted time inside child spans is already inside their durations
        self_s = duration - children[i] - (span.counted_s - children_counted[i])
        entry = names.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0, "cells": 0,
                                             "incomes": 0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += self_s
        for key in ("bytes", "cells", "incomes"):
            entry[key] += span.extra.get(key, 0)
        module_self[_module(span.name)] = module_self.get(_module(span.name), 0.0) + self_s
        if span.name == "grouped.fit" and "family" in span.extra:
            family = span.extra["family"]
            fit["iterations"][family] = fit["iterations"].get(family, 0) + span.extra["iterations"]
            fit["seconds"][family] = fit["seconds"].get(family, 0.0) + duration
            fit["accept"].append(span.extra["accept_rate"])
    for cname, (_, _, self_s, _) in counted_totals.items():
        module_self[_module(cname)] += self_s
    top_level = sum(s.end - s.start for s in spans if s.parent is None)
    module_self["harness"] = wall - top_level
    return {
        "n_ops": len(op_walls),
        "wall_s": wall,
        "names": {k: {key: value / n_ops for key, value in v.items()} for k, v in names.items()},
        "counted": {k: {"calls": v[0] / n_ops, "s": v[1] / n_ops, "self_s": v[2] / n_ops, "points": v[3] / n_ops}
                    for k, v in counted_totals.items()},
        "self_share_pct": {m: 100.0 * s / wall if wall else 0.0 for m, s in module_self.items()},
        "incl_share_pct": {k: 100.0 * v["s"] / wall if wall else 0.0 for k, v in names.items()},
        "fit": fit,
    }
