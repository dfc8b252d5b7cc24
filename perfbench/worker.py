"""One benchmark process: set up a workload, warm up, then run and measure ops.

Started by ``run.py``; not meant to be run by hand.  With ``--role setup``
the process stops after the warm-up op and reports only its set-up time.
With ``--role run`` it goes on to a closed loop of operations (one caller,
each op waits for the previous one) and prints one JSON line of raw
measurements.  Set-up time is the CPU time of this process up to the end
of the warm-up op, so it covers interpreter start, imports, the workload's
inputs and the first op, scaled to the reference machine speed like op
times; the wall time from the launcher's spawn is kept as ``setup_wall_s``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_LOAD_S, cpu_per_load  # noqa: E402

# end-to-end interfaces; each must exist or the run fails loudly
REQUIRED = ("fit", "posterior_ge", "posterior_mean_income", "GroupedSample", "McmcConfig", "SM")
SUBMODULES = ("cli", "dataio", "pipeline")
# reference loads (about 2 ms each) run before and after set-up
SETUP_CALIBRATION_LOADS = 100


def import_gedecomp(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    gd = importlib.import_module("gedecomp")
    if not Path(gd.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported gedecomp from {gd.__file__}, not from {src}")
    for sub in SUBMODULES:
        importlib.import_module(f"gedecomp.{sub}")
    missing = [name for name in REQUIRED if not hasattr(gd, name)]
    if missing or not hasattr(gd.cli, "main") or not hasattr(gd.dataio, "load_report"):
        raise RuntimeError(f"gedecomp no longer provides {missing or 'cli.main / dataio.load_report'}")
    return gd


def run_op(workload, index: int):
    """One op with its output check; an exception counts as a failed op."""
    try:
        return workload.op(index)
    except Exception:  # the op boundary: record and keep measuring
        from workloads import OpResult

        return OpResult(wall_s=math.nan, cpu_s=math.nan, failures=[traceback.format_exc(limit=3)])


def op_loop(workload, first: int, seconds: float, min_ops: int, before_op=None) -> list:
    """Run ops for ``seconds`` (at least ``min_ops``), timing the reference
    load after each one; an op's ``ref_s`` scales its CPU time by the mean
    speed of the loads just before and just after it."""
    loads = workload.cfg["calibration_loads"]
    results = []
    speed = cpu_per_load(loads)
    deadline = time.perf_counter() + seconds
    while len(results) < min_ops or time.perf_counter() < deadline:
        index = first + len(results)
        if before_op is not None:
            before_op(index)
        result = run_op(workload, index)
        after = cpu_per_load(loads)
        result.ref_s = result.cpu_s * REFERENCE_LOAD_S / ((speed + after) / 2.0)
        result.load_cpu_s = after
        speed = after
        results.append(result)
    return results


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail(walls: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return None
    ordered = sorted(walls)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    gd = import_gedecomp(Path(args.root))
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](gd, args.seed, work, args.size)
    # The machine's speed before and after set-up; set-up CPU time is scaled
    # by their mean, like op times (see calibrate.py).
    loads = SETUP_CALIBRATION_LOADS
    before = cpu_per_load(loads)
    workload.setup()
    warm = run_op(workload, 0)
    setup_wall_s = time.monotonic() - args.launched
    setup_cpu_s = time.process_time() - before * loads
    after = cpu_per_load(loads)
    out: dict = {"setup_s": setup_cpu_s * REFERENCE_LOAD_S / ((before + after) / 2.0),
                 "setup_wall_s": setup_wall_s, "setup_cpu_s": setup_cpu_s}
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    ops = [warm]
    if args.trace == 0:
        measured = op_loop(workload, 1, args.seconds, workload.quality_ops - 1)
        traced = []
    else:  # a third of the time untraced, the rest traced, at least one op each
        from tracing import Tracer, summarise

        measured = op_loop(workload, 1, args.seconds / 3.0, 1)
        tracer = Tracer(gd).install()
        try:
            traced = op_loop(workload, len(measured) + 1, args.seconds * 2.0 / 3.0, 1,
                             before_op=lambda index: setattr(tracer, "op", index))
        finally:
            tracer.uninstall()
        ok = [r for r in traced if not r.failures]
        out["trace"] = summarise(tracer.spans, tracer.counted, [r.wall_s for r in ok])
        out["trace"]["absent"] = tracer.absent
        out["trace"]["op_p50_s"] = median([r.wall_s for r in ok])
        out["trace"]["op_p50_ref_s"] = median([r.ref_s for r in ok])
    ops += measured + traced

    ok = [r for r in measured if not r.failures]
    walls = [r.wall_s for r in ok]
    fit_s = sum(r.fit_s for r in ok)
    out.update({
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.failures),
        "failures": [f for r in ops for f in r.failures][:20],
        "op_walls": walls,
        "ops": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "ref_s": r.ref_s, "load_cpu_s": r.load_cpu_s}
                for r in measured],
        "op_p50_s": median(walls),
        "op_cpu_p50_s": median([r.cpu_s for r in ok]),
        "op_p50_ref_s": median([r.ref_s for r in ok]),
        "load_cpu_ms": 1e3 * median([r.load_cpu_s for r in measured]),
        "op_tail": tail(walls),
        "ess_per_s": sum(e for r in measured if not r.failures for _, e in r.ess) / fit_s if fit_s else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    })
    if args.trace == 0:  # deterministic quality over the fixed prefix of ops
        quality = ops[: workload.quality_ops]
        ess = [pair for r in quality for pair in r.ess]
        errors = [e for r in quality for e in r.rel_errors]
        by_family: dict[str, list[float]] = {}
        for family, value in ess:
            by_family.setdefault(family, []).append(value)
        family_mean = {family: statistics.fmean(values) for family, values in sorted(by_family.items())}
        # Geometric mean of the family means, weighted by fits.  On national
        # each family weighs a third, so the well-mixing ln fits do not drown
        # out a loss in the gb2 fits, as they do in a plain mean over fits.
        out["ess_theil"] = statistics.geometric_mean([family_mean[f] for f, _ in ess]) if ess else math.nan
        out["ess_theil_by_family"] = family_mean
        out["truth_rel_err"] = statistics.fmean(errors) if errors else math.nan
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
