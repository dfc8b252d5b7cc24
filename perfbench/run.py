"""gedecomp benchmark: national, wide-tree and sensitivity workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload national --seed 1 --seconds 15 --trace 0

Each run sets the workload up in three fresh processes (the median is
``setup_s``, CPU time scaled to the reference machine speed), then
measures operations for ``--seconds`` in the last of them.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` measures a third of the time untraced and
the rest with every gedecomp layer wrapped, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
and ``.perfbench/results/`` hold the environment, every named metric (or
why it is absent) and each layer's share of op time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import end_to_end_metrics, layer_metrics  # noqa: E402

WORKLOADS = ("national", "wide-tree", "sensitivity")
# Every array the sampler touches has 2-10 elements; BLAS threads only add
# scheduler noise.
PINNED_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
TIME_LIMIT_S = 175.0
SETUPS = 3  # set-ups per run; setup_s is their median


class BenchmarkError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(role: str, args, work: Path, started: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    remaining = TIME_LIMIT_S - (time.monotonic() - started)
    if remaining <= 5.0:
        raise BenchmarkError("time limit reached before the measured run")
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--root", str(ROOT), "--work", str(work)]
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        **versions,
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(ROOT),
        "load": "one process, one closed-loop caller",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for self-tests")
    args = parser.parse_args(argv)
    started = time.monotonic()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gedecomp" / "__init__.py").is_file():
        print(f"error: no gedecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [spawn("setup", args, work / f"setup{k}", started) for k in range(SETUPS - 1)]
        raw = spawn("run", args, work / "run", started)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key in ("setup_s", "setup_wall_s"):
        raw[f"{key}_all"] = [s[key] for s in setups] + [raw[key]]
        raw[key] = statistics.median(raw[f"{key}_all"])

    env = environment(args, raw.pop("versions"))
    e2e = end_to_end_metrics(raw)
    if args.trace:
        raw["trace"]["untraced_op_p50_ref_s"] = raw["op_p50_ref_s"]
    named = layer_metrics(raw["trace"]) if args.trace else {}
    metrics = named if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in metrics
               or not isinstance(metrics[m["name"]]["value"], (int, float))
               or not math.isfinite(metrics[m["name"]]["value"])]
    if missing:
        print(f"error: metrics not measured: {missing}; failures: {raw['failures']}", file=sys.stderr)
        return 4

    record = {"environment": env, "raw": raw, "end_to_end": e2e, "per_layer": named}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for failure in raw["failures"]:
        print("FAILED: " + failure.strip().replace("\n", " | "))
    for name, m in sorted((e2e if not args.trace else named).items()):
        note = f"  ({m['note']})" if m.get("note") else ""
        print(f"{name:<40} {m['value']!r:>24} {m['unit']}{note}")
    if args.trace:
        trace = raw["trace"]
        print("self-time share of traced op time, by module: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in sorted(trace["self_share_pct"].items(), key=lambda kv: -kv[1])))
        print("inclusive share of traced op time, by span: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in sorted(trace["incl_share_pct"].items(), key=lambda kv: -kv[1])))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
