"""Run-to-run spread of the benchmark across seeds.

    python3 perfbench/spread.py --workload wide-tree --seeds 1 2 3 4 5 --seconds 15

Runs the benchmark once per seed, one run at a time, with ``--trace 0``,
and prints for each end-to-end metric the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        print(f"{name:<32} median {median:<14.6g} spread {spread:.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
