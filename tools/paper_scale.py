"""Fit and assemble the paper-sized synthetic tree and print what each cost.

Usage: python tools/paper_scale.py [--iters N] [--burnin M]

The tree is ``perfbench.specs.tree_spec(101, 47, 37, 2000, 0.1)``: a
country, 47 regions and 37 leaves per region (1,787 nodes, 200 sampled
households per leaf), fitted gb2 / sm / ln by level, like the paper's
national, prefectural and municipal levels.  The script generates the tree
with the code of this checkout's ``src/``, fits every node with
``pipeline.fit_hierarchy`` at seed 7 and the given chain length (by
default the library's 10,000/2,000), then assembles the ``proposed``
decomposition at ``dataio.DEFAULT_THETAS``, which summarises every node's
draws at each theta.  It prints the fit's CPU time and the peak resident set
size of its own process after the fit (``getrusage``, generation included),
the assembly's CPU time and the peak after it, and, per family, how many
units took the Laplace path and how many the fallback walk.
``perfbench/specs.py`` is only read.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from gedecomp import dataio, pipeline, sim  # noqa: E402
from gedecomp.grouped import McmcConfig  # noqa: E402
from perfbench import specs  # noqa: E402

TREE = (101, 47, 37, 2000, 0.1)  # seed, regions, leaves per region, population per leaf, sampling fraction
SEED = 7  # the fit's seed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    default = McmcConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=default.iterations)
    parser.add_argument("--burnin", type=int, default=default.burnin)
    args = parser.parse_args(argv)
    config = McmcConfig(iterations=args.iters, burnin=args.burnin, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = specs.write_spec(Path(tmp) / "spec.json", specs.tree_spec(*TREE))
        root = sim.generate(dataio.load_synthetic_spec(spec_path)).root
    start = time.process_time()
    fitted = pipeline.fit_hierarchy(root, config)
    fit_cpu, fit_peak = time.process_time() - start, _peak_rss_mb()
    start = time.process_time()
    for theta in dataio.DEFAULT_THETAS:
        pipeline.assemble(fitted, theta, "proposed")
    assembly_cpu = time.process_time() - start
    paths = Counter((d.family, d.sampler) for d in fitted.draws.values())
    print(f"tree_spec{TREE}: {len(fitted.draws)} nodes at {config.iterations}/{config.burnin}, seed {config.seed}")
    print(f"fit CPU {fit_cpu:.2f} s")
    print(f"peak RSS after fit {fit_peak:.1f} MB")
    print(f"assembly CPU {assembly_cpu:.2f} s (proposed, thetas {', '.join(map(str, dataio.DEFAULT_THETAS))})")
    print(f"peak RSS after assembly {_peak_rss_mb():.1f} MB")
    for family in sorted({family for family, _ in paths}):
        print(f"{family}: {paths[family, 'laplace']} laplace, {paths[family, 'random-walk']} random-walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
