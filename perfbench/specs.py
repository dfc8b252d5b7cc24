"""Inputs of the benchmark workloads, generated from the workload seed.

The 2013 national bracket table is kept here, independent of the test
suite, and the synthetic hierarchy specs are written as the JSON that
``gedecomp simulate`` and ``gedecomp compare`` read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# 2013 national table: boundaries in millions of yen, published relative
# frequencies, scaled to an assumed survey of 5 million households.
NATIONAL_BOUNDARIES = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0, float("inf"))
NATIONAL_REL_FREQ = (0.068, 0.139, 0.178, 0.157, 0.126, 0.159, 0.110, 0.047, 0.009, 0.006)
NATIONAL_SIZE = 5_000_000
# Published 2013 GB2 Theil and MLD with the reproduction bands of
# acceptance criterion 2.
PUBLISHED_THEIL = 0.249
PUBLISHED_MLD = 0.27407
THEIL_BAND = 0.01
MLD_BAND = 0.012


def national_counts() -> np.ndarray:
    return np.asarray(NATIONAL_REL_FREQ) * NATIONAL_SIZE


def derived_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and an index path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] & 0x7FFFFFFF)


# Truth parameters come from this fixed stream, so every workload seed fits
# the same kind of tree; the seed draws the population and the chains.
LAYOUT_SEED = 2013


def tree_spec(seed: int, regions: int, leaves: int, population: int, sampling_fraction: float) -> dict:
    """Synthetic hierarchy whose leaf truths alternate between SM and LN.

    Each region shifts the income scale of all its leaves, so the
    between-region term is well away from zero.  Every truth keeps finite
    moments well beyond theta = 2, so GE exists at all benchmark thetas.
    Fit families are gb2 / sm / ln by level.  The realised population and
    its survey sample come from ``seed``.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    region_docs = []
    for r in range(regions):
        log_scale = rng.uniform(-0.3, 0.3)
        leaf_docs = []
        for l in range(leaves):
            if (r * leaves + l) % 2 == 0:
                params = {"family": "sm", "a": rng.uniform(2.8, 3.6),
                          "b": float(np.exp(log_scale)) * rng.uniform(3.0, 5.0), "q": rng.uniform(1.2, 1.8)}
            else:
                params = {"family": "ln", "xi": log_scale + rng.uniform(0.9, 1.5),
                          "sigma2": rng.uniform(0.25, 0.5)}
            leaf_docs.append({
                "id": f"r{r + 1:02d}l{l + 1:02d}",
                "params": {k: v if k == "family" else float(v) for k, v in params.items()},
                "population": population,
            })
        region_docs.append({"id": f"r{r + 1:02d}", "leaves": leaf_docs})
    return {
        "seed": derived_seed(seed, 1),
        "brackets": 10,
        "sampling_fraction": sampling_fraction,
        "country_id": "country",
        "fit_families": {"country": "gb2", "region": "sm", "subregion": "ln"},
        "regions": region_docs,
    }


def write_spec(path: Path, spec: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return path
