"""A fixed reference load that tracks how fast the machine runs right now.

The benchmark gets a few cores of a shared host, and the speed of those
cores changes from minute to minute: the same op took 3.1 s of CPU in one
run and 4.1 s in the next.  ``reference_load`` is a fixed piece of the kind
of work gedecomp ops consist of (interpreted Python, numpy on 10-element
arrays, scipy special functions and a pass over a large array) and calls no
gedecomp code, so a change to the program leaves it alone while a slower
core slows it down about as much as it slows an op.

Both are timed in CPU time of the process (``time.process_time``): time
the process spends waiting for a core that another process holds stops both
clocks, and a slower core (a lower clock, a busy hyperthread sibling) slows
both, so their ratio cancels it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

# CPU seconds of one reference load on the 2-core Intel Xeon VM the
# baseline in README.md was measured on, at its usual speed.  Op times are
# scaled to that machine: op_p50_ref_s = op CPU time * REFERENCE_LOAD_S /
# (CPU seconds per reference load around the op).
REFERENCE_LOAD_S = 0.002

_POINTS = np.linspace(0.05, 0.95, 9)
_COUNTS = np.arange(1.0, 11.0)
_LARGE = np.linspace(1.0, 50.0, 40_000)


def reference_load() -> float:
    """Run the reference load once; returns a checksum so nothing is skipped."""
    acc = 0.0
    for k in range(60):  # shaped like a bracket log-likelihood evaluation
        params = {"a": 2.0 + 0.01 * (k % 7), "q": 3.0}
        cdf = special.betainc(params["a"], params["q"], _POINTS)
        shares = np.diff(np.concatenate(([0.0], cdf, [1.0])))
        acc += float(_COUNTS @ np.log(shares)) * 1e-6 + sum(v * v for v in params.values())
    acc += float(np.log(_LARGE).sum() + np.sort(_LARGE[::-1])[0] + special.gammaln(_LARGE).sum() * 1e-9)
    return acc


def cpu_per_load(loads: int) -> float:
    """CPU seconds per reference load, over ``loads`` loads run back to back."""
    start = time.process_time()
    for _ in range(loads):
        reference_load()
    return (time.process_time() - start) / loads
