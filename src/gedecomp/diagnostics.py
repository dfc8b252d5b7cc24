"""Sampler diagnostics: the Pareto k-hat of importance weights.

``pareto_k`` is the shape estimate of Pareto-smoothed importance sampling
(PSIS; Vehtari, Simpson, Gelman, Yao & Gabry 2024, JMLR): a generalized
Pareto distribution is fitted to the largest weights, and its shape says
how heavy their tail is.  Below 0.5 the weights have a finite variance;
above 0.7 an importance or independence sampler built on them is
unreliable.  The fit is Zhang & Stephens (2009, Technometrics), in numpy
only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gpd_shape", "pareto_k"]

#: fewest tail weights a shape is estimated from; fewer give k-hat = inf
MIN_TAIL = 5


def gpd_shape(exceedances: np.ndarray) -> float:
    """Shape of a generalized Pareto fit to positive exceedances (Zhang-Stephens).

    The profile likelihood of theta = shape / scale is averaged over a
    fixed grid of theta values under the Zhang-Stephens prior; the shape at
    that posterior mean is then shrunk toward 0.5 by a weak prior worth ten
    observations (as PSIS does).  Usual sign: a positive shape is a heavy
    tail, 1 / shape is the number of finite moments.
    """
    x = np.sort(np.asarray(exceedances, dtype=float))
    n = len(x)
    m = 30 + int(math.sqrt(n))
    quartile = x[int(n / 4 + 0.5) - 1]
    # grid of b = -theta; the grid's upper end stays below 1 / max(x)
    b = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))) / (3.0 * quartile)
    shape = np.log1p(-b[:, None] * x).mean(axis=1)
    profile = n * (np.log(-b / shape) - shape - 1.0)
    with np.errstate(over="ignore"):  # a negligible grid point gets weight 0
        weights = 1.0 / np.exp(profile - profile[:, None]).sum(axis=1)
    b_mean = float(np.sum(b * weights) / weights.sum())
    shape_mean = float(np.log1p(-b_mean * x).mean())
    return (n * shape_mean + 10 * 0.5) / (n + 10)


def pareto_k(log_weights: np.ndarray) -> float:
    """PSIS k-hat of independent importance draws with these log weights.

    The tail is the largest min(n / 5, 3 sqrt(n)) weights; their
    exceedances over the next weight get a generalized Pareto fit.  Returns
    inf when fewer than MIN_TAIL weights lie strictly above that threshold
    (too few draws, or too few with a finite weight).
    """
    lw = np.asarray(log_weights, dtype=float)
    n = len(lw)
    tail_len = int(math.ceil(min(0.2 * n, 3.0 * math.sqrt(n))))
    if n <= tail_len:
        return math.inf
    top = np.sort(lw)[n - tail_len - 1 :]
    threshold, shift = top[0], top[-1]
    if not math.isfinite(shift):
        return math.inf
    exceedances = np.exp(top[1:] - shift) - np.exp(threshold - shift)
    exceedances = exceedances[exceedances > 0.0]  # ties with the threshold are not tail
    if len(exceedances) < MIN_TAIL:
        return math.inf
    return gpd_shape(exceedances)
