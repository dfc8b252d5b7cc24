"""Bulk effective sample size: rank-normalised and split-chain.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis 16(2).  Each chain is
split in half, the pooled draws are replaced by normal scores of their
ranks, and the autocorrelation sum is truncated by Geyer's initial
monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT, for lags 0 .. n-1."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def _split(chains: np.ndarray) -> np.ndarray:
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, -half:]], axis=0)


def _rank_normalise(chains: np.ndarray) -> np.ndarray:
    # average ranks, since a random-walk chain repeats every rejected state
    _, inverse, counts = np.unique(chains, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse].reshape(chains.shape)
    return special.ndtri((ranks - 0.375) / (chains.size + 0.25))


def _ess(chains: np.ndarray) -> float:
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = float(acov[:, 0].mean()) * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence over pairs (rho_{2k}, rho_{2k+1}) ...
    pair_sums = []
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        pair_sums.append(pair)
    # ... made monotone non-increasing
    pair_sums = np.minimum.accumulate(np.asarray(pair_sums))
    tau = -1.0 + 2.0 * float(pair_sums.sum())
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(draws) -> float:
    """Bulk ESS of a scalar quantity.

    ``draws`` is one chain (shape ``(n,)``) or several chains of equal
    length (shape ``(chains, n)``).  Only ranks matter, so infinite draws
    are allowed; NaN is not.
    """
    chains = np.atleast_2d(np.asarray(draws, dtype=float))
    if chains.ndim != 2 or chains.shape[1] < 4:
        raise ValueError("need at least four draws per chain")
    if np.any(np.isnan(chains)):
        raise ValueError("draws must not be NaN")
    return _ess(_rank_normalise(_split(chains)))
