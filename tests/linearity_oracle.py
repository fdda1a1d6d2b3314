"""Per-method reference for the LMC and MMC linearity tests.

This is the path the single linearity pass in ``regimetest.linearity``
replaced: every method draws its own null ensemble, LMC reduces the filtered
series with the scalar statistic formulas of ``moments_oracle`` and ranks it
inline, and MMC filters the grid with one matrix product.  Tests compare the
pass against it.
"""

from __future__ import annotations

import numpy as np

from moments_oracle import compute_quartet
from regimetest.linearity import build_grid, ols_ar_fit
from regimetest.mctest import (
    LogisticCoeffTable,
    approx_pvalue_matrix,
    combine_matrix,
    rank_pvalues,
    simulate_null_quartets,
    tie_breaker_uniforms,
)
from regimetest.moments import demean, quartet_matrix
from regimetest.msar import min_root_modulus


def _replicate_statistics(Tz: int, N: int, rule: str, seed: int):
    table = LogisticCoeffTable.default()
    Q, _ = simulate_null_quartets(Tz, N, seed)
    return combine_matrix(approx_pvalue_matrix(Q, table, Tz), rule), tie_breaker_uniforms(N, seed)


def lmc(y: np.ndarray, r: int, N: int, rule: str, seed: int):
    """(p-value, phi at report, min root modulus, grid points evaluated)."""
    fit = ols_ar_fit(y, r)
    z = y[r:].copy()
    for k in range(1, r + 1):
        z -= fit.phi[k - 1] * y[r - k : len(y) - k]
    q = compute_quartet(demean(z))
    f0 = combine_matrix(approx_pvalue_matrix(q[None, :], LogisticCoeffTable.default(), len(z)), rule)[0]
    fs, u = _replicate_statistics(len(z), N, rule, seed)
    rank = 1 + int(((fs < f0) | ((fs == f0) & (u[1:] < u[0]))).sum())
    return (N + 1 - rank) / N, fit.phi.copy(), min_root_modulus(fit.phi), 1


def mmc(y: np.ndarray, r: int, N: int, rule: str, seed: int, points_per_dim: int):
    """(p-value, phi at report, min root modulus, grid points evaluated)."""
    points = build_grid(ols_ar_fit(y, r), points_per_dim).points
    lags = np.stack([y[r - k : len(y) - k] for k in range(1, r + 1)])
    Z = y[r:][None, :] - points @ lags
    Tz = Z.shape[1]
    Qz = quartet_matrix(Z)
    if np.isnan(Qz).any():
        compute_quartet(demean(Z[np.isnan(Qz).any(axis=1)][0]))
    f0 = combine_matrix(approx_pvalue_matrix(Qz, LogisticCoeffTable.default(), Tz), rule)
    fs, u = _replicate_statistics(Tz, N, rule, seed)
    pvals = rank_pvalues(f0, fs, u[0], u[1:])
    best = int(np.argmax(pvals))
    return float(pvals[best]), points[best].copy(), min_root_modulus(points[best]), len(points)


def report(y: np.ndarray, r: int, method: str, N: int, seed: int, points_per_dim: int):
    kind, _, rule = method.partition("_")
    if kind == "LMC":
        return lmc(y, r, N, rule, seed)
    return mmc(y, r, N, rule, seed, points_per_dim)
