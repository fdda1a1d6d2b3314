"""Per-method reference for the LMC and MMC linearity tests.

This is the path the single linearity pass in ``regimetest.linearity``
replaced: every method draws its own null ensemble, LMC reduces the filtered
series with the scalar statistic formulas of ``moments_oracle`` and ranks it
with the comparison-matrix rank rule below, and MMC filters the grid with
one matrix product and ranks every grid row before it takes the first
maximizer, with no early stop.  The grid is built as a list of ``itertools.product``
tuples and filtered point by point with the ``np.roots`` rule (smallest root
modulus above one), which the exact step-down rule
``regimetest.msar.stationary_rows`` replaced; the two agree on every grid the
tests build.  Tests compare the pass against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from moments_oracle import compute_quartet
from regimetest.linearity import ols_ar_fit
from regimetest.mctest import (
    LogisticCoeffTable,
    approx_pvalue_matrix,
    combine_matrix,
    simulate_null_quartets,
    tie_breaker_uniforms,
)
from regimetest.moments import demean, quartet_matrix


def rank_pvalues(xi0, xi_sim, u0: float, us: np.ndarray):
    """Ranks and p-values ``(N + 1 - rank) / N`` of data statistics against
    one replicate set, from the ``(rows, N - 1)`` matrix of every comparison:
    a replicate is below a data statistic when its value is smaller, or
    equal with a smaller tie-breaker.  The rank rule that the sort-based
    ``regimetest.mctest.rank_pvalues`` replaced."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    xi_sim = np.asarray(xi_sim, dtype=float)
    below = (xi_sim[None, :] < xi0[:, None]) | (
        (xi_sim[None, :] == xi0[:, None]) & (us[None, :] < u0)
    )
    ranks = 1 + below.sum(axis=1)
    N = len(xi_sim) + 1
    return ranks, (N + 1 - ranks) / N


def min_root_modulus(phi: np.ndarray) -> float:
    """Smallest modulus of the roots of ``1 - phi_1 z - ... - phi_r z^r``
    from ``np.roots``, after dropping trailing zero coefficients."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    nz = np.nonzero(phi)[0]
    if len(nz) == 0:
        return float("inf")
    phi = phi[: nz[-1] + 1]
    return float(np.min(np.abs(np.roots(np.r_[-phi[::-1], 1.0]))))


def grid_candidates(fit, points_per_dim: int) -> np.ndarray:
    """Every point of the +/- 2 se box, in row-major order, before filtering."""
    offsets = np.zeros(1) if points_per_dim == 1 else np.linspace(-1.0, 1.0, points_per_dim)
    offsets[(points_per_dim - 1) // 2] = 0.0
    hw = 2.0 * fit.phi_se
    axes = [fit.phi[k] + offsets * hw[k] for k in range(len(fit.phi))]
    return np.array(list(itertools.product(*axes)))


def grid_points(fit, points_per_dim: int) -> np.ndarray:
    """The stationary grid points, kept one point at a time."""
    points = grid_candidates(fit, points_per_dim)
    return points[np.array([min_root_modulus(p) > 1.0 for p in points])]


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
    p = float(rank_pvalues(f0, fs, u[0], u[1:])[1][0])
    return p, fit.phi.copy(), min_root_modulus(fit.phi), 1


def grid_quartets(y: np.ndarray, r: int, points: np.ndarray) -> np.ndarray:
    """Quartets of the series filtered at every grid point by one matrix
    product; a degenerate row raises as the scalar formulas do."""
    lags = np.stack([y[r - k : len(y) - k] for k in range(1, r + 1)])
    Z = y[r:][None, :] - points @ lags
    Qz = quartet_matrix(Z)
    if np.isnan(Qz).any():
        compute_quartet(demean(Z[np.isnan(Qz).any(axis=1)][0]))
    return Qz


def grid_pvalues(Qz: np.ndarray, Tz: int, N: int, rule: str, seed: int) -> np.ndarray:
    """The MC p-value of every grid row, all ranked at once against the
    method's own null ensemble."""
    f0 = combine_matrix(approx_pvalue_matrix(Qz, LogisticCoeffTable.default(), Tz), rule)
    fs, u = _replicate_statistics(Tz, N, rule, seed)
    return rank_pvalues(f0, fs, u[0], u[1:])[1]


def mmc_at(points: np.ndarray, Qz: np.ndarray, Tz: int, N: int, rule: str, seed: int):
    """(p-value, phi at report, min root modulus, grid points evaluated) of
    the grid ``points`` with quartets ``Qz``: the first maximizer."""
    pvals = grid_pvalues(Qz, Tz, N, rule, seed)
    best = int(np.argmax(pvals))
    return float(pvals[best]), points[best].copy(), min_root_modulus(points[best]), len(points)


def mmc(y: np.ndarray, r: int, N: int, rule: str, seed: int, points_per_dim: int):
    """(p-value, phi at report, min root modulus, grid points evaluated)."""
    points = grid_points(ols_ar_fit(y, r), points_per_dim)
    return mmc_at(points, grid_quartets(y, r, points), len(y) - r, N, rule, seed)


def report(y: np.ndarray, r: int, method: str, N: int, seed: int, points_per_dim: int):
    kind, _, rule = method.partition("_")
    if kind == "LMC":
        return lmc(y, r, N, rule, seed)
    return mmc(y, r, N, rule, seed, points_per_dim)
