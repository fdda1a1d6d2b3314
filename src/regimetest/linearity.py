"""End-to-end linearity tests against Markov-switching means and variances.

This module builds the data rows of the exact MC test and filters them: it
fits a linear autoregression by OLS, filters the series at candidate
coefficient vectors and reduces each filtered series to its four moment
statistics.  The filtered observations are i.i.d. under linearity at the
true coefficients, so :func:`~regimetest.mctest.ensemble_pvalues` can rank
each row's combined statistic against statistics of simulated normal
vectors, yielding an exact MC p-value at that point of the nuisance space.

Two procedures deal with the unknown AR coefficients:

* the local (LMC) test evaluates the p-value at the OLS point estimate;
* the maximized (MMC) test maximizes it over a stationarity-filtered grid
  spanning two standard errors around the estimate, holding the simulated
  replicate vectors fixed across the whole grid.  The grid keeps the points
  whose AR roots all lie strictly outside the unit circle, as the exact
  step-down rule ``stationary_rows`` decides.

Both are computed in one pass (:func:`linearity_tests`): the OLS point is
row 0 of one coefficient matrix above the grid points; the rows are filtered
and reduced to their statistic quartets over the row-major blocks of
:func:`~regimetest.moments.row_blocks`, so memory stays bounded at any grid
size, and ranked by the MC core against one null ensemble with one set of
tie-breakers.  The LMC p-value is the p-value of the OLS row, which must be
stationary: an LMC method at a non-stationary OLS point is a ``ValueError``,
so on the default grid, centred on that point, MMC >= LMC holds exactly in
every pass that reports both.  ``lmc_test`` and ``mmc_test`` are thin
wrappers over that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mctest import LogisticCoeffTable, ensemble_pvalues
from .moments import finite_series, quartet_matrix, row_blocks
from .msar import min_root_modulus, stationary_rows

__all__ = [
    "ARFit",
    "NuisanceBox",
    "LinearityReport",
    "ols_ar_fit",
    "ar_filter",
    "linearity_tests",
    "lmc_test",
    "build_grid",
    "mmc_test",
]

METHODS = ("LMC_min", "LMC_prod", "MMC_min", "MMC_prod")


@dataclass(frozen=True)
class ARFit:
    """OLS fit of an autoregression with intercept."""

    intercept: float
    phi: np.ndarray
    phi_se: np.ndarray
    sigma2: float
    T_eff: int


@dataclass(frozen=True)
class NuisanceBox:
    """The nuisance grid: stationary AR coefficient points, one per row, in
    row-major grid order.  A grid passed as ``grid=`` must hold finite,
    stationary rows; the first row that is not raises ``ValueError``."""

    points: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LinearityReport:
    """Result of an LMC or MMC linearity test."""

    method: str
    p_value: float
    phi_at_report: np.ndarray
    min_root_modulus: float
    N: int
    seed: int
    grid_points_evaluated: int
    degenerate_resamples: int = 0


def ols_ar_fit(y: np.ndarray, r: int) -> ARFit:
    """OLS regression of ``y_t`` on an intercept and its first ``r`` lags.

    Conventional standard errors, with the residual variance computed on
    ``T - r - (r + 1)`` degrees of freedom.  A non-finite value or a design
    whose ``lstsq`` rank falls short of its ``r + 1`` columns is a
    ``ValueError``.
    """
    y = finite_series(y)
    T = len(y)
    if r < 0:
        raise ValueError("lag order must be non-negative")
    if T <= r + 2:
        raise ValueError(f"series of length {T} too short for an AR({r}) fit")
    n = T - r
    X = np.column_stack([np.ones(n)] + [y[r - k : T - k] for k in range(1, r + 1)])
    yy = y[r:]
    beta, _, rank, _ = np.linalg.lstsq(X, yy, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("regressor matrix is rank deficient")
    resid = yy - X @ beta
    dof = n - X.shape[1]
    sigma2 = float(resid @ resid / dof) if dof > 0 else float("nan")
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    return ARFit(
        intercept=float(beta[0]),
        phi=beta[1:].copy(),
        phi_se=se[1:].copy(),
        sigma2=sigma2,
        T_eff=n,
    )


def ar_filter(y: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Filtered observations ``z_t = y_t - sum_k phi_k y_{t-k}`` for
    t = r+1 ... T (length T - r).

    An ``(n, r)`` coefficient matrix filters once per row and returns an
    ``(n, T - r)`` array; every row equals the filter at that row's
    coefficients bit for bit.
    """
    y = np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    P = np.atleast_2d(phi)
    r = P.shape[1]
    if len(y) <= r:
        raise ValueError("series too short for the requested filter")
    Z = y[r:] - P[:, :1] * y[r - 1 : -1] if r else np.repeat(y[None, :], len(P), axis=0)
    for k in range(2, r + 1):
        Z -= P[:, k - 1 : k] * y[r - k : len(y) - k]
    return Z if phi.ndim == 2 else Z[0]


def _filtered_quartets(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``quartet_matrix(ar_filter(y, rows))``, bit for bit, computed over the
    ``row_blocks`` of the filtered observations."""
    blocks = row_blocks(len(rows), len(y) - rows.shape[1])
    return np.vstack([quartet_matrix(ar_filter(y, rows[block])) for block in blocks])


def linearity_tests(
    y: np.ndarray,
    r: int,
    methods=METHODS,
    N: int = 100,
    table: LogisticCoeffTable | None = None,
    grid: NuisanceBox | None = None,
    master_seed: int = 0,
    points_per_dim: int | None = None,
) -> list[LinearityReport]:
    """LMC and MMC reports for a series, one per entry of ``methods``, in
    that order, from a single pass.

    The OLS point is row 0 and the nuisance grid (built once, and only when
    an MMC method is requested) follows.  Every row is filtered, reduced to
    its statistic quartet and ranked against one null ensemble, so the LMC
    p-value is row 0's and the MMC p-value is the largest over the grid rows
    (the first maximizer in row-major grid order).  The grid defaults to 41
    points for one lag and 9 points per dimension otherwise.  Unknown
    methods, ``N < 2``, an even or non-positive ``points_per_dim`` and a
    ``points_per_dim`` given with ``grid`` are rejected before any work, an
    LMC method at a non-stationary OLS point after the fit.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; use {', '.join(METHODS)}")
    if N < 2:
        raise ValueError("N must be at least 2")
    if points_per_dim is not None:
        if grid is not None:
            raise ValueError("give grid= or points_per_dim=, not both")
        _check_points_per_dim(points_per_dim)
    requested = [(method, *method.split("_")) for method in methods]
    if grid is not None:
        _check_grid(grid.points, r)
    y = np.asarray(y, dtype=float)
    fit = ols_ar_fit(y, r)
    rows = fit.phi[None, :]
    if any(kind == "LMC" for _, kind, _ in requested) and not stationary_rows(rows)[0]:
        raise ValueError(f"LMC needs a stationary OLS point; {fit.phi.tolist()} has smallest "
                         f"root modulus {min_root_modulus(fit.phi):.6g}")
    if any(kind == "MMC" for _, kind, _ in requested):
        if grid is None:
            if points_per_dim is None:
                points_per_dim = 41 if r == 1 else 9
            grid = build_grid(fit, points_per_dim)
        if len(grid.points) == 0:
            raise ValueError("nuisance grid is empty")
        rows = np.vstack([rows, grid.points])
    rules = dict.fromkeys(rule for _, _, rule in requested)
    ranked, resampled = ensemble_pvalues(
        _filtered_quartets(y, rows), len(y) - r, N, rules, table, master_seed
    )

    reports = []
    for method, kind, rule in requested:
        p = ranked[rule][3]
        best = 0 if kind == "LMC" else 1 + int(np.argmax(p[1:]))
        reports.append(
            LinearityReport(
                method=method,
                p_value=float(p[best]),
                phi_at_report=rows[best].copy(),
                min_root_modulus=min_root_modulus(rows[best]),
                N=N,
                seed=master_seed,
                grid_points_evaluated=1 if kind == "LMC" else len(rows) - 1,
                degenerate_resamples=resampled,
            )
        )
    return reports


def _check_grid(points, r: int) -> None:
    """Reject a user grid that is not an ``(n, r)`` matrix of finite,
    stationary coefficient rows, naming the first offending row."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != r:
        raise ValueError("grid dimension does not match the lag order")
    for bad, what in ((~np.isfinite(points).all(axis=1), "is not finite"),
                      (~stationary_rows(points), "is not stationary")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"grid row {i} {points[i].tolist()} {what}")


def _check_points_per_dim(points_per_dim: int) -> None:
    if points_per_dim < 1 or points_per_dim % 2 == 0:
        raise ValueError("points_per_dim must be odd and at least 1")


def lmc_test(
    y: np.ndarray,
    r: int,
    N: int = 100,
    method: str = "min",
    table: LogisticCoeffTable | None = None,
    master_seed: int = 0,
) -> LinearityReport:
    """Local MC linearity test at the OLS point estimate of the AR
    coefficients."""
    return linearity_tests(
        y, r, (f"LMC_{method}",), N=N, table=table, master_seed=master_seed
    )[0]


def build_grid(fit: ARFit, points_per_dim: int) -> NuisanceBox:
    """Uniform grid on the box ``phi_hat_k +/- 2 se_k``, keeping only the
    stationary points (every AR root strictly outside the unit circle, as
    :func:`~regimetest.msar.stationary_rows` decides; a root on the circle
    counts as non-stationary).

    ``points_per_dim`` must be odd so that the grid contains the center
    exactly.

    Raises
    ------
    ValueError
        If the fit's standard errors are not finite (no residual degrees of
        freedom), or if every grid point is filtered out; a user grid over
        a smaller box is then advisable.
    """
    _check_points_per_dim(points_per_dim)
    center = np.asarray(fit.phi, dtype=float)
    r = len(center)
    if r == 0:
        raise ValueError("cannot build a nuisance grid for an AR(0) fit")
    if not np.all(np.isfinite(fit.phi_se)):
        raise ValueError(
            "AR coefficient standard errors are not finite (the fit has no "
            "residual degrees of freedom); cannot size the nuisance grid"
        )
    hw = 2.0 * fit.phi_se

    offsets = np.linspace(-1.0, 1.0, points_per_dim)
    offsets[(points_per_dim - 1) // 2] = 0.0  # center must be exact
    axes = [center[k] + offsets * hw[k] for k in range(r)]
    # row-major order: the first maximizer of the MMC p-value depends on it
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    points = points[stationary_rows(points)]
    if len(points) == 0:
        raise ValueError(
            "all grid points violate stationarity; pass a grid over a smaller "
            "box (grid=NuisanceBox(points)) or change the lag order"
        )
    return NuisanceBox(points=points)


def mmc_test(
    y: np.ndarray,
    r: int,
    N: int = 100,
    method: str = "min",
    table: LogisticCoeffTable | None = None,
    grid: NuisanceBox | None = None,
    master_seed: int = 0,
    points_per_dim: int | None = None,
) -> LinearityReport:
    """Maximized MC linearity test over a nuisance grid.

    The reported p-value is the maximum per-point MC p-value over the grid;
    the maximizing coefficients (first in row-major grid order on ties) are
    reported alongside their minimum AR-polynomial root modulus.  Defaults:
    41 points for one lag, 9 points per dimension otherwise.
    """
    return linearity_tests(
        y, r, (f"MMC_{method}",), N=N, table=table, grid=grid,
        master_seed=master_seed, points_per_dim=points_per_dim,
    )[0]
