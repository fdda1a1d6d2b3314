"""End-to-end linearity tests against Markov-switching means and variances.

This module builds the data rows of the exact MC test and filters them: it
fits a linear autoregression by OLS, filters the series at candidate
coefficient vectors and reduces each filtered series to its four moment
statistics.  The filtered observations are i.i.d. under linearity at the
true coefficients, so :class:`~regimetest.mctest.NullEnsemble` can rank
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
row 0 of one coefficient matrix above the grid points.  The pass draws its
null ensemble and tie-breakers first (:func:`~regimetest.mctest.null_ensemble`),
then filters, demeans and reduces the rows to their statistic quartets over
the row-major blocks of :func:`~regimetest.moments.row_blocks`, in one
scratch allocated for the first block, and ranks each block as soon as it is
computed, keeping a running maximum and its first row per MMC rule.  A
block's filter is one einsum contraction of ``[1, -phi_1, ..., -phi_r]``
with the lagged series: one pass over the block, with the values of
subtracting one lag at a time, and no BLAS call, whose rows would depend on
the block's row count.  A rank p-value k/N is at most 1, so once every
requested MMC rule has reached p = 1 its first maximizer is final, and the
pass stops after that block; ``LinearityReport.rows_ranked`` says how many
rows it ranked.  The reports
equal those of ranking every row, except that a degenerate grid row after
the stopping block is never computed and so raises nothing.  The LMC
p-value is the p-value of the OLS row, which must be stationary: an LMC
method at a non-stationary OLS point is a ``ValueError``, so on the default
grid, centred on that point, MMC >= LMC holds exactly in every pass that
reports both.  ``lmc_test`` and ``mmc_test`` are thin wrappers over that
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mctest import LogisticCoeffTable, null_ensemble
from .moments import _quartet_work, _quartets, _rows, finite_series, row_blocks
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
    """Result of an LMC or MMC linearity test.  ``grid_points_evaluated`` is
    the grid size (1 for LMC); ``rows_ranked`` counts the coefficient rows,
    the OLS row included, that the pass ranked before it stopped."""

    method: str
    p_value: float
    phi_at_report: np.ndarray
    min_root_modulus: float
    N: int
    seed: int
    grid_points_evaluated: int
    rows_ranked: int
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
    coefficients bit for bit.  A non-finite value in ``y`` or ``phi`` is a
    ``ValueError``.
    """
    y = finite_series(y)
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("AR coefficients must be finite")
    P = np.atleast_2d(phi)
    if len(y) <= P.shape[1]:
        raise ValueError("series too short for the requested filter")
    Z = _filter_rows(y, P, np.empty((len(P), len(y) - P.shape[1])))
    return Z if phi.ndim == 2 else Z[0]


def _filter_rows(y: np.ndarray, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The filter at every row of ``P``, written into ``out``: one contraction
    of the rows ``[1, -phi_1, ..., -phi_r]`` with the lag stack
    ``y[r-k : T-k]``, k = 0 ... r.  einsum adds the r + 1 products in lag
    order, so each value is that of subtracting ``phi_k y_{t-k}`` from ``y_t``
    one lag at a time (an exact zero may change sign, which no statistic
    reads).  Not ``np.matmul``: its BLAS kernels make a row's value depend
    on the number of rows beside it."""
    r = P.shape[1]
    if r == 0:
        out[:] = y
        return out
    coef = np.empty((len(P), r + 1))
    coef[:, 0] = 1.0
    np.negative(P, out=coef[:, 1:])
    lags = np.stack([y[r - k : len(y) - k] for k in range(r + 1)])
    return np.einsum("ik,kt->it", coef, lags, out=out)


def _quartet_blocks(y: np.ndarray, rows: np.ndarray):
    """``(block, quartet_matrix(ar_filter(y, rows[block])))`` for each of the
    ``row_blocks`` of the coefficient rows, bit for bit, in order.  The rows
    are filtered, demeaned and reduced in one scratch, allocated for the
    first (largest) block and reused by every later one."""
    Tz = len(y) - rows.shape[1]
    blocks = row_blocks(len(rows), Tz)
    size = blocks[0].stop * Tz
    Z = np.empty(size)
    work = _quartet_work(size)
    for block in blocks:
        n = block.stop - block.start
        E = _filter_rows(y, rows[block], Z[: n * Tz].reshape(n, Tz))
        E -= E.mean(axis=1, keepdims=True)
        yield block, _quartets(_rows(E), work)


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
    an MMC method is requested) follows.  The rows are filtered, reduced to
    their statistic quartets and ranked block by block against one null
    ensemble, so the LMC p-value is row 0's and the MMC p-value is the
    largest over the grid rows (the first maximizer in row-major grid
    order); the pass stops after the block in which every requested MMC
    rule reaches p = 1, the largest p-value there is.  The grid defaults to 41
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
    mmc_rules = dict.fromkeys(rule for _, kind, rule in requested if kind == "MMC")
    ensemble = null_ensemble(len(y) - r, N, rules, table, master_seed)
    best = dict.fromkeys(mmc_rules, (-1.0, 0))  # rule: (largest grid p-value so far, its row)
    for block, Qz in _quartet_blocks(y, rows):
        ranked = ensemble.rank(Qz)
        if block.start == 0:
            lmc_p = {rule: p[0] for rule, (_, _, p) in ranked.items()}
        grid_start = max(block.start, 1)  # row 0 is the OLS row, not a grid row
        for rule in mmc_rules:
            p = ranked[rule][2][grid_start - block.start :]
            if len(p) and p.max() > best[rule][0]:
                best[rule] = (p.max(), grid_start + int(np.argmax(p)))
        # a p-value is at most 1, so a rule at p = 1 keeps its first maximizer
        if all(p == 1.0 for p, _ in best.values()):
            break
    rows_ranked = block.stop

    reported = [(method, kind, *((lmc_p[rule], 0) if kind == "LMC" else best[rule]))
                for method, kind, rule in requested]
    # one np.roots call per distinct reported row: the LMC reports share row 0
    moduli = {row: min_root_modulus(rows[row]) for row in {row for *_, row in reported}}
    return [
        LinearityReport(
            method=method,
            p_value=float(p),
            phi_at_report=rows[row].copy(),
            min_root_modulus=moduli[row],
            N=N,
            seed=master_seed,
            grid_points_evaluated=1 if kind == "LMC" else len(rows) - 1,
            rows_ranked=rows_ranked,
            degenerate_resamples=ensemble.resampled,
        )
        for method, kind, p, row in reported
    ]


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
