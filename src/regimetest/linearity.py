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
row 0 of one coefficient matrix above the grid points.  A pass of more
than one block draws its null ensemble and tie-breakers first
(:func:`~regimetest.mctest.null_ensemble`), then filters, demeans and
reduces the rows to their statistic quartets over the row-major blocks of
:func:`~regimetest.moments.row_blocks`, in one scratch grown to the largest
set of rows computed at once, and ranks each block as soon as it is
computed, keeping a running maximum and its first row per MMC rule.  A filter is one einsum contraction of
``[1, -phi_1, ..., -phi_r]`` with the lagged series: one pass over the
rows, with the values of subtracting one lag at a time, and no BLAS call,
whose rows would depend on the row count.  A rank p-value k/N is at most 1,
so once every requested MMC rule has reached p = 1 its first maximizer is
final, and the pass stops after that block; ``LinearityReport.rows_ranked``
says how many rows it reached.

A pass of more than one block is a branch and bound over the grid.  Once
per pass, :class:`~regimetest.moments._LagMoments` takes the moment tensors
of orders 2, 3 and 4 of the centred lag stack ``[y_t, ..., y_{t-r}]``, by
einsum and without BLAS; each row's central moments are forms in
``c = [1, -phi]`` of them, and a certificate (Higham's gamma_n error
bounds, with ``|c|_1 max|y|`` bounding every filtered value, and a fixed
relative slack) turns them into lower bounds on the kernel's S and K
without filtering the row.
:meth:`~regimetest.mctest.NullEnsemble.pvalue_bounds` ranks the combined
statistic with the M and V marginal p-values at 1 and the S and K ones at
those bounds, raised by a relative 2^-30 for ``np.exp``'s rounding, which
numpy picks per CPU: the result is at least the row's rank p-value under
both rules.  A row is settled, never filtered, and counted in
``LinearityReport.rows_bounded``, when two things hold: its bound cannot
beat any requested MMC rule's running maximum (it is strictly below it for
a row before the current first maximizer, at or below it for a row after),
and witnesses among its first 8 filtered entries, or failing those its
first 32, taken from the centred stack, prove its M and V defined, so that
the kernel could not raise on it.  The bounds and witnesses are computed
for runs of whole blocks of at least 1,000 rows as the pass reaches them,
so that small blocks share the fixed cost of a call.
The first block seeds the maxima: its OLS row and the 16 grid rows of the
largest bound per MMC rule are ranked first, and the rest of it is bounded
against them.  Every other row goes through the unchanged filter, kernel
and ranking.  On the extended GNP series at r=4 and seeds 0-19, 1,036 of
the 6,562 rows go through the full kernel on average (447 of the Hamilton
series' 2,228 rows reached).  A one-block pass, such as every desk-study
cell, ranks every row at once, with no tensors: it filters the rows first,
and one kernel call reduces them with the demeaned null replicates
(:func:`~regimetest.mctest._ensemble_and_quartets`), so that the kernel's
fixed cost is paid once, not twice.

The reports equal those of ranking every row, except that a degenerate grid
row after the stopping block is never computed and so raises nothing.  The LMC
p-value is the p-value of the OLS row, which must be stationary: an LMC
method at a non-stationary OLS point is a ``ValueError``, so on the default
grid, centred on that point, MMC >= LMC holds exactly in every pass that
reports both.  ``lmc_test`` and ``mmc_test`` are thin wrappers over that
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mctest import LogisticCoeffTable, _ensemble_and_quartets, null_ensemble
from .moments import _LagMoments, _coefficients, _quartet_work, _quartets, _rows, finite_series, row_blocks
from .msar import _min_root_moduli, min_root_modulus, stationary_rows

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

#: Grid rows of the largest bounds per MMC rule that a multi-block pass
#: ranks first, with the OLS row, to seed its running maxima.
_SEEDS = 16

#: Fewest rows whose bounds :class:`_RowBounds` computes at a time.
_BOUND_ROWS = 1000


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
    the OLS row included, that the pass reached before it stopped, and
    ``rows_bounded`` those of them that bounds from the series' lag moments
    settled without filtering them: on a multi-block pass the first block's
    included, and 0 on a one-block pass."""

    method: str
    p_value: float
    phi_at_report: np.ndarray
    min_root_modulus: float
    N: int
    seed: int
    grid_points_evaluated: int
    rows_ranked: int
    rows_bounded: int = 0
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
    # einsum's loop runs fastest with the coefficients row-major
    return np.einsum("ik,kt->it", _coefficients(P).T.copy(), _lag_stack(y, r), out=out)


class _RowQuartets:
    """The quartets of chosen coefficient rows, at most one of the
    ``row_blocks`` of the rows at a time, filtered, demeaned and reduced in
    one scratch that grows to the largest call and is reused by every
    other.  Each row's quartet equals ``quartet_matrix(ar_filter(y, row))``
    bit for bit, whichever rows are computed beside it."""

    def __init__(self, y: np.ndarray, rows: np.ndarray):
        self.y, self.rows = y, rows
        self.Tz = len(y) - rows.shape[1]
        self.blocks = row_blocks(len(rows), self.Tz)
        self.Z = np.empty(0)

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        n = len(idx)
        if n * self.Tz > len(self.Z):
            self.Z, self.work = np.empty(n * self.Tz), _quartet_work(n * self.Tz)
        E = _rows(_filter_rows(self.y, self.rows[idx], self.Z[: n * self.Tz].reshape(n, self.Tz)))
        E -= E.mean(axis=1, keepdims=True)
        return _quartets(E, self.work)


class _RowBounds:
    """The p-value bounds of the coefficient rows under the MMC rules, and
    which rows the witnesses prove M- and V-defined, from the series' lag
    moments (:class:`~regimetest.moments._LagMoments`).  They are computed
    for runs of whole blocks of at least ``_BOUND_ROWS`` rows, as the pass
    reaches them, so that blocks of under 1,000 rows (those of more than 131
    filtered values) share the fixed cost of the calls: two
    557-row blocks per call on the extended GNP series at r=4, one 1,000-row
    block on the Hamilton series, whose pass often stops after one to
    three."""

    def __init__(self, y: np.ndarray, rows: np.ndarray, ensemble, rules):
        self.rows, self.ensemble, self.rules = rows, ensemble, rules
        self.lag_moments = _LagMoments(_lag_stack(y, rows.shape[1]))
        self.start = self.stop = 0

    def __call__(self, block: slice) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """``({rule: bounds}, witnessed)`` of the rows of ``block``."""
        if block.stop > self.stop:
            step = block.stop - block.start
            self.start = block.start
            self.stop = min(block.start + -(-_BOUND_ROWS // step) * step, len(self.rows))
            P = self.rows[self.start : self.stop]
            s, k, lo, hi = self.lag_moments.skew_kurt_bounds(P)
            self.bounds = self.ensemble.pvalue_bounds(s, k, self.rules)
            self.witnessed = self.lag_moments.mv_witnessed(P, lo, hi)
        run = slice(block.start - self.start, block.stop - self.start)
        return {rule: bound[run] for rule, bound in self.bounds.items()}, self.witnessed[run]


def _lag_stack(y: np.ndarray, r: int) -> np.ndarray:
    """The (r + 1, T - r) stack of ``y[r-k : T-k]``, k = 0 ... r."""
    return np.stack([y[r - k : len(y) - k] for k in range(r + 1)])


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
    quartets = _RowQuartets(y, rows)
    best = dict.fromkeys(mmc_rules, (-1.0, 0))  # rule: (largest grid p-value so far, its row)
    lmc_p = {}

    def rank(idx, Q):
        """Rank the rows ``idx`` (ascending), given their quartets ``Q``, and
        take in their p-values."""
        ranked = ensemble.rank(Q)
        if idx[0] == 0:  # the OLS row, not a grid row
            lmc_p.update((rule, p[0]) for rule, (_, _, p) in ranked.items())
        first = int(idx[0] == 0)
        for rule in mmc_rules:
            p = ranked[rule][2][first:]
            if len(p):
                i = int(np.argmax(p))  # the first of its ties: idx ascends
                row = int(idx[first + i])
                if p[i] > best[rule][0] or (p[i] == best[rule][0] and row < best[rule][1]):
                    best[rule] = (p[i], row)

    rows_bounded = 0
    if len(quartets.blocks) == 1:
        # a one-block pass (every desk-study cell) ranks every row at once,
        # reduced in the replicates' kernel call
        Z = _filter_rows(y, rows, np.empty((len(rows), quartets.Tz)))
        ensemble, Q = _ensemble_and_quartets(quartets.Tz, N, rules, table, master_seed, Z)
        rank(np.arange(len(rows)), Q)
        rows_ranked = len(rows)
    else:
        ensemble = null_ensemble(quartets.Tz, N, rules, table, master_seed)
        row_bounds = _RowBounds(y, rows, ensemble, mmc_rules)
        for block in quartets.blocks:
            idx = np.arange(block.start, block.stop)
            bounds, witnessed = row_bounds(block)
            live = np.ones(len(idx), bool)
            if block.start == 0:
                # seed the running maxima with the OLS row and the grid rows
                # of the largest bounds; a degenerate one leaves the block to
                # be ranked in row order, which raises as ranking every row does
                seeded = idx == 0
                for bound in bounds.values():
                    seeded[1 + np.argsort(-bound[1:], kind="stable")[:_SEEDS]] = True
                Q = quartets(idx[seeded])
                if not np.isnan(Q).any():
                    rank(idx[seeded], Q)
                    live = ~seeded
            # a settled row's bound cannot beat any rule's first maximizer (an
            # earlier row could tie it, a later one must exceed it), and its
            # M and V are witnessed defined
            settled = live & witnessed
            for rule, (p, row) in best.items():
                settled &= (bounds[rule] < p) | ((bounds[rule] == p) & (idx > row))
            rows_bounded += int(settled.sum())
            idx = idx[live & ~settled]
            if len(idx):
                rank(idx, quartets(idx))
            # a p-value is at most 1, so a rule at p = 1 keeps its first maximizer
            if all(p == 1.0 for p, _ in best.values()):
                break
        rows_ranked = block.stop

    reported = [(method, kind, *((lmc_p[rule], 0) if kind == "LMC" else best[rule]))
                for method, kind, rule in requested]
    # the distinct reported rows' moduli in one batch: the LMC reports share row 0
    distinct = sorted({row for *_, row in reported})
    moduli = dict(zip(distinct, _min_root_moduli(rows[distinct]).tolist()))
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
            rows_bounded=rows_bounded,
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
