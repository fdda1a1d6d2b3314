"""Residual-moment statistics for detecting normal-mixture features.

Four statistics are computed from a demeaned series: a standardized mean
split (M), a variance-partition ratio (V), and the absolute coefficients of
skewness (S) and excess kurtosis (K).  All four are location-scale invariant,
which is what makes their null distribution simulable without unknowns.

Partition boundaries use strict inequalities: residuals exactly equal to zero
(for M) or with squared value exactly equal to the sample variance (for V)
belong to neither partition.  Sample variances use the 1/T divisor.

One kernel computes the four statistics over a batch of demeaned rows;
``quartet_matrix`` demeans and calls it, and ``compute_quartet`` calls it
on a single row and turns an undefined statistic into
:class:`DegenerateSampleError`.

The kernel forms the skewness and kurtosis sums from products, ``E2 * E``
and ``E2 * E2``, of the squares the V statistic already needs.  numpy
evaluates ``E**3`` and ``E**4`` through libm ``pow`` (it special-cases only
``**2``), and those two calls were about 80% of the kernel's time.

Every masked or moment sum (the partition means, the partition square sums,
the V partition sums and the skewness and kurtosis sums) is a row dot
product, ``einsum("ij,ij->i", ...)``, taken directly against the partition
flags: one pass over the block, where a product written out and then summed
took two.  The buffers stay two float and two flag arrays.  einsum adds
along each row in its own order rather than numpy's pairwise one, so M, V,
S and K moved by a few ulps when the sums changed form; ranks and p-values
did not move on any pinned case.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DegenerateSampleError(ValueError):
    """A statistic is undefined for the sample (empty partition or zero
    dispersion).  ``statistic`` names the offender."""

    def __init__(self, statistic: str, message: str):
        super().__init__(f"{statistic}: {message}")
        self.statistic = statistic


class StatQuartet(NamedTuple):
    """The four statistic values (M, V, S, K); all non-negative."""

    m: float
    v: float
    s: float
    k: float


#: Elements per block of rows in every batch pass: 1 MB of float64, in cache.
BLOCK_ELEMENTS = 2**17


def row_blocks(n: int, row_elements: int) -> list[slice]:
    """Consecutive slices of ``max(1, BLOCK_ELEMENTS // row_elements)`` rows
    covering ``n`` rows (the last may be shorter).  Each batch kernel computes
    every row independently of its block, so the block size moves no number."""
    step = max(1, BLOCK_ELEMENTS // row_elements)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def finite_series(y) -> np.ndarray:
    """``y`` as a float array; a non-finite value is a ``ValueError`` that
    names the index of the first one."""
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"series holds a non-finite value ({y.flat[bad[0]]}) at index {bad[0]}")
    return y


def _dispersion_floor(max_abs) -> float:
    """Partition dispersions at or below this level are rounding residue of a
    mathematically zero dispersion and must count as degenerate."""
    return (16.0 * np.finfo(float).eps * max_abs) ** 2


def demean(y: np.ndarray) -> np.ndarray:
    """Deviations from the sample mean."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) < 2:
        raise ValueError("need a one-dimensional series of length >= 2")
    return y - y.mean()


def compute_quartet(e: np.ndarray) -> StatQuartet:
    """All four statistics of a demeaned series of length >= 4.  A
    non-finite value is a ``ValueError`` naming its index."""
    q = _quartets(_rows(finite_series(e)))
    raise_if_degenerate(q)
    return StatQuartet(*map(float, q[0]))


def raise_if_degenerate(Q: np.ndarray) -> None:
    """Raise :class:`DegenerateSampleError` if a row of a quartet matrix holds
    an undefined (NaN) statistic, naming the first one in the first such row."""
    bad = np.argwhere(np.isnan(Q))
    if len(bad):
        raise _degenerate(bad[0][-1])


def _degenerate(column: int) -> DegenerateSampleError:
    return DegenerateSampleError(
        "MVSK"[column], "undefined on this sample (empty partition or zero dispersion)"
    )


def quartet_matrix(X: np.ndarray) -> np.ndarray:
    """Row-wise quartets of a batch of series.

    Each row of ``X`` is demeaned and reduced to its (M, V, S, K) values.
    Degenerate rows yield NaN entries instead of raising, so batch callers
    can detect and resample them; rows shorter than 4 raise ``ValueError``.
    """
    X = _rows(X)
    return _quartets(X - X.mean(axis=1, keepdims=True))


def _rows(X) -> np.ndarray:
    """``X`` as 2-D float rows; on every path to the kernel, before any reduction."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] < 4:
        raise ValueError("need at least 4 observations for the statistic quartet")
    return X


def _quartet_work(elements: int) -> tuple[np.ndarray, ...]:
    """Scratch for :func:`_quartets` on blocks of up to ``elements`` values:
    two float buffers and two flag buffers.  A pass over many blocks
    allocates it once and spares every later block the page faults of
    fresh temporaries."""
    return np.empty(elements), np.empty(elements), np.empty(elements, bool), np.empty(elements, bool)


def _quartets(E: np.ndarray, work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """The statistic kernel: row-wise (M, V, S, K) of already-demeaned rows,
    NaN where a statistic is undefined.  Every temporary of the size of
    ``E`` is written into ``work`` (from :func:`_quartet_work`, at least
    ``E.size`` elements per buffer), fresh when it is not given; the
    buffers move no number."""
    T = E.shape[1]
    E2, tmp, pos, neg = (w[: E.size].reshape(E.shape) for w in (work or _quartet_work(E.size)))
    np.greater(E, 0, out=pos)
    np.less(E, 0, out=neg)
    n2 = pos.sum(axis=1)
    n1 = neg.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        floor = _dispersion_floor(np.abs(E, out=tmp).max(axis=1))
        m2 = np.where(n2 > 0, _row_dots(E, pos) / n2, np.nan)
        m1 = np.where(n1 > 0, _row_dots(E, neg) / n1, np.nan)
        s22 = np.where(n2 > 0, _partition_square_sum(E, m2, pos, tmp) / n2, np.nan)
        s12 = np.where(n1 > 0, _partition_square_sum(E, m1, neg, tmp) / n1, np.nan)
        pooled = np.where(s22 + s12 > floor, s22 + s12, np.nan)
        m = np.abs(m2 - m1) / np.sqrt(pooled)

        np.square(E, out=E2)
        sig2 = E2.mean(axis=1)
        big = np.greater(E2, sig2[:, None], out=pos)
        small = np.less(E2, sig2[:, None], out=neg)
        nb = big.sum(axis=1)
        ns = small.sum(axis=1)
        v2 = np.where(nb > 0, _row_dots(E2, big) / nb, np.nan)
        v1 = np.where(ns > 0, _row_dots(E2, small) / ns, np.nan)
        v = v2 / np.where(v1 > floor, v1, np.nan)

        # products of E2, not E**3 / E**4: libm pow was about 80% of this kernel;
        # sig2 * sqrt(sig2), not sig2**1.5: numpy picks its pow loop per CPU,
        # while products and square roots round correctly on every CPU
        s = np.abs(_row_dots(E2, E) / (T * sig2 * np.sqrt(sig2)))
        k = np.abs(_row_dots(E2, E2) / (T * sig2**2) - 3.0)

    Q = np.column_stack([m, v, s, k])
    Q[~np.isfinite(Q)] = np.nan
    return Q


def _row_dots(A, B) -> np.ndarray:
    """Row sums of ``A * B`` in one pass, with no product array; a flag
    matrix ``B`` selects the entries of ``A`` it sums.  einsum's own loop,
    not BLAS, so a row's sum does not depend on the rows beside it."""
    return np.einsum("ij,ij->i", A, B)


def _partition_square_sum(E, mean, mask, tmp) -> np.ndarray:
    """Row sums of ``(E - mean)**2`` over the ``mask`` entries, the squares formed in ``tmp``."""
    np.subtract(E, mean[:, None], out=tmp)
    return _row_dots(np.square(tmp, out=tmp), mask)
