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
took two.  The buffers stay one float and two flag arrays.  einsum adds
along each row in its own order rather than numpy's pairwise one, so M, V,
S and K moved by a few ulps when the sums changed form; ranks and p-values
did not move on any pinned case.

The linearity pass settles most grid rows without computing them.
:class:`_LagMoments` bounds the kernel's S and K of a filtered row from
below by moment tensors of the series' lag stack, with a certificate:
Higham's (2002) gamma_n bounds on the rounding of the kernel's sums and of
the tensor forms, with ``|c|_1 max|y|`` bounding every filtered value, give
an interval around each of the three moments that holds the kernel's own
(:class:`_LagMoments` states the counts), and :func:`_skew_kurt_floor`
turns the intervals into bounds with a relative slack for the last
divisions.  :func:`_mv_witnessed` proves M and V defined from a row's
first entries, each within a margin of the kernel's.
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
    one float buffer and two flag buffers.  A pass over many blocks
    allocates it once and spares every later block the page faults of
    fresh temporaries."""
    return np.empty(elements), np.empty(elements, bool), np.empty(elements, bool)


def _quartets(E: np.ndarray, work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """The statistic kernel: row-wise (M, V, S, K) of already-demeaned rows,
    NaN where a statistic is undefined.  Every temporary of the size of
    ``E`` is written into ``work`` (from :func:`_quartet_work`, at least
    ``E.size`` elements per buffer), fresh when it is not given; the
    buffers move no number."""
    T = E.shape[1]
    E2, pos, neg = (w[: E.size].reshape(E.shape) for w in (work or _quartet_work(E.size)))
    np.greater(E, 0, out=pos)
    np.less(E, 0, out=neg)
    n2 = pos.sum(axis=1)
    n1 = neg.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # E2 holds the M statistic's temporaries until the squares overwrite them
        floor = _dispersion_floor(np.abs(E, out=E2).max(axis=1))
        m2 = np.where(n2 > 0, _row_dots(E, pos) / n2, np.nan)
        m1 = np.where(n1 > 0, _row_dots(E, neg) / n1, np.nan)
        s22 = np.where(n2 > 0, _partition_square_sum(E, m2, pos, E2) / n2, np.nan)
        s12 = np.where(n1 > 0, _partition_square_sum(E, m1, neg, E2) / n1, np.nan)
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


#: Leading entries of a row in which :meth:`_LagMoments.mv_witnessed` looks for its witnesses.
_WITNESS_COLUMNS = 32

#: Relative slack of :func:`_skew_kurt_floor`: it covers the kernel's last
#: roundings of S and K and the bound's own, a few u each.
_SLACK = 2.0**-40


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53: a bound on the relative
    error of a product or a sum of terms of one sign through m roundings."""
    mu = m * np.finfo(float).eps / 2
    return mu / (1.0 - mu)


def _coefficients(P: np.ndarray) -> np.ndarray:
    """The columns ``c = [1, -phi_1, ..., -phi_r]`` of coefficient rows ``P``."""
    C = np.empty((P.shape[1] + 1, len(P)))
    C[0] = 1.0
    np.negative(P.T, out=C[1:])
    return C


class _LagMoments:
    """Bounds on the kernel's S and K of filtered rows, from moment tensors of
    the lag stack, and witnesses that their M and V are defined.

    ``lags`` is the (r + 1, n) stack ``[y_t, y_{t-1}, ..., y_{t-r}]`` that a
    coefficient row ``c = [1, -phi_1, ..., -phi_r]`` filters to
    ``z_t = c . L_t``.  Centred on its row means, the stack gives each row's
    exact central moments as forms in c: with ``e_t = c . (L_t - mean L)``,
    ``sum e^2``, ``sum e^3`` and ``sum e^4`` are the quadratic, cubic and
    quartic forms of the tensors ``A_ij = sum L_i L_j`` and so on, computed
    once per series by einsum (no BLAS) over the unique index pairs.

    Let ``B = |c|_1 max|y|``, which bounds every ``|z_t|``, so every
    ``|e_t| <= 2B``, and let gamma_m be Higham's (2002) bound of m
    roundings.  The kernel's entries lie within gamma_{n+2r+5} B of the
    exact ``e_t`` (the filter, its mean and the subtraction), and its mean
    square ``sig2`` and its cube and fourth-power sums over n within
    gamma_{3n+4r+12} (2B)^k of the exact ``mean e^k``, k = 2, 3, 4.  The
    forms ``m_k`` here lie within gamma_{3n+(r+1)^k+15} (2B)^k of them (the
    centring, the tensors, the forms and the division by n).  So each of the
    kernel's three moments lies within ``eta_k = gamma_N (2B)^k`` of
    ``m_k``, where N is twice the sum of the two counts: the spare half
    covers the (1 + gamma) factors left out above and the rounding of
    ``eta_k`` and of the interval ends.  :func:`_skew_kurt_floor` turns the
    intervals into lower bounds on the kernel's S and K.

    A row is certified only while its lower mean square exceeds 2^-400 and
    ``2B`` stays below 2^200: then no sum of the kernel or of the bound
    overflows, ``sig2^2`` and the dispersion floors are normal numbers, and
    an underflowing product loses less than the spare half covers.  Other
    rows get S and K bounds of 0 and no witness, so they always go through
    the full kernel.
    """

    def __init__(self, lags: np.ndarray):
        r1, n = lags.shape
        self.n = n
        self.y_max = float(np.abs(lags).max())
        centred = lags - lags.mean(axis=1, keepdims=True)
        self.head = np.ascontiguousarray(centred[:, :_WITNESS_COLUMNS])
        self.pairs = np.triu_indices(r1)
        i, j = self.pairs
        w = np.where(i == j, 1.0, 2.0)  # an off-diagonal pair stands for both its orders
        P = centred[i] * centred[j]
        self.forms = (w * np.einsum("at->a", P),
                      w[:, None] * np.einsum("at,kt->ak", P, centred),
                      np.outer(w, w) * np.einsum("at,bt->ab", P, P))
        self.eta = [_gamma(2 * (6 * n + 4 * (r1 - 1) + r1**k + 27)) for k in (2, 3, 4)]
        self.delta = _gamma(2 * (2 * n + 4 * (r1 - 1) + 11))

    def skew_kurt_bounds(self, P: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(S_lo, K_lo, lo, hi)`` for the coefficient rows ``P``: lower
        bounds on the kernel's S and K of each filtered row, and an interval
        ``[lo, hi]`` that holds its ``sig2`` (``lo`` is 0 for a row that is
        not certified).  The rows' forms run along the last axis."""
        t2, t3, t4 = self.forms
        C = _coefficients(P)
        i, j = self.pairs
        C2 = C[i] * C[j]
        m2 = np.einsum("a,am->m", t2, C2) / self.n
        m3 = np.einsum("km,km->m", np.einsum("ak,am->km", t3, C2), C) / self.n
        m4 = np.einsum("bm,bm->m", np.einsum("ab,am->bm", t4, C2), C2) / self.n
        scale = 2.0 * self._bound(C)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eta2, eta3, eta4 = (eta * scale**k for eta, k in zip(self.eta, (2, 3, 4)))
            lo, hi = m2 - eta2, m2 + eta2
            valid = (lo > 2.0**-400) & (scale < 2.0**200)
            s, k = _skew_kurt_floor(lo, hi, np.maximum(np.abs(m3) - eta3, 0.0), m4 - eta4, m4 + eta4)
        return np.where(valid, s, 0.0), np.where(valid, k, 0.0), np.where(valid, lo, 0.0), hi

    def mv_witnessed(self, P: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Which coefficient rows ``P`` provably get a finite M and V from the
        kernel, given the interval ``[lo, hi]`` of their ``sig2`` from
        :meth:`skew_kurt_bounds`: :func:`_mv_witnessed` on their first
        ``_WITNESS_COLUMNS`` entries ``c . (L_t - mean L)``, which lie within
        gamma_{n+2r+6} B of the exact entries, and so within ``delta`` (twice
        that and the kernel's own gamma_{n+2r+5} B) of the kernel's."""
        C = _coefficients(P)
        W = np.einsum("kt,km->tm", self.head, C)
        return _mv_witnessed(W, self.delta * self._bound(C), lo, hi, self.n)

    def _bound(self, C: np.ndarray) -> np.ndarray:
        """``B = |c|_1 max|y|`` of each coefficient column."""
        return np.abs(C).sum(axis=0) * self.y_max


def _skew_kurt_floor(lo, hi, m3, m4_lo, m4_hi) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on the S and K that the kernel computes from any mean
    square ``sig2`` in ``[lo, hi]`` (``lo > 0``), cube sum over n at least
    ``m3`` in modulus and fourth-power sum over n in ``[m4_lo, m4_hi]``.
    The kernel's S is ``|m3| / sig2^1.5`` and its K ``|m4 / sig2^2 - 3|`` up
    to a few roundings, a relative gamma_4 at most; ``_SLACK`` covers those
    and the roundings of this function's own arithmetic."""
    s = m3 / (hi * np.sqrt(hi)) * (1.0 - _SLACK)
    x_lo = m4_lo / hi**2 * (1.0 - _SLACK)
    x_hi = m4_hi / lo**2 * (1.0 + _SLACK)
    k = np.maximum(np.maximum(x_lo - 3.0, 3.0 - x_hi), 0.0) * (1.0 - _SLACK)
    return s, k


def _mv_witnessed(W: np.ndarray, delta, lo, hi, T: int) -> np.ndarray:
    """Which columns of ``W``, the leading entries of demeaned rows each
    within ``delta`` of the kernel's own, prove that the kernel's M and V of
    the row are defined, for a row of length ``T`` whose kernel ``sig2``
    lies in ``[lo, hi]``.  The witnesses, with ``delta`` as margin:

    * M: a negative entry, and two positive entries a > b with
      (a - b)^2 > 8 T level;
    * V: a square above ``sig2``, and one below it but above 2 T level;

    where level, the dispersion floor at sqrt(2 T hi), is at least the
    kernel's floor at max|E|, since max E^2 <= sum E^2 <= 2 T sig2.  Two
    entries of a partition give it a square sum of at least
    ((a - b)/2)^2, whatever its mean, a rounded sum of non-negative terms is
    at least its largest term, and a count of at most T divides them, so
    both partition dispersions stay above the floor with a factor 2 to
    spare for rounding.  A ``delta`` of twice the entries' distance covers
    the rounding of the squares and of these comparisons.  Plain max and min
    over the leading axis of ``W`` (columns are rows), no ``where=``."""
    with np.errstate(invalid="ignore", over="ignore"):
        level = _dispersion_floor(np.sqrt(2 * T * hi))
        top, bottom = W.max(axis=0), W.min(axis=0)
        # the largest entry, and the smallest one that is surely positive
        A = np.where(W > delta, W, np.inf)
        gap = top - A.min(axis=0) - 2 * delta
        m_defined = (bottom < -delta) & (gap > 0) & (gap**2 > 8 * T * level)
        # the largest modulus whose square is surely below sig2
        A = np.abs(W, out=A)
        np.multiply(A, A < np.sqrt(lo) - delta, out=A)
        w = A.max(axis=0) - delta
        v_defined = (np.maximum(top, -bottom) - delta > np.sqrt(hi)) & (w > 0) & (w**2 > 2 * T * level)
    return m_defined & v_defined


def _row_dots(A, B) -> np.ndarray:
    """Row sums of ``A * B`` in one pass, with no product array; a flag
    matrix ``B`` selects the entries of ``A`` it sums.  einsum's own loop,
    not BLAS, so a row's sum does not depend on the rows beside it."""
    return np.einsum("ij,ij->i", A, B)


def _partition_square_sum(E, mean, mask, tmp) -> np.ndarray:
    """Row sums of ``(E - mean)**2`` over the ``mask`` entries, the squares formed in ``tmp``."""
    np.subtract(E, mean[:, None], out=tmp)
    return _row_dots(np.square(tmp, out=tmp), mask)
