"""Scalar reference for the four statistics.

These are the per-statistic formulas, written with boolean-mask indexing and
``mean`` over each partition, that the batch kernel in ``regimetest.moments``
replaced.  Tests compare the kernel's columns against them.
"""

from __future__ import annotations

import numpy as np

from regimetest.moments import DegenerateSampleError, _dispersion_floor


def stat_m(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    pos = e > 0
    neg = e < 0
    n2, n1 = int(pos.sum()), int(neg.sum())
    if n2 == 0:
        raise DegenerateSampleError("M", "no residuals above the mean")
    if n1 == 0:
        raise DegenerateSampleError("M", "no residuals below the mean")
    m2 = e[pos].mean()
    m1 = e[neg].mean()
    s22 = ((e[pos] - m2) ** 2).mean()
    s12 = ((e[neg] - m1) ** 2).mean()
    if s22 + s12 <= _dispersion_floor(np.abs(e).max()):
        raise DegenerateSampleError("M", "both partitions have zero dispersion")
    return abs(m2 - m1) / np.sqrt(s22 + s12)


def stat_v(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    e2 = e**2
    sig2 = e2.mean()
    big = e2 > sig2
    small = e2 < sig2
    if not big.any():
        raise DegenerateSampleError("V", "no squared residuals above the sample variance")
    if not small.any():
        raise DegenerateSampleError("V", "no squared residuals below the sample variance")
    v2 = e2[big].mean()
    v1 = e2[small].mean()
    if v1 <= _dispersion_floor(np.abs(e).max()):
        raise DegenerateSampleError("V", "lower partition has zero average square")
    return v2 / v1


def stat_s(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    sig2 = (e**2).mean()
    if sig2 <= 0.0:
        raise DegenerateSampleError("S", "zero sample variance")
    return abs((e**3).mean() / sig2**1.5)


def stat_k(e: np.ndarray) -> float:
    e = np.asarray(e, dtype=float)
    sig2 = (e**2).mean()
    if sig2 <= 0.0:
        raise DegenerateSampleError("K", "zero sample variance")
    return abs((e**4).mean() / sig2**2 - 3.0)


STATS = (stat_m, stat_v, stat_s, stat_k)


def compute_quartet(e: np.ndarray) -> np.ndarray:
    """(M, V, S, K) of a demeaned series; the first undefined statistic raises."""
    return np.array([stat(e) for stat in STATS])
