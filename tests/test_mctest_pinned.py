"""Pinned reports of the exact MC mixture test.

``mc_mixture_test`` ranks the data through the same core as the linearity
pass and builds its report through ``mc_pvalue``.  Every report field below
was recorded when it assembled the ranking and the report itself, and must
not move: no statistic, rank, p-value, tie flag or resample count.
"""

from __future__ import annotations

import numpy as np
import pytest

from regimetest._seeding import DOMAIN_REPLICATE, substream
from regimetest.mctest import mc_mixture_test


def _mixture(seed: int) -> np.ndarray:
    """A two-component scale mixture of T in {60, 100, 200} observations."""
    rng = substream(4242, seed)
    T = (60, 100, 200)[seed % 3]
    ones = rng.uniform(size=T) < 0.5
    return np.where(ones, rng.standard_normal(T), (1.0 + seed % 2) * rng.standard_normal(T))


def _replicate_three(seed: int) -> np.ndarray:
    """Replicate 3 of the seed's own null ensemble at T=80: its combined
    statistic ties the data's exactly, so the tie-breakers decide the rank."""
    return substream(seed, DOMAIN_REPLICATE, 3).standard_normal(80)


# (seed, method, statistic_value, rank, p_value, tie_breaker_used,
#  degenerate_resamples) of mc_mixture_test(_mixture(seed), N=100, ...)
MIXTURE = [
    (0, "min", 0.8693566257677618, 57, 0.44, False, 0),
    (0, "prod", 0.9561755130299846, 51, 0.5, False, 0),
    (1, "min", 0.8315744847320585, 56, 0.45, False, 0),
    (1, "prod", 0.9802110586577378, 59, 0.42, False, 0),
    (2, "min", 0.8282059455631617, 53, 0.48, False, 0),
    (2, "prod", 0.9177931264406708, 23, 0.78, False, 0),
    (3, "min", 0.9993865389686593, 99, 0.02, False, 0),
    (3, "prod", 0.9999992304393914, 99, 0.02, False, 0),
    (4, "min", 0.9788805558689083, 89, 0.12, False, 0),
    (4, "prod", 0.9992927555195203, 91, 0.1, False, 0),
    (5, "min", 0.9994304653569251, 100, 0.01, False, 0),
    (5, "prod", 0.9999958770438714, 99, 0.02, False, 0),
]

# the same fields of mc_mixture_test(_replicate_three(seed), N=50, ...)
TIED = [
    (7, "min", 0.9219915642559801, 36, 0.3, True, 0),
    (7, "prod", 0.9767872344965938, 31, 0.4, True, 0),
    (8, "min", 0.815532125907132, 28, 0.46, True, 0),
    (8, "prod", 0.9730257186908828, 31, 0.4, True, 0),
]


def _cases(rows):
    """Parametrize ``(seed, method, pinned fields)`` cases from pinned rows."""
    return pytest.mark.parametrize(
        "seed, method, pinned",
        [(seed, method, tuple(fields)) for seed, method, *fields in rows],
        ids=[f"{seed}-{method}" for seed, method, *_ in rows],
    )


def _fields(report):
    return (report.statistic_value, report.rank, report.p_value,
            report.tie_breaker_used, report.degenerate_resamples)


@_cases(MIXTURE)
def test_mixture_report_is_pinned(seed, method, pinned):
    report = mc_mixture_test(_mixture(seed), N=100, method=method, master_seed=seed)
    assert _fields(report) == pinned
    assert (report.N, report.seed) == (100, seed)


@_cases(TIED)
def test_tied_report_is_pinned(seed, method, pinned):
    report = mc_mixture_test(_replicate_three(seed), N=50, method=method, master_seed=seed)
    assert _fields(report) == pinned
    assert (report.N, report.seed) == (50, seed)
