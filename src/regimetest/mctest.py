"""Monte Carlo test engine: the one home of the exact MC test.

Statistic quartets become approximate marginal p-values through logistic
approximations of their null distribution functions; the two combination
rules (minimum and product) reduce them to one statistic per row.
:func:`null_ensemble` draws the N - 1 simulated standard-normal vectors and
the N uniform tie-breakers of a test once and sorts the replicates' combined
statistics once; :meth:`NullEnsemble.rank` ranks the combined statistic of
each block of data rows among them as the block arrives, by the one rank
rule of :func:`rank_pvalues` (the sort, then a lookup per block).  The rank
p-value is exact at any N, however crude the approximations, since data and
replicate statistics share them.
:func:`mc_mixture_test` is that test on one series, ranked as a one-row
block; the linearity tests build their data rows (the OLS point and the
nuisance grid) and stream them through the same ensemble.  Where all the
data rows are ranked at once (one series, or a one-block linearity pass),
:func:`_ensemble_and_quartets` reduces them in the replicates' kernel call.

The module also holds the rank rule itself, the one draw of its
tie-breakers, critical ranks, and the regeneration of the logistic
coefficients by non-linear least squares.
"""

from __future__ import annotations

import csv
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from importlib.resources import as_file, files
from pathlib import Path
from typing import Mapping

import numpy as np

from ._seeding import DOMAIN_REPLICATE, DOMAIN_TIEBREAK, normal_rows, substream
from .moments import _quartets, _rows, finite_series, quartet_matrix, raise_if_degenerate

logger = logging.getLogger(__name__)

STATISTICS = ("M", "V", "S", "K")

_QUANTILE_GRID = np.arange(1, 1000) / 1000.0  # 0.001 ... 0.999
_MAX_RESAMPLE_ATTEMPTS = 100  # resampling rounds for degenerate null replicates


@dataclass(frozen=True)
class LogisticCoeffs:
    """Coefficients (gamma0, gamma1) of a logistic CDF approximation
    ``F(x) = exp(g0 + g1 x) / (1 + exp(g0 + g1 x))`` for one statistic at one
    sample size."""

    gamma0: float
    gamma1: float
    statistic: str = "?"
    T: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma0) and math.isfinite(self.gamma1) and self.gamma1 > 0):
            raise ValueError(
                f"{self.statistic} at T={self.T}: need finite gamma0 and finite positive "
                f"gamma1, got ({self.gamma0}, {self.gamma1})"
            )


class LogisticCoeffTable:
    """Per-statistic, per-sample-size logistic coefficients.

    The packaged default carries the four statistics at T in
    {50, 100, 150, 200, 250}.  Lookups at other sample sizes interpolate
    (gamma0, gamma1) linearly in T between the bracketing entries, or
    extrapolate from the two nearest entries outside the supported range.
    """

    def __init__(self, entries: Mapping[tuple[str, int], LogisticCoeffs]):
        self._entries = dict(entries)
        if not self._entries:
            raise ValueError("coefficient table is empty")
        self._interpolated: dict[tuple[str, int], LogisticCoeffs] = {}

    def supported_sizes(self, statistic: str) -> list[int]:
        return sorted(T for (s, T) in self._entries if s == statistic)

    def coeffs_for(self, statistic: str, T: int) -> LogisticCoeffs:
        """Entry at sample size ``T``, interpolated in T if necessary (once
        per size: a streaming pass asks for the same size block after block)."""
        key = (statistic, int(T))
        if key in self._entries:
            return self._entries[key]
        if (statistic, T) not in self._interpolated:
            self._interpolated[statistic, T] = self._interpolate(statistic, T)
        return self._interpolated[statistic, T]

    def _interpolate(self, statistic: str, T: int) -> LogisticCoeffs:
        sizes = self.supported_sizes(statistic)
        if len(sizes) < 2:
            raise ValueError(f"cannot interpolate {statistic}: table has fewer than two sizes")
        # the bracketing sizes; outside the table, the two nearest (extrapolation)
        i = min(max(bisect_left(sizes, T), 1), len(sizes) - 1)
        lo, hi = sizes[i - 1], sizes[i]
        w = (T - lo) / (hi - lo)
        a = self._entries[(statistic, lo)]
        b = self._entries[(statistic, hi)]
        return LogisticCoeffs(
            gamma0=(1 - w) * a.gamma0 + w * b.gamma0,
            gamma1=(1 - w) * a.gamma1 + w * b.gamma1,
            statistic=statistic,
            T=int(T),
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> "LogisticCoeffTable":
        entries: dict[tuple[str, int], LogisticCoeffs] = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                stat = row["statistic"].strip()
                T = int(row["T"])
                entries[(stat, T)] = LogisticCoeffs(
                    gamma0=float(row["gamma0"]),
                    gamma1=float(row["gamma1"]),
                    statistic=stat,
                    T=T,
                )
        return cls(entries)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["statistic", "T", "gamma0", "gamma1"])
            for (stat, T) in sorted(self._entries, key=lambda k: (STATISTICS.index(k[0]), k[1])):
                c = self._entries[(stat, T)]
                writer.writerow([stat, T, repr(c.gamma0), repr(c.gamma1)])

    _default: "LogisticCoeffTable | None" = None

    @classmethod
    def default(cls) -> "LogisticCoeffTable":
        """The packaged coefficient table (cached)."""
        if cls._default is None:
            with as_file(files("regimetest").joinpath("data/logistic_coeffs.csv")) as path:
                cls._default = cls.from_csv(path)
        return cls._default


def logistic_cdf(x, c: LogisticCoeffs):
    """Evaluate the logistic approximation, safely for large |g0 + g1 x|."""
    out = _logistic(c.gamma0 + c.gamma1 * np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _logistic(z):
    """exp(z) / (1 + exp(z)), without overflow for large |z|; at ``-z`` it is
    the survival function 1 - logistic(z), without cancellation."""
    # one exp of -|z|, which never overflows; taken as z where z is NaN, so
    # that a NaN keeps its sign bit as in exp(z) / (1 + exp(z))
    nonneg = z >= 0.0
    e = np.exp(np.where(nonneg, -z, z))
    return np.where(nonneg, 1.0, e) / (1.0 + e)


def approx_pvalue_matrix(Q: np.ndarray, table: LogisticCoeffTable, T: int) -> np.ndarray:
    """Column-wise approximate p-values for a batch of quartets (n, 4)."""
    return _approx_pvalues(Q, table, T, STATISTICS)


def _approx_pvalues(Q: np.ndarray, table: LogisticCoeffTable, T: int, statistics) -> np.ndarray:
    """Approximate p-values of the columns of ``Q``, one column per name in
    ``statistics``; each entry is the same whichever columns are given."""
    coeffs = [table.coeffs_for(stat, T) for stat in statistics]
    gamma0 = np.array([c.gamma0 for c in coeffs])
    gamma1 = np.array([c.gamma1 for c in coeffs])
    return _logistic(-(gamma0 + gamma1 * np.asarray(Q, dtype=float)))


def combine_min(pvals) -> float:
    """Combined statistic 1 - min(p): large when any p-value is small."""
    return _combine(pvals, "min")


def combine_prod(pvals) -> float:
    """Combined statistic 1 - prod(p): large when p-values are jointly small."""
    return _combine(pvals, "prod")


def _combine(pvals, method: str) -> float:
    p = np.asarray(pvals, dtype=float)
    if p.size == 0:
        raise ValueError("no p-values to combine")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    return float(combine_matrix(p[None, :], method)[0])


def combine_matrix(G: np.ndarray, method: str) -> np.ndarray:
    """Row-wise combination of a (n, k) matrix of marginal p-values: the
    minimum and the product folded over the columns from the left, which
    equal ``G.min(axis=1)`` and ``G.prod(axis=1)`` bit for bit, without a
    reduction's per-row overhead."""
    if method == "min":
        return 1.0 - reduce(np.minimum, G.T)
    if method == "prod":
        return 1.0 - reduce(np.multiply, G.T)
    raise ValueError(f"unknown combination method {method!r}; use 'min' or 'prod'")


@dataclass(frozen=True)
class MCTestReport:
    """Outcome of one exact MC test: p = (N + 1 - rank) / N."""

    statistic_value: float
    rank: int
    p_value: float
    N: int
    seed: int | None = None
    tie_breaker_used: bool = False
    degenerate_resamples: int = 0


def mc_pvalue(xi0: float, xi_sim: np.ndarray, rng: np.random.Generator,
              seed: int | None = None) -> MCTestReport:
    """Exact MC p-value of the data statistic ``xi0`` among its simulated
    counterparts ``xi_sim``, with the tie-breakers drawn from ``rng``."""
    xi_sim = np.asarray(xi_sim, dtype=float)
    u = rng.uniform(size=len(xi_sim) + 1)
    return _report(xi0, xi_sim, *rank_pvalues(xi0, xi_sim, u[0], u[1:]), seed)


def _report(xi0, xi_sim, ranks, p, seed, resampled: int = 0) -> MCTestReport:
    """The report of the first data statistic of a ranking."""
    return MCTestReport(float(xi0), int(ranks[0]), float(p[0]), len(xi_sim) + 1, seed,
                        bool(np.any(xi_sim == xi0)), resampled)


def rank_pvalues(
    xi0: np.ndarray, xi_sim: np.ndarray, u0: float, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and MC p-values ``(N + 1 - rank) / N`` of data statistics
    against one replicate set: the one implementation of the rank rule.

    A rank is one plus the count of replicates below, a tied replicate
    counting as below when its tie-breaker in ``us`` is below the data's
    ``u0``, which keeps the test exact for discrete statistics.  The counts
    are looked up in the sorted replicates (:func:`_sorted_replicates`, which
    a :class:`NullEnsemble` does once for every block it ranks).  A NaN
    statistic, which has no rank, or an empty replicate set raises
    ``ValueError``.
    """
    return _rank_lookup(xi0, *_sorted_replicates(xi_sim, u0, us))


def _sorted_replicates(xi_sim: np.ndarray, u0: float, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The replicate statistics in ascending order, and the count of those
    with a tie-breaker below ``u0`` among the first i of them, i = 0 ... N - 1."""
    if len(xi_sim) == 0:
        raise ValueError("the ensemble needs at least one simulated statistic")
    if np.isnan(xi_sim).any():
        raise ValueError("an MC statistic is NaN and has no rank")
    order = np.argsort(xi_sim)
    return xi_sim[order], np.concatenate([[0], np.cumsum(us[order] < u0)])


def _rank_lookup(xi0, sims: np.ndarray, below_u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and p-values of data statistics against sorted replicates: the
    replicates strictly below, plus the tied ones whose tie-breaker is below."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if np.isnan(xi0).any():
        raise ValueError("an MC statistic is NaN and has no rank")
    lo = np.searchsorted(sims, xi0, "left")
    hi = np.searchsorted(sims, xi0, "right")
    ranks = 1 + lo + below_u0[hi] - below_u0[lo]
    N = len(sims) + 1
    return ranks, (N + 1 - ranks) / N


def critical_rank(N: int, alpha: float) -> int:
    """Critical rank c_N(alpha) = N - floor(N alpha) + 1.

    Rejecting when the data rank is at least this value is equivalent to
    ``p <= alpha`` whenever ``N alpha`` is an integer.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    # guard against float representations like 100 * 0.29 = 28.999999...
    return N - math.floor(N * alpha + 1e-9) + 1


def fit_logistic_cdf(samples: np.ndarray, statistic: str = "?", T: int = 0) -> LogisticCoeffs:
    """Fit (gamma0, gamma1) to the empirical distribution of statistic draws.

    Non-linear least squares on the empirical quantile function: minimizes
    ``sum_q (F(x_q) - q)^2`` over the 999 quantile levels 0.001 ... 0.999,
    starting from a logit-linear regression.

    Raises
    ------
    ValueError
        On fewer than 10^4 samples, or if the optimizer fails to converge or
        produces a non-increasing fit.
    """
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import least_squares

    samples = np.asarray(samples, dtype=float)
    if len(samples) < 10_000:
        raise ValueError(f"need at least 10^4 samples to fit, got {len(samples)}")
    xq = np.quantile(samples, _QUANTILE_GRID)

    # logit-linear start: log(q / (1 - q)) ~ g0 + g1 x_q
    A = np.column_stack([np.ones_like(xq), xq])
    start, *_ = np.linalg.lstsq(A, np.log(_QUANTILE_GRID / (1.0 - _QUANTILE_GRID)), rcond=None)

    def residuals(g):
        return _logistic(g[0] + g[1] * xq) - _QUANTILE_GRID

    sol = least_squares(residuals, x0=start, method="lm")
    if not sol.success:
        raise ValueError(
            f"logistic fit did not converge: status={sol.status}, "
            f"message={sol.message!r}, cost={sol.cost:.3e}"
        )
    # LogisticCoeffs rejects a non-increasing fit, naming the statistic and T
    return LogisticCoeffs(float(sol.x[0]), float(sol.x[1]), statistic=statistic, T=int(T))


def simulate_null_quartets(T: int, N: int, master_seed: int) -> tuple[np.ndarray, int]:
    """Quartets of N - 1 demeaned standard-normal vectors of length ``T``.

    Replicate ``i`` is generated from the stream derived from
    ``(master_seed, replicate-domain, i)``, all of them seeded in one
    :func:`~regimetest._seeding.normal_rows` pass; a degenerate replicate (an event
    of probability zero for continuous data) is resampled from the next
    sub-stream ``(master_seed, replicate-domain, i, attempt)``.

    Returns the (N - 1, 4) quartet matrix and the resample count.
    """
    return _null_quartets(T, N, master_seed, np.empty((0, T)))


def _null_quartets(T: int, N: int, master_seed: int, X: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`simulate_null_quartets`, with the rows of ``X`` (series of
    length ``T``, demeaned here) stacked under the replicates and reduced in
    the same kernel call: the quartets of the N - 1 replicates, then those of
    the rows of ``X``, and the resample count.  The kernel reduces every row
    on its own, so each quartet equals :func:`~regimetest.moments.quartet_matrix`
    of its row alone, bit for bit."""
    E = _rows(np.concatenate([normal_rows(master_seed, DOMAIN_REPLICATE, rows=N - 1, T=T), X]))
    # demeaned in place, not copied: at T = 199 a copy is one array too many,
    # and glibc trims the heap after every call and faults it back in (170
    # minor faults per T = 200 desk-study replication with the copy, 78 without)
    E -= E.mean(axis=1, keepdims=True)
    Q = _quartets(E)
    resampled = 0
    bad = np.isnan(Q[: N - 1]).any(axis=1)
    attempt = 0
    while bad.any():
        attempt += 1
        if attempt > _MAX_RESAMPLE_ATTEMPTS:
            raise RuntimeError("could not draw a non-degenerate replicate")
        idx = np.nonzero(bad)[0]
        resampled += len(idx)
        logger.warning("resampling %d degenerate MC replicate(s)", len(idx))
        for i in idx:
            E[i] = substream(master_seed, DOMAIN_REPLICATE, int(i), attempt).standard_normal(T)
        Q[idx] = quartet_matrix(E[idx])
        bad = np.isnan(Q[: N - 1]).any(axis=1)
    return Q, resampled


def tie_breaker_uniforms(N: int, master_seed: int) -> np.ndarray:
    """The N tie-breaking uniforms of an ensemble; index 0 belongs to the
    data statistic."""
    return substream(master_seed, DOMAIN_TIEBREAK).uniform(size=N)


@dataclass(frozen=True)
class NullEnsemble:
    """The null side of an exact MC test over ``T`` observations: under each
    rule, the combined statistics of ``N - 1`` simulated replicates, sorted
    once, with the running count of their tie-breakers below the data's
    (:func:`_sorted_replicates`).  Data rows are ranked against it block by
    block, as they arrive."""

    T: int
    table: LogisticCoeffTable
    replicates: dict[str, tuple[np.ndarray, np.ndarray]]
    resampled: int

    def rank(self, Qz: np.ndarray) -> dict[str, tuple[np.ndarray, ...]]:
        """``{rule: (row statistics, row ranks, row p-values)}`` of data rows,
        given as their statistic quartets (the rows of ``Qz``), under every
        rule of the ensemble, by the rule of :func:`rank_pvalues`.  A
        degenerate data row raises
        :class:`~regimetest.moments.DegenerateSampleError`."""
        raise_if_degenerate(Qz)
        G = approx_pvalue_matrix(Qz, self.table, self.T)
        out = {}
        for rule, replicates in self.replicates.items():
            f0 = combine_matrix(G, rule)
            out[rule] = (f0, *_rank_lookup(f0, *replicates))
        return out

    def pvalue_bounds(self, s: np.ndarray, k: np.ndarray, rules) -> dict[str, np.ndarray]:
        """``{rule: p-value bounds}`` of data rows from lower bounds ``s`` and
        ``k`` on their S and K, under each of ``rules``: the rank p-values
        with the M and V marginal p-values at 1, their largest value, and the
        S and K ones at ``s`` and ``k``, raised by a relative 2^-30 (at most
        1).  The survival function falls as its statistic rises, and the
        raise covers ``np.exp``'s rounding, which numpy picks per CPU, so
        each marginal p-value is at least the row's own (where one is too
        small to be a normal number, both combined statistics round to 1).
        The bound's combined statistic is then never above the row's own
        (the minimum is exact, and each rounded partial product can only
        grow with its factors), and a rank p-value never rises with the
        statistic, so no row's p-value under :meth:`rank` exceeds its
        bound.  The logistic runs on the S and K columns only."""
        G = np.ones((len(s), 4))
        SK = _approx_pvalues(np.column_stack([s, k]), self.table, self.T, STATISTICS[2:])
        np.minimum(SK * (1.0 + 2.0**-30), 1.0, out=G[:, 2:])
        return {rule: _rank_lookup(combine_matrix(G, rule), *self.replicates[rule])[1] for rule in rules}


def null_ensemble(
    T: int, N: int, rules, table: LogisticCoeffTable | None, master_seed: int
) -> NullEnsemble:
    """The one null ensemble of a pass: ``N - 1`` replicates of length ``T``
    and ``N`` tie-breakers, all drawn from ``master_seed``, with the
    replicates' combined statistics under each of ``rules``."""
    return _ensemble_and_quartets(T, N, rules, table, master_seed, np.empty((0, T)))[0]


def _ensemble_and_quartets(
    T: int, N: int, rules, table: LogisticCoeffTable | None, master_seed: int, X: np.ndarray
) -> tuple[NullEnsemble, np.ndarray]:
    """:func:`null_ensemble`, and the quartets of the data rows ``X``
    (series of length ``T``) from the replicates' kernel call
    (:func:`_null_quartets`): a pass that ranks all its rows at once pays
    the kernel's fixed cost once."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if table is None:
        table = LogisticCoeffTable.default()
    Q, resampled = _null_quartets(T, N, master_seed, X)
    G = approx_pvalue_matrix(Q[: N - 1], table, T)
    u = tie_breaker_uniforms(N, master_seed)
    replicates = {rule: _sorted_replicates(combine_matrix(G, rule), u[0], u[1:]) for rule in rules}
    return NullEnsemble(T, table, replicates, resampled), Q[N - 1 :]


def mc_mixture_test(
    z: np.ndarray,
    N: int = 100,
    method: str = "min",
    table: LogisticCoeffTable | None = None,
    master_seed: int = 0,
) -> MCTestReport:
    """Exact MC test that a series is i.i.d. normal against mixture features.

    The combined statistic of the demeaned data is ranked among the combined
    statistics of ``N - 1`` simulated standard-normal vectors of the same
    length, all evaluated with the same coefficient table; the report is
    that one ranking's.

    Degenerate-sample errors on the data path propagate; degenerate simulated
    replicates are resampled (and counted in the report).  A non-finite
    value or a series that is not one-dimensional is a ``ValueError``.
    """
    z = finite_series(z)
    if z.ndim != 1:
        raise ValueError(f"need a one-dimensional series, got shape {z.shape}")
    ensemble, Qz = _ensemble_and_quartets(len(z), N, (method,), table, master_seed, z[None, :])
    f0, ranks, p = ensemble.rank(Qz)[method]
    return _report(f0[0], ensemble.replicates[method][0], ranks, p, master_seed, ensemble.resampled)
