"""Two-regime Markov-switching autoregression: parameter types, simulation,
ergodic probabilities, and closed-form moments of the implied normal mixture.

The observation equation is

    y_t = mu_{s_t} + sum_k phi_k (y_{t-k} - mu_{s_{t-k}}) + sigma_{s_t} e_t,

with ``e_t`` i.i.d. standard normal, independent of the two-state chain
``s_t``.  Marginally (for the no-lag model) each observation is a two-component
normal mixture weighted by the chain's ergodic probabilities.

Stationarity is one rule over coefficient matrices: :func:`stationary_rows`
keeps the rows whose reflection coefficients all lie strictly inside
(-1, 1), by the Levinson step-down recursion (the inverse of the partial
autocorrelation map of Barndorff-Nielsen & Schou, 1973).  A row whose
``sum |phi_k|`` is certainly below one is stationary without it.  Rows that
rounding cannot decide are settled in exact rational arithmetic, so a root
on the unit circle always counts as non-stationary.
``min_root_modulus`` reports the smallest AR-root modulus of one vector as
``np.roots`` gives it, a thin wrapper over ``_min_root_moduli``, which
takes those of many rows from one stacked ``np.linalg.eigvals`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class TransitionMatrix:
    """Two-state transition probabilities.

    Only the diagonal is stored; rows sum to one by construction
    (``p12 = 1 - p11``, ``p21 = 1 - p22``).
    """

    p11: float
    p22: float

    def __post_init__(self) -> None:
        for name in ("p11", "p22"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")

    @property
    def p12(self) -> float:
        return 1.0 - self.p11

    @property
    def p21(self) -> float:
        return 1.0 - self.p22


@dataclass(frozen=True)
class RegimeParams:
    """Regime-specific means and standard deviations.

    Zero standard deviations are accepted so that degenerate (noise-free)
    paths can be simulated.
    """

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("regime standard deviations must be non-negative")


@dataclass(frozen=True)
class MSARSpec:
    """Full parameter vector of the switching autoregression."""

    regimes: RegimeParams
    transition: TransitionMatrix
    phi: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", tuple(float(p) for p in self.phi))

    @property
    def r(self) -> int:
        """Autoregressive lag order."""
        return len(self.phi)


@dataclass(frozen=True)
class MixtureMoments:
    """Moments of the marginal two-component normal mixture.

    ``skewness`` is the signed coefficient; the moment-based test statistics
    apply absolute values separately.
    """

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def ergodic_probabilities(P: TransitionMatrix) -> tuple[float, float]:
    """Long-run state probabilities (pi1, pi2) of an ergodic two-state chain.

    pi1 = (1 - p22) / (2 - p11 - p22).

    Raises
    ------
    ValueError
        If the chain is not ergodic; the message names the violated condition.
    """
    if P.p11 >= 1.0:
        raise ValueError("chain is not ergodic: p11 = 1 violates p11 < 1")
    if P.p22 >= 1.0:
        raise ValueError("chain is not ergodic: p22 = 1 violates p22 < 1")
    if P.p11 + P.p22 <= 0.0:
        raise ValueError("chain is not ergodic: p11 + p22 = 0 violates p11 + p22 > 0")
    pi1 = (1.0 - P.p22) / (2.0 - P.p11 - P.p22)
    return pi1, 1.0 - pi1


def simulate_chain(P: TransitionMatrix, T: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate a state path of length ``T`` with values in {1, 2}.

    The first state is drawn from the ergodic distribution and subsequent
    states follow the transition probabilities.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    pi1, _ = ergodic_probabilities(P)
    u = rng.uniform(size=T).tolist()  # Python floats: the walk reads no numpy scalars
    state = 1 if u[0] < pi1 else 2
    states = [state]
    for v in u[1:]:
        stay = P.p11 if state == 1 else P.p22
        state = state if v < stay else 3 - state
        states.append(state)
    return np.array(states, dtype=np.int64)


def simulate_msar(spec: MSARSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate an observation path of length ``T`` from the switching model.

    The state-mean deviations follow the linear AR recursion driven by
    regime-scaled Gaussian noise, so the path is built by filtering the noise
    and adding back the state means.  A burn-in of ``100 + 10 r`` observations
    is discarded; initial lagged deviations are set to zero and the initial
    state is drawn from the ergodic distribution.

    Raises
    ------
    ValueError
        If the AR polynomial has a root on or inside the unit circle.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    r = spec.r
    if not stationary_rows(np.reshape(spec.phi, (1, r)))[0]:
        raise ValueError(
            "phi defines a non-stationary autoregression "
            "(root of the AR polynomial on or inside the unit circle)"
        )
    burn_in = 100 + 10 * r
    n = T + burn_in
    states = simulate_chain(spec.transition, n, rng)
    eps = rng.standard_normal(n)
    g = spec.regimes
    sigma = np.where(states == 1, g.sigma1, g.sigma2)
    mu = np.where(states == 1, g.mu1, g.mu2)
    dev = sigma * eps
    if r > 0:
        # d_t = sum_k phi_k d_{t-k} + sigma_{s_t} e_t with zero initial lags,
        # the lags summed from the highest down (the order of a direct-form
        # IIR filter such as scipy.signal.lfilter)
        coef = spec.phi[::-1]
        d = [0.0] * r + dev.tolist()  # Python floats: the loop reads no numpy scalars
        for t in range(n):
            acc = 0.0
            for k in range(r):
                acc += coef[k] * d[t + k]
            d[t + r] += acc
        dev = np.array(d[r:])
    return (mu + dev)[burn_in:]


def mixture_moments(regimes: RegimeParams, pi1: float) -> MixtureMoments:
    """Exact mean, variance, skewness and excess kurtosis of the mixture
    ``pi1 N(mu1, sigma1^2) + (1 - pi1) N(mu2, sigma2^2)``.
    """
    if not 0.0 < pi1 < 1.0:
        raise ValueError(f"pi1 must lie strictly inside (0, 1), got {pi1}")
    pi2 = 1.0 - pi1
    mu1, mu2 = regimes.mu1, regimes.mu2
    v1, v2 = regimes.sigma1**2, regimes.sigma2**2
    dmu = mu2 - mu1

    mean = pi1 * mu1 + pi2 * mu2
    variance = pi1 * v1 + pi2 * v2 + pi1 * pi2 * dmu**2
    if variance == 0.0:
        return MixtureMoments(mean, 0.0, 0.0, 0.0)

    skew_num = pi1 * pi2 * (mu1 - mu2) * (3.0 * (v1 - v2) + (1.0 - 2.0 * pi1) * dmu**2)
    skewness = skew_num / variance**1.5

    a = (
        3.0 * pi1 * pi2 * (v2 - v1) ** 2
        + 6.0 * dmu**2 * pi1 * pi2 * (2.0 * pi1 - 1.0) * (v2 - v1)
        + pi1 * pi2 * dmu**4 * (1.0 - 6.0 * pi1 * pi2)
    )
    excess_kurtosis = a / variance**2
    return MixtureMoments(mean, variance, skewness, excess_kurtosis)


# unit roundoff of float64
_U = np.finfo(float).eps / 2


def stationary_rows(P: np.ndarray) -> np.ndarray:
    """Which rows ``phi`` of an ``(n, r)`` coefficient matrix define a
    stationary autoregression (every root of ``1 - phi_1 z - ... - phi_r z^r``
    strictly outside the unit circle).

    A row whose computed ``sum |phi_k|`` lies below ``1 - (r + 1) u``
    (u = 2^-53, so the bound is a float) is stationary: the sum of r
    non-negative terms, added in any order, has at most r - 1 roundings, so
    it is at least ``(1 - (r - 1) u)`` times the exact sum, which is then
    below ``(1 - (r + 1) u) / (1 - (r - 1) u) < 1``; and where
    ``sum |phi_k| < 1``, ``|phi_1 z + ... + phi_r z^r| < 1`` on the closed
    unit disc, so no root lies on or inside it.  Every other row goes
    through the exact :func:`_step_down`, which accepts every row the
    certificate accepts, so the certificate moves no decision.  Rows with a
    non-finite entry are non-stationary; an all-zero row or a zero-width
    matrix is stationary.
    """
    P = np.asarray(P, dtype=float)
    keep = sum(np.abs(P.T), np.zeros(len(P))) < 1.0 - (P.shape[1] + 1) * _U
    rest = np.flatnonzero(~keep)
    if len(rest):
        keep[rest] = _step_down(P[rest])
    return keep


def _step_down(P: np.ndarray) -> np.ndarray:
    """:func:`stationary_rows` by the Levinson step-down recursion alone.

    The recursion takes ``a_k = phi_k^(k)`` and
    ``phi_j^(k-1) = (phi_j^(k) + a_k phi_{k-j}^(k)) / (1 - a_k^2)`` from
    ``k = r`` down to 1; a row is stationary iff every ``|a_k| < 1``.  The
    decision is exact for the rational numbers a row's floats hold: a row
    whose rounded ``|a_k|`` lies within the recursion's error bound of one
    is re-run in ``Fraction`` arithmetic.
    """
    keep = np.isfinite(P).all(axis=1)
    live = np.flatnonzero(keep)
    phi = list(np.ascontiguousarray(P[live].T))  # columns phi_1 ... phi_k of the live rows
    err = np.zeros(len(live))
    undecided = [live[:0]]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while phi:
            a = phi.pop()
            # exact while |a_k| lies in [1/2, 2] (Sterbenz), the only range
            # where it is compared against a small bound
            excess = np.abs(a) - 1.0
            out = excess - err >= 0.0  # |a_k| >= 1 for certain
            inside = excess + err < 0.0  # |a_k| < 1 for certain
            keep[live[out]] = False
            undecided.append(live[~(out | inside)])  # NaN and inf land here
            if not phi:
                break
            live, err, a = live[inside], err[inside], a[inside]
            phi = [c[inside] for c in phi]
            # ``err`` bounds |computed - exact| over a row's coefficients.
            # The bounds below cover the error carried in plus the rounding
            # of each operation (at most u times the magnitude) for the
            # numerator, the denominator and the quotient; the factor 2
            # absorbs the rounding of the bound's own arithmetic.  A
            # well-conditioned row keeps a bound of a few ulps; a row whose
            # denominator the bound cannot keep away from zero gets an
            # infinite bound and goes to the exact re-check.
            abs_a = np.abs(a)
            m = np.maximum.reduce([np.abs(c) for c in phi])
            num = [c + a * d for c, d in zip(phi, phi[::-1])]
            num_max = np.maximum.reduce([np.abs(c) for c in num])
            den = 1.0 - a * a
            err_num = err * (1.0 + abs_a + m + err) + 2.0 * _U * m * (1.0 + abs_a)
            err_den = err * (2.0 * abs_a + err) + 2.0 * _U
            phi = [c / den for c in num]
            exact_max = (num_max + err_num) / (den - err_den)
            err = np.where(
                den > err_den,
                2.0 * ((err_num + exact_max * err_den + _U * num_max) / den),
                np.inf,
            )
    for i in np.concatenate(undecided):
        keep[i] = _exact_stationary(P[i])
    return keep


def _exact_stationary(phi: np.ndarray) -> bool:
    """The step-down rule in rational arithmetic, on the exact values of a
    finite float row."""
    p = [Fraction(float(x)) for x in phi]
    for k in range(len(p), 0, -1):
        a = p[k - 1]
        if abs(a) >= 1:
            return False
        p = [(p[j] + a * p[k - 2 - j]) / (1 - a * a) for j in range(k - 1)]
    return True


def min_root_modulus(phi: np.ndarray) -> float:
    """Smallest modulus of the roots of ``1 - phi_1 z - ... - phi_r z^r``
    from ``np.roots`` once trailing zero coefficients are dropped (``inf``
    for an empty or all-zero vector).  The autoregression is stationary iff
    it exceeds one, up to the rounding of the roots.

    Where the last coefficient is so small that ``np.roots``' companion
    matrix (the other coefficients over it) overflows, the modulus is
    ``1 / max|lambda|`` over the roots of the reciprocal polynomial
    ``w^q - phi_1 w^(q-1) - ... - phi_q``, whose companion holds the
    coefficients themselves (``inf`` where that quotient overflows).

    A thin wrapper over the batch :func:`_min_root_moduli` on one row."""
    return float(_min_root_moduli(np.ravel(np.asarray(phi, dtype=float))[None, :])[0])


def _min_root_moduli(P: np.ndarray) -> np.ndarray:
    """:func:`min_root_modulus` of every row of the ``(n, r)`` matrix ``P``,
    bit for bit: the rows of each order q (the index of their last non-zero
    coefficient) build the companion matrices ``np.roots`` builds, and one
    stacked ``np.linalg.eigvals`` call per order and path takes their
    eigenvalues, each from the LAPACK call ``np.roots`` makes on its own.
    Where ``np.roots`` returns real roots and the stack complex ones, their
    imaginary parts are exact zeros, which leave the moduli as they are."""
    out = np.full(len(P), np.inf)
    order = ((P != 0) * np.arange(1, P.shape[1] + 1)).max(axis=1, initial=0)
    for q in set(order.tolist()) - {0}:
        rows = np.flatnonzero(order == q)
        phi = P[rows, :q]
        # np.roots' companion of p = [-phi_q, ..., -phi_1, 1] has the first
        # row -p[1:] / p[0]; that of the reciprocal polynomial, phi itself
        top = np.full((len(rows), q), -1.0)
        top[:, :-1] = phi[:, -2::-1]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            top /= -phi[:, -1:]
        direct = np.isfinite(top).all(axis=1)
        out[rows[direct]] = np.abs(_companion_eigvals(top[direct])).min(axis=1)
        if not direct.all():
            with np.errstate(over="ignore", divide="ignore"):
                out[rows[~direct]] = 1.0 / np.abs(_companion_eigvals(phi[~direct])).max(axis=1)
    return out


def _companion_eigvals(top: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of ``np.roots``, first rows
    ``top`` and ones below the diagonal, in one stacked call."""
    m, q = top.shape
    A = np.zeros((m, q, q))
    A[:, 0] = top
    A.reshape(m, q * q)[:, q :: q + 1] = 1.0  # the entries (k + 1, k)
    return np.linalg.eigvals(A)
