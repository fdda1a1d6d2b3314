"""Two-regime Markov-switching autoregression: parameter types, simulation,
ergodic probabilities, and closed-form moments of the implied normal mixture.

The observation equation is

    y_t = mu_{s_t} + sum_k phi_k (y_{t-k} - mu_{s_{t-k}}) + sigma_{s_t} e_t,

with ``e_t`` i.i.d. standard normal, independent of the two-state chain
``s_t``.  Marginally (for the no-lag model) each observation is a two-component
normal mixture weighted by the chain's ergodic probabilities.

Stationarity is one rule over coefficient matrices: :func:`root_moduli`
gives the smallest AR-root modulus of every row, and ``min_root_modulus``
is its one-row wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def is_ergodic(self) -> bool:
        """True iff p11 < 1, p22 < 1 and p11 + p22 > 0."""
        return self.p11 < 1.0 and self.p22 < 1.0 and self.p11 + self.p22 > 0.0

    def as_array(self) -> np.ndarray:
        return np.array([[self.p11, self.p12], [self.p21, self.p22]])


@dataclass(frozen=True)
class RegimeParams:
    """Regime-specific means and standard deviations.

    Separations are reported with the convention ``delta_mu = mu2 - mu1`` and
    ``delta_sigma = sigma2 - sigma1``.  Zero standard deviations are accepted
    so that degenerate (noise-free) paths can be simulated.
    """

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("regime standard deviations must be non-negative")

    @property
    def delta_mu(self) -> float:
        return self.mu2 - self.mu1

    @property
    def delta_sigma(self) -> float:
        return self.sigma2 - self.sigma1


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
    u = rng.uniform(size=T)
    states = np.empty(T, dtype=np.int64)
    states[0] = 1 if u[0] < pi1 else 2
    for t in range(1, T):
        stay = P.p11 if states[t - 1] == 1 else P.p22
        states[t] = states[t - 1] if u[t] < stay else 3 - states[t - 1]
    return states


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
    if r >= 1 and min_root_modulus(np.asarray(spec.phi)) <= 1.0:
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
    if r == 0:
        dev = sigma * eps
    else:
        # imported here: scipy.signal is most of the package's import time
        from scipy.signal import lfilter

        # d_t = sum_k phi_k d_{t-k} + sigma_{s_t} e_t with zero initial lags
        dev = lfilter([1.0], np.r_[1.0, -np.asarray(spec.phi)], sigma * eps)
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


def filtered_mixture_components(mu1: float, mu2: float, phi: float) -> tuple[float, float, float, float]:
    """Component means of ``y_t - phi y_{t-1}`` under mean switching.

    Filtering a two-regime mean-switching series at lag one yields a mixture
    whose means depend on the current and previous regime:

        (mu1 (1 - phi), mu2 - phi mu1, mu1 - phi mu2, mu2 (1 - phi))

    For ``mu1 != mu2`` these take two distinct values when ``phi = 0``, three
    when ``|phi| = 1`` and four otherwise.
    """
    return (
        mu1 * (1.0 - phi),
        mu2 - phi * mu1,
        mu1 - phi * mu2,
        mu2 * (1.0 - phi),
    )


def four_state_transition(P: TransitionMatrix) -> np.ndarray:
    """Transition matrix of the four-state chain tracking (s_t, s_{t-1}).

    States are ordered (1,1), (2,1), (1,2), (2,2); rows 1 and 3 equal
    ``(p11, p12, 0, 0)`` and rows 2 and 4 equal ``(0, 0, p21, p22)``.
    """
    row_a = [P.p11, P.p12, 0.0, 0.0]
    row_b = [0.0, 0.0, P.p21, P.p22]
    return np.array([row_a, row_b, row_a, row_b])


def root_moduli(P: np.ndarray) -> np.ndarray:
    """Smallest root modulus of ``1 - phi_1 z - ... - phi_r z^r`` for every
    row ``phi`` of an ``(n, r)`` coefficient matrix.

    A row is stationary iff its value exceeds one; an all-zero row (or a
    zero-width matrix) gives ``inf``.  Trailing zero coefficients add no
    roots, so rows are grouped by their order once those are dropped, and
    each group's companion matrices (the ones ``np.roots`` builds for
    ``[-phi_q, ..., -phi_1, 1]``) go through one stacked eigenvalue call.
    Every value equals the ``np.roots`` result bit for bit.
    """
    P = np.asarray(P, dtype=float)
    order = np.where(P != 0, np.arange(1, P.shape[1] + 1), 0).max(axis=1, initial=0)
    out = np.full(len(P), np.inf)
    for q in np.unique(order[order > 0]):
        rows = np.nonzero(order == q)[0]
        p = np.concatenate([-P[rows, q - 1 :: -1], np.ones((len(rows), 1))], axis=1)
        A = np.zeros((len(rows), q, q))
        A[:, 0, :] = -p[:, 1:] / p[:, :1]
        A[:, np.arange(1, q), np.arange(q - 1)] = 1.0
        out[rows] = np.abs(np.linalg.eigvals(A)).min(axis=1)
    return out


def min_root_modulus(phi: np.ndarray) -> float:
    """Smallest modulus of the roots of ``1 - phi_1 z - ... - phi_r z^r``
    (one row of :func:`root_moduli`; ``inf`` for an empty or all-zero
    vector).  The autoregression is stationary iff it exceeds one."""
    return float(root_moduli(np.reshape(phi, (1, -1)))[0])
