from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probe import run_probe
import regimetest.msar as msar
from regimetest.msar import (
    MSARSpec,
    RegimeParams,
    TransitionMatrix,
    _exact_stationary,
    _min_root_moduli,
    _step_down,
    ergodic_probabilities,
    min_root_modulus,
    mixture_moments,
    simulate_chain,
    simulate_msar,
    stationary_rows,
)


def batch_se(x: np.ndarray, stat, n_batches: int = 100) -> tuple[float, float]:
    """Monte Carlo estimate and standard error of a statistic via batch means."""
    batches = np.array_split(np.asarray(x), n_batches)
    vals = np.array([stat(b) for b in batches])
    return float(stat(x)), float(vals.std(ddof=1) / np.sqrt(n_batches))


class TestTransitionMatrix:
    def test_off_diagonals(self):
        P = TransitionMatrix(0.9, 0.5)
        assert P.p12 == pytest.approx(0.1)
        assert P.p21 == pytest.approx(0.5)
        assert P.p11 + P.p12 == 1.0 and P.p21 + P.p22 == 1.0

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            TransitionMatrix(1.2, 0.5)
        with pytest.raises(ValueError):
            TransitionMatrix(0.5, -0.1)

    @pytest.mark.parametrize(
        "p11,p22,ergodic",
        [(0.9, 0.9, True), (1.0, 0.9, False), (0.9, 1.0, False), (0.0, 0.0, False), (0.0, 0.5, True)],
    )
    def test_ergodicity_flag(self, p11, p22, ergodic):
        P = TransitionMatrix(p11, p22)
        if ergodic:
            pi1, pi2 = ergodic_probabilities(P)
            assert 0.0 <= pi1 <= 1.0 and pi1 + pi2 == 1.0
        else:
            with pytest.raises(ValueError, match="chain is not ergodic"):
                ergodic_probabilities(P)


class TestErgodicProbabilities:
    def test_symmetric_chain(self):
        assert ergodic_probabilities(TransitionMatrix(0.9, 0.9)) == pytest.approx((0.5, 0.5))

    def test_formula_value(self):
        # (1 - 0.5) / (2 - 0.9 - 0.5) = 5/6
        pi1, pi2 = ergodic_probabilities(TransitionMatrix(0.9, 0.5))
        assert pi1 == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert pi2 == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_matches_long_run_frequencies(self):
        P = TransitionMatrix(0.9, 0.5)
        pi1, _ = ergodic_probabilities(P)
        states = simulate_chain(P, 200_000, np.random.default_rng(7))
        freq, se = batch_se(states == 1, np.mean)
        assert abs(freq - pi1) < 3 * se

    def test_non_ergodic_rejected(self):
        with pytest.raises(ValueError, match="p11"):
            ergodic_probabilities(TransitionMatrix(1.0, 0.9))
        with pytest.raises(ValueError, match="p11 \\+ p22"):
            ergodic_probabilities(TransitionMatrix(0.0, 0.0))

    @given(st.floats(0.0, 0.999), st.floats(0.001, 0.999))
    def test_sums_to_one(self, p11, p22):
        pi1, pi2 = ergodic_probabilities(TransitionMatrix(p11, p22))
        assert pi1 + pi2 == pytest.approx(1.0)
        assert 0.0 < pi1 < 1.0 and 0.0 < pi2 < 1.0


class TestSimulateChain:
    def test_transition_frequencies(self):
        P = TransitionMatrix(0.95, 0.95)
        states = simulate_chain(P, 100_000, np.random.default_rng(11))
        for regime, stay in ((1, P.p11), (2, P.p22)):
            here = states[:-1] == regime
            n = here.sum()
            stayed = (states[1:][here] == regime).mean()
            assert abs(stayed - stay) < 3 * np.sqrt(stay * (1 - stay) / n)

    def test_half_half_is_uniform(self):
        states = simulate_chain(TransitionMatrix(0.5, 0.5), 100_000, np.random.default_rng(3))
        freq = (states == 1).mean()
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / len(states))

    def test_deterministic_given_seed(self):
        P = TransitionMatrix(0.8, 0.6)
        a = simulate_chain(P, 500, np.random.default_rng(5))
        b = simulate_chain(P, 500, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_non_ergodic_rejected(self):
        with pytest.raises(ValueError):
            simulate_chain(TransitionMatrix(1.0, 0.5), 10, np.random.default_rng(0))


class TestSimulateMSAR:
    def test_package_import_leaves_scipy_signal_unloaded(self):
        # scipy serves fit_logistic_cdf alone, which imports scipy.optimize on
        # first use: importing the package, simulating a path (whose AR
        # recursion needs no scipy.signal) and a CHP test load no scipy module
        code = ("import sys, numpy, regimetest as rt; "
                "y = rt.simulate_msar(rt.MSARSpec(rt.RegimeParams(0, 1, 1, 2), rt.TransitionMatrix(0.9, 0.8), "
                "(0.3, 0.2)), 50, numpy.random.default_rng(0)); "
                "rt.chp_bootstrap_test(y, B=5, draws=5); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_probe(code).strip() == "[]"

    @pytest.mark.parametrize("phi", [(0.6,), (0.5, -0.3), (0.2, 0.1, -0.4), (-0.3, 0.2, 0.1, 0.25)])
    def test_ar_recursion_bit_identical_to_lfilter(self, phi):
        # the recursion sums the lags in scipy.signal.lfilter's order, so a path
        # rebuilt from the same draws through lfilter matches it bit for bit
        from scipy.signal import lfilter

        spec = MSARSpec(RegimeParams(-1.0, 2.0, 0.5, 1.5), TransitionMatrix(0.9, 0.7), phi)
        T, n = 150, 150 + 100 + 10 * len(phi)
        rng = np.random.default_rng(12)
        states = simulate_chain(spec.transition, n, rng)
        eps = rng.standard_normal(n)
        sigma = np.where(states == 1, 0.5, 1.5)
        mu = np.where(states == 1, -1.0, 2.0)
        want = (mu + lfilter([1.0], np.r_[1.0, -np.asarray(phi)], sigma * eps))[n - T :]
        np.testing.assert_array_equal(simulate_msar(spec, T, np.random.default_rng(12)), want)

    def test_degenerate_noise_constant_path(self):
        spec = MSARSpec(RegimeParams(1.5, 1.5, 0.0, 0.0), TransitionMatrix(0.9, 0.9))
        y = simulate_msar(spec, 50, np.random.default_rng(0))
        assert np.all(y == 1.5)

    def test_ar1_autocorrelation(self):
        spec = MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (0.9,))
        y = simulate_msar(spec, 50_000, np.random.default_rng(21))
        d = y - y.mean()
        r1 = (d[1:] * d[:-1]).mean() / (d**2).mean()
        # asymptotic se of the lag-1 autocorrelation of an AR(1)
        assert abs(r1 - 0.9) < 3 * np.sqrt((1 - 0.81) / len(y))

    def test_symmetric_mixture_has_zero_skewness(self):
        # p11 = p22 makes the weights equal, so the mean-separated mixture is symmetric
        spec = MSARSpec(RegimeParams(-1.0, 1.0, 1.0, 1.0), TransitionMatrix(0.5, 0.5))
        y = simulate_msar(spec, 200_000, np.random.default_rng(2))

        def skew(v):
            d = v - v.mean()
            return (d**3).mean() / (d**2).mean() ** 1.5

        value, se = batch_se(y, skew)
        assert abs(value) < 3 * se

    def test_nonstationary_phi_rejected(self):
        spec = MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (1.0,))
        with pytest.raises(ValueError, match="stationary"):
            simulate_msar(spec, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("phi", [(0.2, 0.3, 0.5), (0.5, 0.25, 0.25)])
    def test_exact_unit_root_rejected(self, phi):
        # phi sums to one, so z = 1 is a root; np.roots puts its modulus at
        # 1 + ulp, so a "smallest modulus > 1" rule would accept these rows
        spec = MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), phi)
        with pytest.raises(ValueError, match="stationary"):
            simulate_msar(spec, 100, np.random.default_rng(0))

    def test_linear_model_ignores_transition_matrix(self):
        # with equal regime parameters the path cannot depend on the chain
        regimes = RegimeParams(0.3, 0.3, 1.2, 1.2)
        a = simulate_msar(MSARSpec(regimes, TransitionMatrix(0.9, 0.9), (0.5,)), 400,
                          np.random.default_rng(9))
        b = simulate_msar(MSARSpec(regimes, TransitionMatrix(0.2, 0.7), (0.5,)), 400,
                          np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestMixtureMoments:
    def test_single_component_collapse(self):
        mm = mixture_moments(RegimeParams(1.0, 1.0, 2.0, 2.0), 0.3)
        assert (mm.mean, mm.variance) == pytest.approx((1.0, 4.0))
        assert (mm.skewness, mm.excess_kurtosis) == (0.0, 0.0)

    def test_mean_separated_mixture(self):
        mm = mixture_moments(RegimeParams(-1.0, 1.0, 1.0, 1.0), 0.5)
        assert mm.mean == pytest.approx(0.0)
        assert mm.variance == pytest.approx(2.0)
        assert mm.skewness == pytest.approx(0.0)
        assert mm.excess_kurtosis == pytest.approx(-0.5)

    def test_scale_separated_mixture(self):
        mm = mixture_moments(RegimeParams(0.0, 0.0, 1.0, 2.0), 0.5)
        assert mm.mean == pytest.approx(0.0)
        assert mm.variance == pytest.approx(2.5)
        assert mm.skewness == pytest.approx(0.0)
        assert mm.excess_kurtosis == pytest.approx(1.08)

    def test_against_sampled_moments(self):
        # one asymmetric point; the randomized grid lives in the acceptance suite
        regimes = RegimeParams(0.0, 2.0, 1.0, 1.5)
        pi1 = 0.7
        mm = mixture_moments(regimes, pi1)
        rng = np.random.default_rng(17)
        n = 1_000_000
        ones = rng.uniform(size=n) < pi1
        draws = np.where(ones, regimes.mu1 + regimes.sigma1 * rng.standard_normal(n),
                         regimes.mu2 + regimes.sigma2 * rng.standard_normal(n))

        def skew(v):
            d = v - v.mean()
            return (d**3).mean() / (d**2).mean() ** 1.5

        def kurt(v):
            d = v - v.mean()
            return (d**4).mean() / (d**2).mean() ** 2 - 3.0

        for target, stat in ((mm.mean, np.mean), (mm.variance, lambda v: v.var()),
                             (mm.skewness, skew), (mm.excess_kurtosis, kurt)):
            value, se = batch_se(draws, stat)
            assert abs(value - target) < 3 * se

    def test_variance_dominates_component_average(self):
        regimes = RegimeParams(0.0, 3.0, 1.0, 2.0)
        for pi1 in (0.2, 0.5, 0.8):
            mm = mixture_moments(regimes, pi1)
            floor = pi1 * regimes.sigma1**2 + (1 - pi1) * regimes.sigma2**2
            assert mm.variance >= floor

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError):
            mixture_moments(RegimeParams(0.0, 1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            mixture_moments(RegimeParams(0.0, 1.0, 1.0, 1.0), 1.0)


class TestMinRootModulus:
    def test_single_lag(self):
        assert min_root_modulus(np.array([0.5])) == pytest.approx(2.0)

    def test_unit_root_boundary(self):
        assert min_root_modulus(np.array([1.0])) == pytest.approx(1.0)

    def test_zero_polynomial_is_infinite(self):
        assert min_root_modulus(np.array([0.0, 0.0])) == np.inf
        assert min_root_modulus(np.array([])) == np.inf

    def test_known_ar4_value(self):
        # smallest root modulus of the reference output-growth AR(4) fit
        value = min_root_modulus(np.array([0.31, 0.13, -0.12, -0.09]))
        assert value == pytest.approx(1.50, abs=0.01)

    @pytest.mark.parametrize("phi, expected", [
        ([5e-324], np.inf),  # the one root, 1/5e-324, overflows
        ([0.5, 1e-310], 2.0),
        ([0.3, -0.2, 4e-320], 0.2**-0.5),
    ])
    def test_tiny_last_coefficient(self, phi, expected):
        # np.roots' companion matrix divides by the last coefficient and
        # overflows; the reciprocal polynomial's roots give the modulus
        with np.errstate(all="raise"):
            assert min_root_modulus(np.array(phi)) == pytest.approx(expected, rel=1e-12)

    def test_np_roots_values_keep_their_bits(self):
        # where the companion is finite the value is np.roots' own
        rng = np.random.default_rng(3)
        for phi in rng.uniform(-0.6, 0.6, (50, 4)).tolist() + [[0.5], [0.5, 1e-300]]:
            p = np.r_[-np.array(phi)[::-1], 1.0]
            assert min_root_modulus(np.array(phi)) == float(np.abs(np.roots(p)).min())


def np_roots_modulus(phi) -> float:
    """The documented modulus of one row from ``np.roots`` itself: of the
    polynomial with trailing zero coefficients dropped, or, where its
    companion matrix overflows, of the reciprocal polynomial."""
    phi = np.asarray(phi, dtype=float)
    nz = np.flatnonzero(phi)
    if len(nz) == 0:
        return float("inf")
    p = np.r_[-phi[nz[-1] :: -1], 1.0]
    with np.errstate(over="ignore", divide="ignore"):
        if np.isfinite(-p[1:] / p[0]).all():
            return float(np.abs(np.roots(p)).min())
        return float(1.0 / np.abs(np.roots(p[::-1])).max())


# coefficients of every size and sign, zeros (trailing ones drop the order)
# and last coefficients small enough to overflow np.roots' companion matrix
_coefficient = st.one_of(
    st.floats(-4.0, 4.0, allow_subnormal=False),
    st.just(0.0),
    st.sampled_from([1e-310, -4e-320, 5e-324, 1e-300]),
)


class TestMinRootModuli:
    @given(st.integers(1, 4).flatmap(lambda r: st.lists(st.lists(_coefficient, min_size=r, max_size=r),
                                                        min_size=1, max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_np_roots_per_row(self, rows):
        P = np.array(rows)
        want = np.array([np_roots_modulus(row) for row in P])
        got = _min_root_moduli(P)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.array([min_root_modulus(row) for row in P]).view(np.int64),
                              want.view(np.int64))

    def test_orders_and_paths_mixed_in_one_batch(self):
        # orders 0 to 4, the reciprocal path (the user-grid row [0.5, 1e-310])
        # beside the direct one, and complex roots beside real ones
        P = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.5, 1e-310, 0.0, 0.0],
                      [0.3, -0.2, 4e-320, 0.0], [0.31, 0.13, -0.12, -0.09], [0.0, -0.5, 0.0, 0.0],
                      [1.2, -0.8, 0.0, 0.0], [5e-324, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.2]])
        got = _min_root_moduli(P)
        assert np.array_equal(got.view(np.int64), np.array([np_roots_modulus(p) for p in P]).view(np.int64))
        assert got[0] == got[7] == np.inf and got[2] == 2.0

    def test_one_eigvals_call_per_order_and_path(self, monkeypatch):
        calls = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: calls.append(A.shape) or real(A))
        _min_root_moduli(np.array([[0.5, 0.1], [0.2, -0.3], [0.4, 0.0], [0.5, 1e-310]]))
        assert sorted(calls) == [(1, 1, 1), (1, 2, 2), (2, 2, 2)]

    def test_empty_batches(self):
        assert _min_root_moduli(np.zeros((0, 3))).shape == (0,)
        assert _min_root_moduli(np.zeros((2, 0))).tolist() == [np.inf, np.inf]


def exact_step_down(phi) -> bool:
    """Stationarity of one row by the step-down recursion in ``Fraction``
    arithmetic: every reflection coefficient strictly inside (-1, 1)."""
    p = [Fraction(x) for x in phi]
    while p:
        a = p.pop()
        if abs(a) >= 1:
            return False
        p = [(p[j] + a * p[-1 - j]) / (1 - a * a) for j in range(len(p))]
    return True


def from_reflections(a) -> list[float]:
    """The AR row whose step-down recursion yields the reflection
    coefficients ``a_1 ... a_r`` (the forward Durbin-Levinson map)."""
    phi = []
    for ak in a:
        phi = [p - ak * q for p, q in zip(phi, reversed(phi))] + [ak]
    return [float(p) for p in phi]


# rows of small-denominator dyadic rationals, hitting the unit circle often:
# multiples of 1/8 in [-2, 2], and the rows of reflection coefficients that
# are multiples of 1/4 in [-1, 1] (exact in floats: at most 256ths at r = 4)
_dyadic = st.integers(-16, 16).map(lambda k: k / 8)
_quarter = st.integers(-4, 4).map(lambda k: Fraction(k, 4))
_dyadic_rows = st.integers(1, 4).flatmap(lambda r: st.lists(
    st.one_of(st.lists(_dyadic, min_size=r, max_size=r),
              st.lists(_quarter, min_size=r, max_size=r).map(from_reflections)),
    min_size=1, max_size=30))


U = 2.0**-53


@st.composite
def _near_unit_l1_rows(draw):
    """(n, r) rows for r = 1 ... 6 around the certificate's threshold: rows
    scaled to a sum of |phi_k| within 64 u of one, dyadic rows whose exact
    sum is one, and rows with a NaN or an infinite entry."""
    r = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((12, r)) * (rng.random((12, r)) < 0.8)  # some exact zeros
    x[:, 0] += 1.0  # no all-zero row
    scaled = x / np.abs(x).sum(axis=1, keepdims=True) * (1.0 + rng.integers(-64, 65, (12, 1)) * U)
    # a sum of one in dyadic parts: a random split of 1 into 2^-8 steps, signed
    parts = np.diff(np.r_[0, np.sort(rng.integers(0, 257, r - 1)), 256]) / 256
    dyadic = parts * rng.choice([-1.0, 1.0], (4, r))
    bad = rng.uniform(-0.1, 0.1, (2, r))
    bad[0, rng.integers(r)] = np.nan
    bad[1, rng.integers(r)] = rng.choice([-np.inf, np.inf])
    return np.vstack([scaled, dyadic, bad])


class TestStationaryRows:
    @given(_near_unit_l1_rows())
    @settings(max_examples=300, deadline=None)
    def test_certificate_keeps_the_step_down_decision(self, P):
        kept = stationary_rows(P)
        assert np.array_equal(kept, _step_down(P))
        finite = np.isfinite(P).all(axis=1)
        assert kept.tolist() == [bool(f) and _exact_stationary(row) for f, row in zip(finite, P)]

    @pytest.mark.parametrize("phi,stationary", [([0.5, 0.25, 0.25], False), ([0.5, -0.5], True),
                                                ([-0.5, -0.25, 0.25], True), ([0.25] * 4, False)])
    def test_dyadic_rows_of_unit_sum(self, phi, stationary):
        # sum |phi_k| = 1 exactly: the certificate leaves the row to the step-down
        P = np.array([phi])
        assert stationary_rows(P)[0] == _step_down(P)[0] == _exact_stationary(P[0]) == stationary

    def test_float_sum_below_one_is_not_enough(self):
        # exactly, 1 - u + 3b > 1, so 1 - phi(z) has a root in (0, 1]; but
        # every partial sum from the left rounds back to 1 - u < 1
        b = np.nextafter(2.0**-54, 0.0)
        P = np.array([[1.0 - U, b, b, b]])
        assert np.abs(P).sum() < 1.0 and not _exact_stationary(P[0])
        assert not stationary_rows(P)[0]

    def test_certificate_on_empty_shapes(self):
        for P in (np.zeros((3, 0)), np.zeros((0, 2)), np.zeros((0, 0))):
            assert np.array_equal(stationary_rows(P), _step_down(P))

    def test_step_down_runs_only_on_rows_the_certificate_leaves(self, monkeypatch):
        seen = []
        real = msar._step_down
        monkeypatch.setattr(msar, "_step_down", lambda P: seen.append(P.copy()) or real(P))
        inside = np.array([[0.5, 0.25], [-0.3, 0.1], [0.0, 0.0]])
        for P in (inside, np.zeros((0, 2)), np.zeros((3, 0))):
            assert stationary_rows(P).all()
        assert seen == []
        # a unit root and a stationary row of l1 norm above one
        P = np.vstack([inside[:1], [[0.5, 0.5]], inside[1:], [[1.5, -0.6]]])
        assert stationary_rows(P).tolist() == [True, False, True, True, True]
        assert len(seen) == 1 and np.array_equal(seen[0], P[[1, 4]])

    def test_dyadic_grid_matches_exact_arithmetic(self):
        axis = np.linspace(-2.0, 2.0, 9)
        P = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
        kept = stationary_rows(P)
        assert kept.sum() == 59
        assert np.array_equal(kept, [exact_step_down(row) for row in P])

    def test_rows_built_from_reflection_coefficients(self):
        # every row from reflection coefficients in {-1, -3/4, ..., 1}^4: the
        # stationary ones are exactly those with no coefficient at +/-1
        quarters = [Fraction(k, 4) for k in range(-4, 5)]
        A = list(itertools.product(quarters, repeat=4))
        P = np.array([from_reflections(a) for a in A])
        expected = [all(abs(ak) < 1 for ak in a) for a in A]
        assert sum(expected) == 7**4
        assert stationary_rows(P).tolist() == expected

    @given(_dyadic_rows)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_step_down_on_dyadic_rows(self, rows):
        assert stationary_rows(np.array(rows)).tolist() == [exact_step_down(row) for row in rows]

    @pytest.mark.parametrize(
        "phi,stationary",
        [((0.5,), True), ((1.0,), False), ((-1.0,), False), ((0.5, 0.5), False),
         ((0.2, 0.3, 0.5), False), ((0.5, 0.25, 0.25), False), ((0.0, 0.0), True),
         ((0.31, 0.13, -0.12, -0.09), True), ((0.5, np.nan), False), ((np.inf,), False)],
    )
    def test_known_rows(self, phi, stationary):
        assert stationary_rows(np.array([phi]))[0] == stationary

    def test_trailing_zeros_do_not_change_the_decision(self):
        rng = np.random.default_rng(4)
        P = rng.uniform(-1.5, 1.5, size=(2000, 3))
        padded = np.hstack([P, np.zeros((2000, 2))])
        assert np.array_equal(stationary_rows(P), stationary_rows(padded))

    def test_empty_shapes(self):
        assert stationary_rows(np.zeros((3, 0))).tolist() == [True] * 3
        assert stationary_rows(np.zeros((0, 2))).shape == (0,)
