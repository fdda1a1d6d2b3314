from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp

import moments_oracle
from probe import dispatched_cpu_features, run_probe
from regimetest.harness import ingest_series
from regimetest.linearity import _lag_stack, ar_filter, build_grid, ols_ar_fit
from regimetest.mctest import null_ensemble
from regimetest.moments import (
    BLOCK_ELEMENTS,
    DegenerateSampleError,
    _FIRST_WITNESS_COLUMNS,
    _LagMoments,
    _coefficients,
    _counts,
    _mv_witnessed,
    _quartet_work,
    _quartets,
    _rows,
    _skew_kurt_floor,
    compute_quartet,
    demean,
    quartet_matrix,
    row_blocks,
)

E4 = np.array([-1.5, -0.5, 0.5, 1.5])

series = arrays(
    np.float64,
    st.integers(8, 40),
    elements=st.floats(-100, 100, allow_nan=False, width=64),
)


def _kernel_row(e):
    """The kernel's (M, V, S, K) of ``e`` as given, NaN where undefined."""
    return _quartets(_rows(e))[0]


def _quartet_or_none(e):
    try:
        return np.array(compute_quartet(e))
    except DegenerateSampleError:
        return None


class TestDemean:
    def test_simple(self):
        np.testing.assert_allclose(demean([1, 2, 3, 4]), E4)

    def test_constant_vector(self):
        np.testing.assert_allclose(demean([7.0, 7.0, 7.0]), 0.0)

    def test_location_invariance(self):
        y = np.array([0.3, -1.2, 4.5, 0.0, 2.2])
        np.testing.assert_allclose(demean(y + 1000.0), demean(y), atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            demean([1.0])

    def test_sums_to_zero(self):
        rng = np.random.default_rng(0)
        e = demean(rng.uniform(-5, 5, size=1000) * 1e6)
        assert abs(e.sum()) <= len(e) * np.finfo(float).eps * np.abs(e).max()


class TestStatM:
    def test_hand_value(self):
        # m2 - m1 = 2, pooled dispersion s1^2 + s2^2 = 0.5
        assert _kernel_row(E4)[0] == pytest.approx(2.82842712474619, rel=1e-12)

    def test_zero_dispersion_is_degenerate(self):
        assert np.isnan(_kernel_row(np.array([-1.0, -1.0, 1.0, 1.0]))[0])

    def test_one_sided_sample_is_degenerate(self):
        assert np.isnan(_kernel_row(np.array([1.0, 2.0, 3.0, 4.0]))[0])

    def test_scale_invariance(self):
        assert _kernel_row(17.3 * E4)[0] == pytest.approx(_kernel_row(E4)[0], rel=1e-12)

    def test_zeros_belong_to_neither_partition(self):
        e = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
        assert _kernel_row(e)[0] == pytest.approx(_kernel_row(E4)[0], rel=1e-12)


class TestStatV:
    def test_hand_value(self):
        # sigma2 = 1.25; above-average squares avg 2.25, below-average avg 0.25
        assert _kernel_row(E4)[1] == pytest.approx(9.0, rel=1e-12)

    def test_exceeds_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert _kernel_row(demean(rng.standard_normal(30)))[1] > 1.0

    def test_scale_invariance(self):
        assert _kernel_row(0.002 * E4)[1] == pytest.approx(_kernel_row(E4)[1], rel=1e-12)

    def test_degenerate_partition(self):
        # all squared residuals equal the sample variance
        assert np.isnan(_kernel_row(np.array([-1.0, 1.0, -1.0, 1.0]))[1])


class TestStatS:
    def test_symmetric_sample(self):
        assert _kernel_row(E4)[2] == 0.0

    def test_hand_value(self):
        # sum of cubes 24, T sigma^3 = 4 * 3^(3/2): 2 / sqrt(3)
        assert _kernel_row(np.array([-1.0, -1.0, -1.0, 3.0]))[2] == pytest.approx(
            1.1547005383792517, rel=1e-12
        )

    def test_sign_flip_invariance(self):
        e = demean(np.array([0.1, 0.5, -2.0, 3.0, 1.1]))
        assert _kernel_row(-e)[2] == pytest.approx(_kernel_row(e)[2], rel=1e-12)

    def test_zero_variance(self):
        assert np.isnan(_kernel_row(np.zeros(5))[2])


class TestStatK:
    def test_hand_value(self):
        assert _kernel_row(E4)[3] == pytest.approx(1.36, rel=1e-12)

    def test_normal_sample_has_no_excess(self):
        e = demean(np.random.default_rng(4).standard_normal(1_000_000))
        # se of sample kurtosis under normality is sqrt(24 / T)
        assert _kernel_row(e)[3] < 3 * np.sqrt(24 / len(e))

    def test_scale_invariance(self):
        assert _kernel_row(3.7 * E4)[3] == pytest.approx(_kernel_row(E4)[3], rel=1e-12)


class TestComputeQuartet:
    def test_hand_values(self):
        q = compute_quartet(E4)
        np.testing.assert_allclose(
            np.array(q), [2.82842712474619, 9.0, 0.0, 1.36], rtol=1e-12
        )

    def test_error_names_failing_statistic(self):
        with pytest.raises(DegenerateSampleError, match="M"):
            compute_quartet(np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_non_finite_value_names_its_index(self):
        # not a degenerate statistic: the series itself is rejected
        with pytest.raises(ValueError, match=r"non-finite value \(inf\) at index 2"):
            compute_quartet([1.0, 2.0, np.inf, 4.0, 5.0])

    def test_minimum_length(self):
        # one length rule for the quartet and for the kernel on a row as given
        for helper in (compute_quartet, _kernel_row):
            with pytest.raises(ValueError, match="at least 4 observations"):
                helper(np.array([2.0, -1.5, -0.5]))
        for X in (np.zeros((2, 0)), np.array([[-1.0, 0.0, 1.0]])):
            with pytest.raises(ValueError, match="at least 4 observations"):
                quartet_matrix(X)

    @given(series, st.floats(0.01, 100), st.floats(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_pivotality(self, y, a, b):
        # statistics of near-constant samples are dominated by demeaning
        # rounding and are not meaningfully comparable
        assume(np.ptp(y) > 1e-6 * max(1.0, np.abs(y).max()))
        e = demean(y)
        # partition membership is discontinuous at the boundaries, so ulp-level
        # comparability needs every residual safely away from them
        # (boundary hits have probability zero for continuous data)
        sig2 = (e**2).mean()
        assume(np.abs(e).min() > 1e-9 * np.abs(e).max())
        assume(np.abs(e**2 - sig2).min() > 1e-9 * sig2)
        base = _quartet_or_none(e)
        scaled = _quartet_or_none(demean(a * y + b))
        if base is None or scaled is None:
            assume(base is None and scaled is None)
            return
        # ill-conditioned ratios (huge M or V: dispersion denominators close
        # to cancellation) amplify the per-element rounding unboundedly; the
        # absolute floor covers S and K near zero, where the subtraction in
        # the statistic leaves only absolute (ulp-level) accuracy; an offset
        # much larger than the scaled spread costs lg(b / (a ptp)) digits in
        # the demeaning itself before any statistic is computed
        assume(base[0] < 100 and base[1] < 100)
        eps = np.finfo(float).eps
        amp = 1.0 + abs(b) / (a * np.ptp(y))
        np.testing.assert_allclose(scaled, base, rtol=256 * eps * amp, atol=512 * eps * amp)

    def test_statistics_are_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = np.array(compute_quartet(demean(rng.standard_normal(25))))
            assert np.all(q >= 0.0)
            assert q[1] > 1.0


class TestQuartetMatrix:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 60))
        Q = quartet_matrix(X)
        for i in range(40):
            np.testing.assert_allclose(
                Q[i], moments_oracle.compute_quartet(demean(X[i])), rtol=1e-12
            )

    def test_scalar_wrappers_match_oracle(self):
        # the kernel's columns on each row as given: finite values to the
        # kernel tolerance; NaN exactly where the scalar formula raises for
        # that statistic
        rng = np.random.default_rng(13)
        samples = [demean(rng.standard_normal(T)) for T in (4, 7, 30, 200)] + [
            np.array([-1.0, -1.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([-1.0, 1.0, -1.0, 1.0]),
            np.zeros(6),
        ]
        for e in samples:
            q = _kernel_row(e)
            for j, oracle in enumerate(moments_oracle.STATS):
                try:
                    expected = oracle(e)
                except DegenerateSampleError as err:
                    assert err.statistic == "MVSK"[j]
                    assert np.isnan(q[j])
                else:
                    assert q[j] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @staticmethod
    def _exact_m_v(e):
        # M and V of the float values in e in exact rational arithmetic (40
        # significant digits for the square root), NaN where undefined: an
        # empty partition or a zero dispersion
        T = len(e)
        f = [Fraction(x) for x in e]
        up, down = [x for x in f if x > 0], [x for x in f if x < 0]
        m = v = float("nan")
        if up and down:
            m2, m1 = sum(up) / len(up), sum(down) / len(down)
            pooled = (sum((x - m2) ** 2 for x in up) / len(up)
                      + sum((x - m1) ** 2 for x in down) / len(down))
            if pooled > 0:
                with localcontext() as ctx:
                    ctx.prec = 40
                    root = (Decimal(pooled.numerator) / Decimal(pooled.denominator)).sqrt()
                    m = float(Decimal((m2 - m1).numerator) / Decimal((m2 - m1).denominator) / root)
        sig2 = sum(x * x for x in f) / T
        big = [x * x for x in f if x * x > sig2]
        small = [x * x for x in f if x * x < sig2]
        if big and small and sum(small) > 0:
            v = float(sum(big) / len(big) / (sum(small) / len(small)))
        return m, v

    def test_m_and_v_columns_within_a_few_ulps_of_exact(self):
        rng = np.random.default_rng(14)
        rows = [rng.standard_normal(33) for _ in range(200)]
        rows += [rng.standard_t(3, 33), rng.exponential(size=33), rng.uniform(-1, 1, 33)]
        # dyadic rows with mean exactly zero, so demeaning leaves them exact:
        # squares exactly equal to the 1/T variance (in neither V partition;
        # sum of squares 11, T 11) and exact zeros (in neither M partition)
        rows.append(np.tile([-2.0, 2.0, -1.0, 1.0, -0.5, 0.5, -0.5, 0.5, 0.0, 0.0, 0.0], 3))
        quarters = rng.integers(1, 20, 11) / 4.0
        rows.append(np.concatenate([quarters, -quarters, np.zeros(11)]))
        # degenerate: constant, no V partition, zero M dispersion
        rows += [np.full(33, 1.5), np.tile([-1.0, 1.0, 0.0], 11), np.repeat([-1.0, 1.0], [16, 17])]
        X = np.vstack(rows)
        E = X - X.mean(axis=1, keepdims=True)
        assert (E[-5:-3] == 0.0).sum() == 20 and (E[-5] ** 2 == 1.0).sum() == 6
        Q = quartet_matrix(X)
        exact = np.array([self._exact_m_v(e) for e in E])
        # S and K are undefined exactly where the variance is zero
        undefined = np.column_stack([np.isnan(exact), np.repeat((E == 0).all(axis=1)[:, None], 2, axis=1)])
        np.testing.assert_array_equal(np.isnan(Q), undefined)
        # M and V are ratios of sums of like-signed terms, each within about
        # T eps of its exact value
        T, eps = E.shape[1], np.finfo(float).eps
        defined = ~np.isnan(exact)
        assert (np.abs(Q[:, :2] - exact)[defined] <= 4 * T * eps * exact[defined]).all()
        # on the dyadic rows, where exact zeros and squares exactly equal to
        # the variance decide the partitions, the values are the scalar
        # formulas' bit for bit
        scalar = [[moments_oracle.stat_m(e), moments_oracle.stat_v(e)] for e in E[-5:-3]]
        np.testing.assert_array_equal(Q[-5:-3, :2].view(np.int64), np.array(scalar).view(np.int64))
        # the tie row is defined; each degenerate row has an undefined statistic
        assert np.isfinite(Q[-5]).all()
        assert np.isnan(Q[-3:]).any(axis=1).all()

    @staticmethod
    def _exact_s_k(e):
        # |sum e^3| / (T sig2^1.5) and |sum e^4 / (T sig2^2) - 3| in exact
        # rational arithmetic, then 40 significant digits for the roots
        T = len(e)
        f = [Fraction(x) for x in e]
        sig2 = sum(x * x for x in f) / T
        m3 = abs(sum(x**3 for x in f)) / T
        m4 = sum(x**4 for x in f) / T
        with localcontext() as ctx:
            ctx.prec = 40
            root = (Decimal(sig2.numerator) / Decimal(sig2.denominator)).sqrt()
            s = Decimal(m3.numerator) / Decimal(m3.denominator) / root**3
        k = abs(m4 / sig2**2 - 3)
        return float(s), float(k)

    def test_s_and_k_within_a_few_ulps_of_exact(self):
        rng = np.random.default_rng(15)
        half = rng.standard_normal(60)
        symmetric = np.concatenate([half, -half]) + 1e-9 * rng.standard_normal(120)
        rows = [
            symmetric,
            rng.standard_normal(120),
            rng.exponential(size=120),
            rng.standard_t(4, 120),
            rng.uniform(-1, 1, 120),
        ]
        X = np.vstack(rows)
        E = X - X.mean(axis=1, keepdims=True)
        Q = quartet_matrix(X)
        eps = np.finfo(float).eps
        for e, (s, k) in zip(E, Q[:, 2:]):
            T = len(e)
            sig2 = (e**2).mean()
            # error bound on the standardized scale: T eps times the
            # standardized absolute moment that the sum accumulates
            a3 = (np.abs(e) ** 3).mean() / sig2**1.5
            a4 = (e**4).mean() / sig2**2
            s_exact, k_exact = self._exact_s_k(e)
            assert abs(s - s_exact) <= 4 * T * eps * a3
            assert abs(k - k_exact) <= 4 * T * eps * a4
        assert self._exact_s_k(E[0])[0] < 1e-8  # the near-symmetric row

    def test_degenerate_rows_become_nan(self):
        X = np.vstack([np.ones(10), np.random.default_rng(0).standard_normal(10)])
        Q = quartet_matrix(X)
        assert np.isnan(Q[0]).all()
        assert np.isfinite(Q[1]).all()

    def test_null_distribution_is_seed_invariant(self):
        # the simulated null distribution of each statistic must not depend on
        # the stream; two-sample Kolmogorov-Smirnov at each sample size
        n = 100_000
        for T in (50, 100, 200):
            Qa = quartet_matrix(np.random.default_rng(1000 + T).standard_normal((n, T)))
            Qb = quartet_matrix(np.random.default_rng(2000 + T).standard_normal((n, T)))
            for j in range(4):
                assert ks_2samp(Qa[:, j], Qb[:, j]).pvalue > 0.01

    def test_columns_do_not_depend_on_the_cpu(self):
        # numpy picks some ufunc loops per CPU at run time; with every such
        # feature of this CPU switched off, each column keeps its bytes
        features = dispatched_cpu_features()
        if not features:
            pytest.skip("numpy dispatches no CPU feature here")
        code = ("import hashlib, numpy as np; from regimetest.moments import quartet_matrix; "
                "Q = quartet_matrix(np.random.default_rng(5).standard_normal((557, 235))); "
                "print(*(hashlib.sha256(np.ascontiguousarray(c).tobytes()).hexdigest() for c in Q.T))")

        def column_digests(**env):
            return dict(zip("MVSK", run_probe(code, **env).split()))

        default = column_digests()
        reduced = column_digests(NPY_DISABLE_CPU_FEATURES=" ".join(features))
        assert [c for c in "MVSK" if default[c] != reduced[c]] == []


class TestKernelWork:
    """``_quartets(E, work)`` writes its temporaries into reused buffers; the
    quartets are those of ``_quartets(E)`` bit for bit, NaN pattern included."""

    @staticmethod
    def _blocks():
        rng = np.random.default_rng(11)
        random = rng.standard_normal((37, 131))
        tied = np.round(rng.standard_normal((23, 60)), 1)
        zero_heavy = np.where(rng.random((19, 45)) < 0.8, 0.0, rng.standard_normal((19, 45)))
        two_valued = np.vstack([np.tile([1.0, -1.0], 20), np.tile([2.0, 2.0, -1.0, -1.0], 10),
                                np.zeros(40), np.r_[np.ones(39), -39.0]])
        return [X - X.mean(axis=1, keepdims=True) for X in (random, tied, zero_heavy, two_valued)]

    def test_reused_work_matches_fresh_temporaries(self):
        blocks = self._blocks()
        work = _quartet_work(max(E.size for E in blocks) + 17)
        for buffer in work:  # stale values must not leak into any statistic
            buffer.fill(np.nan if buffer.dtype == float else True)
        nan_rows = 0
        for E in blocks + blocks[::-1]:
            expected = _quartets(E)
            got = _quartets(E, work)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            nan_rows += int(np.isnan(expected).any(axis=1).sum())
        assert nan_rows > 0  # the degenerate rows were exercised

    @pytest.mark.parametrize("T", [4, 255, 256, 70_000])
    def test_flag_counts_equal_bool_sums(self, T):
        # the kernel counts flags as bytes into 32-bit sums: the same integers
        # as bool sums, past a byte's and a 16-bit count's range
        rng = np.random.default_rng(T)
        flags = np.vstack([np.ones(T, bool), np.zeros(T, bool), rng.random((3, T)) < 0.5])
        assert _counts(flags).tolist() == flags.sum(axis=1).tolist()
        assert _counts(flags)[0] == T


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n, row_elements", [(0, 5), (1, 5), (14, 99 * 200), (13, BLOCK_ELEMENTS), (3, 2 * BLOCK_ELEMENTS)]
    )
    def test_consecutive_blocks_of_the_budget(self, n, row_elements):
        blocks = row_blocks(n, row_elements)
        step = max(1, BLOCK_ELEMENTS // row_elements)
        assert [i for block in blocks for i in range(n)[block]] == list(range(n))
        assert all(block.stop - block.start == step for block in blocks[:-1])
        assert all(0 < block.stop - block.start <= step for block in blocks)


def _ar_path(rng, phi, T, innovations):
    """An AR path of length T with the given innovations, after a burn-in."""
    r = len(phi)
    e = innovations(rng, T + 50)
    y = np.zeros(T + 50)
    for t in range(r, T + 50):
        y[t] = e[t] + sum(phi[k] * y[t - 1 - k] for k in range(r))
    return y[50:]


@st.composite
def _bound_cases(draw):
    """A series and coefficient rows for the lag-moment bound: random and
    adversarial series (offsets up to 1e7, scales of 1e-50 to 1e50,
    two-valued, sparse with exact zeros, a geometric level that one row
    filters to almost nothing) and rows (random, near a unit root, the
    path's own coefficients, zero)."""
    r = draw(st.integers(1, 4))
    T = draw(st.integers(r + 8, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.uniform(-0.5, 0.5, r) / r
    kind = draw(st.sampled_from(["normal", "student-t", "two-valued", "sparse", "geometric"]))
    if kind == "two-valued":
        y = np.where(rng.random(T) < 0.5, -1.0, 1.0)
    elif kind == "sparse":
        y = np.where(rng.random(T) < 0.8, 0.0, rng.standard_normal(T))
    elif kind == "geometric":
        phi = np.r_[0.97, np.zeros(r - 1)]
        y = 0.97 ** np.arange(T) + 1e-9 * rng.standard_normal(T)
    else:
        innovations = {"normal": lambda g, n: g.standard_normal(n),
                       "student-t": lambda g, n: g.standard_t(3, n)}[kind]
        y = _ar_path(rng, phi, T, innovations)
    y = y * 10.0 ** draw(st.sampled_from([-50, -3, 0, 3, 50])) + draw(st.sampled_from([0.0, 1.0, 1e7]))
    unit = rng.dirichlet(np.ones(r)) * (1 - 10.0 ** -rng.uniform(1, 12))  # sum just below 1
    P = np.vstack([rng.uniform(-1.2, 1.2, (6, r)), unit, -unit, phi, np.zeros(r)])
    return y, P


class TestLagMomentBounds:
    """``_LagMoments`` bounds the kernel's S and K of filtered rows from moment
    tensors of the lag stack, and witnesses their M and V; the pass settles a
    row on these alone."""

    @staticmethod
    def _kernel(y, P):
        """The kernel's quartets and sig2 of the filtered, demeaned rows, and
        the rows' first 32 entries."""
        E = ar_filter(y, P)
        E -= E.mean(axis=1, keepdims=True)
        return _quartets(E), np.square(E).mean(axis=1), E[:, :32].copy()

    @settings(max_examples=150, deadline=None)
    @given(_bound_cases())
    def test_bounds_hold_for_the_kernel(self, case):
        y, P = case
        r = P.shape[1]
        lag_moments = _LagMoments(_lag_stack(y, r))
        s, k, lo, hi = lag_moments.skew_kurt_bounds(P)
        witnessed = lag_moments.mv_witnessed(P, lo, hi)
        Q, sig2, head = self._kernel(y, P)
        # the witnesses' entries lie within half their margin of the kernel's
        C = _coefficients(P)
        W = np.einsum("kt,km->mt", lag_moments.head, C)
        assert (np.abs(W - head) <= 0.5 * lag_moments.delta * lag_moments._bound(C)[:, None]).all()
        certified = lo > 0
        # a certified row has a finite S and K, a sig2 inside its interval
        # and bounds at or below its S and K
        assert np.isfinite(Q[certified, 2:]).all()
        assert (lo[certified] <= sig2[certified]).all() and (sig2[certified] <= hi[certified]).all()
        assert (s[certified] <= Q[certified, 2]).all() and (k[certified] <= Q[certified, 3]).all()
        assert (s[~certified] == 0).all() and (k[~certified] == 0).all()
        # a witnessed row gets a finite M and V
        assert np.isfinite(Q[witnessed, :2]).all()
        # the p-value bound is at least the row's rank p-value under both rules
        ensemble, _ = null_ensemble(len(y) - r, 20, ("min", "prod"), 0)
        bounds = ensemble.pvalue_bounds(s, k, ("min", "prod"))
        defined = np.isfinite(Q).all(axis=1)
        for rule, (_, _, p) in ensemble.rank(Q[defined]).items():
            assert (bounds[rule][defined] >= p).all()

    @staticmethod
    def _witnessed_by_all_entries(lag_moments, P, lo, hi):
        """The witness on all 32 leading entries of every row at once."""
        C = _coefficients(P)
        W = np.einsum("kt,km->tm", lag_moments.head, C)
        return _mv_witnessed(W, lag_moments.delta * lag_moments._bound(C), lo, hi, lag_moments.n)

    @settings(max_examples=150, deadline=None)
    @given(_bound_cases())
    def test_two_stage_witness_equals_all_entries(self, case):
        y, P = case
        lag_moments = _LagMoments(_lag_stack(y, P.shape[1]))
        _, _, lo, hi = lag_moments.skew_kurt_bounds(P)
        expected = self._witnessed_by_all_entries(lag_moments, P, lo, hi)
        assert np.array_equal(lag_moments.mv_witnessed(P, lo, hi), expected)

    @pytest.mark.parametrize("r", [1, 4])
    def test_second_stage_decides_rows_with_small_first_entries(self, r):
        # the first 8 centred entries all lie below sigma in modulus, so no
        # square among them exceeds sig2 and only all 32 can witness V
        rng = np.random.default_rng(r)
        y = rng.standard_normal(160)
        y[: _FIRST_WITNESS_COLUMNS + r] *= 0.05
        P = np.vstack([np.zeros(r), rng.uniform(-0.05, 0.05, (40, r))])
        lag_moments = _LagMoments(_lag_stack(y, r))
        _, _, lo, hi = lag_moments.skew_kurt_bounds(P)
        C = _coefficients(P)
        first = np.einsum("kt,km->tm", lag_moments.head[:, :_FIRST_WITNESS_COLUMNS], C)
        assert (np.abs(first) < np.sqrt(lo)).all()
        assert not _mv_witnessed(first, lag_moments.delta * lag_moments._bound(C), lo, hi, lag_moments.n).any()
        witnessed = lag_moments.mv_witnessed(P, lo, hi)
        assert witnessed.all()
        assert np.array_equal(witnessed, self._witnessed_by_all_entries(lag_moments, P, lo, hi))

    def test_gnp_rows_are_certified_and_witnessed(self):
        # on the real series the bound is tight: every r=4 grid row is
        # certified and witnessed, its S and K within 1e-7 of the kernel's
        path = files("regimetest").joinpath("data/gnp_extended_levels.csv")
        y = ingest_series(str(path), "logdiff100").values
        P = build_grid(ols_ar_fit(y, 4), 9).points
        lag_moments = _LagMoments(_lag_stack(y, 4))
        s, k, lo, hi = lag_moments.skew_kurt_bounds(P)
        Q, _, _ = self._kernel(y, P)
        assert (lo > 0).all() and lag_moments.mv_witnessed(P, lo, hi).all()
        assert (Q[:, 2:] - np.column_stack([s, k]) <= 1e-7).all()

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(0, 1e-2), st.one_of(st.just(0.0), st.floats(1e-30, 10)),
           st.floats(0.1, 50), st.floats(0, 1e-2))
    def test_floor_stays_below_the_kernel_arithmetic(self, m2, w2, m3, x, w4):
        # at the ends of its moment intervals, the kernel's S = |m3| / sig2^1.5
        # and K = |m4 / sig2^2 - 3| round by at most a relative gamma_4; the
        # floor stays below them in exact arithmetic by its slack (a lower
        # cube bound is 0 or far above the subnormals: it exceeds eta_3)
        lo, hi = m2 * (1 - w2), m2 * (1 + w2)
        m4_lo = x * m2 * m2
        m4_hi = m4_lo * (1 + w4)
        s, k = _skew_kurt_floor(np.array([lo]), np.array([hi]), np.array([m3]),
                                np.array([m4_lo]), np.array([m4_hi]))
        g = Fraction(4 * 2**-53) / (1 - 4 * 2**-53)
        lo, hi, m3, m4_lo, m4_hi, s, k = map(Fraction, (lo, hi, m3, m4_lo, m4_hi, s[0], k[0]))
        assert s * s * hi**3 <= (1 - g) ** 2 * m3 * m3
        x_lo, x_hi = (1 - g) * m4_lo / hi**2, (1 + g) * m4_hi / lo**2
        assert k <= (1 - g) * max(x_lo - 3, 3 - x_hi, 0)

    @staticmethod
    def _witness_cases():
        """(name, E, W): kernel rows E of 32 entries with an undefined M or V,
        and leading entries W within 1e-3 of E that meet every witness
        condition but the margin the name gives."""
        d = 1e-3
        spread = np.r_[np.zeros(16), np.linspace(1.0, 3.0, 16)]  # no negative entry
        two = np.r_[np.full(8, 2.0), np.full(16, -1.0), np.zeros(8)]  # single-valued partitions
        sparse = np.r_[np.zeros(20), np.tile([2.0, 2.5, -2.0, -2.5], 3)]  # small squares all 0
        upper = np.r_[np.zeros(19), np.tile([2.0, 2.5, -2.0, -2.5], 3), 0.0]
        for _ in range(5):  # its last entry just above sqrt(sig2): a big square
            upper[-1] = np.sqrt(np.square(upper).mean()) + 0.5 * d
        cases = {
            "negative": (spread, np.where(spread == 0, -0.5 * d, spread)),
            "gap": (two, two + np.r_[0.9 * d, -0.9 * d, np.zeros(30)]),
            "positive": (two, two + np.r_[np.zeros(24), 0.5 * d, np.zeros(7)]),
            "small-lower": (sparse, np.where(sparse == 0, 0.9 * d, sparse)),
            "small-upper": (upper, upper - np.r_[np.zeros(31), 0.9 * d]),
        }
        return d, cases

    @pytest.mark.parametrize("name", ["negative", "gap", "positive", "small-lower", "small-upper"])
    def test_witness_margins_cover_the_entries_distance(self, name):
        d, cases = self._witness_cases()
        E, W = cases[name]
        assert np.abs(W - E).max() <= d
        Q = _quartets(E[None, :])[0]
        assert np.isnan(Q[:2]).any()
        sig2 = np.square(E).mean()
        assert not _mv_witnessed(W[:, None], np.array([d]), np.array([sig2]), np.array([sig2]), 32)[0]

    def test_witness_accepts_a_plain_row(self):
        rng = np.random.default_rng(4)
        E = rng.standard_normal((40, 32))
        W = E + rng.uniform(-1e-6, 1e-6, E.shape)
        sig2 = np.square(E).mean(axis=1)
        witnessed = _mv_witnessed(W.T.copy(), np.full(40, 1e-6), sig2, sig2, 32)
        assert witnessed.sum() >= 35
        assert np.isfinite(_quartets(E)[witnessed, :2]).all()
