from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp

import moments_oracle
from probe import dispatched_cpu_features, run_probe
from regimetest.moments import (
    BLOCK_ELEMENTS,
    DegenerateSampleError,
    _quartet_work,
    _quartets,
    _rows,
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
