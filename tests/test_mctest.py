from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import linearity_oracle
from regimetest._seeding import DOMAIN_REPLICATE, substream
from regimetest.mctest import (
    LogisticCoeffTable,
    _logistic,
    LogisticCoeffs,
    approx_pvalue_matrix,
    combine_matrix,
    combine_min,
    combine_prod,
    critical_rank,
    fit_logistic_cdf,
    logistic_cdf,
    mc_pvalue,
    rank_pvalues,
    simulate_null_quartets,
    tie_breaker_uniforms,
)
from regimetest.moments import quartet_matrix

unit4 = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)


class TestLogisticCdf:
    def test_midpoint(self):
        c = LogisticCoeffs(-3.0, 1.5)
        assert logistic_cdf(3.0 / 1.5, c) == pytest.approx(0.5)

    def test_table_value(self):
        # statistic M at T=100 evaluated at x = 2
        c = LogisticCoeffTable.default().coeffs_for("M", 100)
        assert (c.gamma0, c.gamma1) == (-23.041, 12.125)
        assert logistic_cdf(2.0, c) == pytest.approx(0.7701219627439947, rel=1e-12)

    def test_saturation_without_overflow(self):
        c = LogisticCoeffs(0.0, 1.0)
        assert logistic_cdf(1e6, c) == 1.0
        assert logistic_cdf(-1e6, c) == 0.0

    def test_one_exp_keeps_every_bit_of_the_two_branch_form(self):
        # exp(-z) where z >= 0, exp(z) below and at NaN, as the two branches had it;
        # a NaN keeps its sign bit, which exp(-|z|) would set
        z = np.concatenate([
            substream(1, 1).standard_normal(20_000) * 40,
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0,
             1e308, -1e308, 5e-324, -5e-324],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        assert _logistic(z).tobytes() == want.tobytes()

    def test_increasing_slope_required(self):
        with pytest.raises(ValueError):
            LogisticCoeffs(0.0, 0.0)

    @pytest.mark.parametrize("gamma0, gamma1", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf)])
    def test_finite_coefficients_required(self, gamma0, gamma1):
        with pytest.raises(ValueError, match="V at T=100: need finite gamma0"):
            LogisticCoeffs(gamma0, gamma1, statistic="V", T=100)


class TestLogisticCoeffTable:
    def test_ships_twenty_entries(self):
        table = LogisticCoeffTable.default()
        for stat in ("M", "V", "S", "K"):
            assert table.supported_sizes(stat) == [50, 100, 150, 200, 250]

    def test_interpolation_midpoint(self):
        table = LogisticCoeffTable.default()
        c = table.coeffs_for("M", 75)
        assert c.gamma0 == pytest.approx(-19.6095)
        assert c.gamma1 == pytest.approx(10.2525)

    def test_extrapolation_outside_range(self):
        table = LogisticCoeffTable.default()
        below = table.coeffs_for("K", 40)
        above = table.coeffs_for("K", 260)
        assert below.gamma1 > 0 and above.gamma1 > 0
        # extrapolation continues the local linear trend
        assert above.gamma1 > table.coeffs_for("K", 250).gamma1

    def test_csv_round_trip(self, tmp_path):
        table = LogisticCoeffTable.default()
        path = tmp_path / "coeffs.csv"
        table.to_csv(path)
        back = LogisticCoeffTable.from_csv(path)
        for stat in ("M", "V", "S", "K"):
            for T in (50, 100, 150, 200, 250):
                assert back.coeffs_for(stat, T) == table.coeffs_for(stat, T)

    def test_csv_with_an_infinite_coefficient_is_rejected(self, tmp_path):
        # an infinite gamma0 would set every approximate p-value of S to 0
        path = tmp_path / "coeffs.csv"
        LogisticCoeffTable.default().to_csv(path)
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("S,150,"))
        lines[row] = "S,150,inf,1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="S at T=150"):
            LogisticCoeffTable.from_csv(path)


class TestApproxPvalues:
    def test_midpoints_give_half(self):
        table = LogisticCoeffTable.default()
        mids = [-table.coeffs_for(s, 100).gamma0 / table.coeffs_for(s, 100).gamma1
                for s in ("M", "V", "S", "K")]
        np.testing.assert_allclose(approx_pvalue_matrix([mids], table, 100)[0], 0.5, rtol=1e-12)

    def test_known_value(self):
        table = LogisticCoeffTable.default()
        G = approx_pvalue_matrix([[2.0, 5.0, 0.1, 0.5]], table, 100)[0]
        assert G[0] == pytest.approx(0.2298780372560053, rel=1e-10)

    def test_monotone_in_statistic(self):
        table = LogisticCoeffTable.default()
        small = approx_pvalue_matrix([[1.0, 2.0, 0.1, 0.2]], table, 100)[0]
        large = approx_pvalue_matrix([[2.0, 4.0, 0.3, 0.9]], table, 100)[0]
        assert np.all(large < small)


class TestCombine:
    def test_minimum_rule(self):
        assert combine_min([1.0, 1.0, 1.0, 1.0]) == 0.0
        assert combine_min([0.2, 0.5, 0.9, 1.0]) == pytest.approx(0.8)

    def test_product_rule(self):
        assert combine_prod([1.0, 1.0, 1.0, 1.0]) == 0.0
        assert combine_prod([0.2, 0.5, 0.9, 1.0]) == pytest.approx(0.91)
        assert combine_prod([0.0, 0.5, 0.9, 1.0]) == 1.0

    @given(unit4)
    def test_permutation_symmetry(self, p):
        shuffled = list(reversed(p))
        assert combine_min(shuffled) == combine_min(p)
        assert combine_prod(shuffled) == pytest.approx(combine_prod(p))

    @given(unit4, st.integers(0, 3), st.floats(0.0, 1.0))
    def test_monotone_nonincreasing_in_each_pvalue(self, p, idx, new):
        larger = list(p)
        larger[idx] = max(p[idx], new)
        assert combine_min(larger) <= combine_min(p)
        assert combine_prod(larger) <= combine_prod(p) + 1e-15

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(ValueError):
            combine_min([0.5, 0.5, 0.5, 1.5])

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 9])
    def test_column_forms_equal_the_row_reductions(self, k):
        # the minimum and ((G0 G1) G2) ... folded over the columns give the
        # bytes of G.min(axis=1) and G.prod(axis=1)
        rng = np.random.default_rng(1)
        G = rng.random((100_000, k))
        G[rng.random(G.shape) < 0.1] = 1.0
        assert combine_matrix(G, "min").tobytes() == (1.0 - G.min(axis=1)).tobytes()
        assert combine_matrix(G, "prod").tobytes() == (1.0 - G.prod(axis=1)).tobytes()

    @pytest.mark.parametrize("p", [[0.3], [0.9, 0.4], [0.9] * 4 + [0.01], [0.5] * 7])
    def test_any_number_of_pvalues(self, p):
        assert combine_min(p) == 1.0 - min(p)
        assert combine_prod(p) == 1.0 - np.prod(p)

    def test_rejects_no_pvalues(self):
        with pytest.raises(ValueError, match="no p-values"):
            combine_prod([])


class TestPvalueBounds:
    def test_marginals_exceed_the_exact_survival(self, monkeypatch):
        # the bound's S and K marginal p-values exceed the exact logistic
        # survival at the rounded argument by more than np.exp's rounding,
        # so they are at least any row's own at a larger statistic
        if np.finfo(np.longdouble).nmant < 60:
            pytest.skip("no extended precision here")
        import regimetest.mctest as mctest

        captured = []
        real = mctest.combine_matrix
        monkeypatch.setattr(mctest, "combine_matrix", lambda G, rule: captured.append(G.copy()) or real(G, rule))
        rng = np.random.default_rng(0)
        s, k = rng.uniform(0, 3, 4000), rng.uniform(0, 12, 4000)
        mctest.null_ensemble(120, 20, ("min",), None, 0).pvalue_bounds(s, k, ("min",))
        G = captured[-1]
        assert (G[:, :2] == 1.0).all()
        table = LogisticCoeffTable.default()
        for column, statistic, x in ((2, "S", s), (3, "K", k)):
            c = table.coeffs_for(statistic, 120)
            z = (-(c.gamma0 + c.gamma1 * x)).astype(np.longdouble)
            e = np.exp(-np.abs(z))
            exact = np.where(z >= 0, 1, e) / (1 + e)
            assert (G[:, column] >= np.minimum(exact * (1 + np.longdouble(2.0**-45)), 1)).all()


class TestMCPvalue:
    def test_extreme_ranks(self):
        rng = np.random.default_rng(0)
        sims = np.arange(1.0, 100.0)
        top = mc_pvalue(1000.0, sims, rng)
        assert (top.rank, top.p_value) == (100, pytest.approx(0.01))
        bottom = mc_pvalue(-5.0, sims, np.random.default_rng(1))
        assert (bottom.rank, bottom.p_value) == (1, pytest.approx(1.0))

    def test_interior_rank(self):
        # 59 simulated values below the data statistic: rank 60 of 100
        rep = mc_pvalue(59.5, np.arange(1.0, 100.0), np.random.default_rng(2))
        assert rep.rank == 60
        assert rep.p_value == pytest.approx(0.41)

    def test_order_invariance(self):
        sims = np.random.default_rng(3).standard_normal(99)
        a = mc_pvalue(0.3, sims, np.random.default_rng(7))
        b = mc_pvalue(0.3, sims[::-1], np.random.default_rng(7))
        assert a.p_value == b.p_value

    def test_exactness_under_exchangeability(self):
        # data exchangeable with replicates: Pr(p <= alpha) = alpha for N alpha integer
        rng = np.random.default_rng(42)
        trials = 100_000
        N = 100
        draws = rng.standard_normal((trials, N))
        ranks = 1 + (draws[:, 1:] < draws[:, [0]]).sum(axis=1)
        pvals = (N + 1 - ranks) / N
        rate = (pvals <= 0.05).mean()
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / trials)
        # the same experiment through the public function on a subsample
        for row, expected in zip(draws[:500], pvals[:500]):
            rep = mc_pvalue(row[0], row[1:], rng)
            assert rep.p_value == expected

    def test_tie_breaking_is_uniform(self):
        # fully tied ensembles: the p-value must be uniform on {1/N, ..., 1}
        N = 10
        trials = 20_000
        counts = np.zeros(N)
        for s in range(trials):
            rep = mc_pvalue(1.0, np.ones(N - 1), np.random.default_rng(s))
            counts[rep.rank - 1] += 1
            assert rep.tie_breaker_used
        freq = counts / trials
        se = np.sqrt(0.1 * 0.9 / trials)
        assert np.all(np.abs(freq - 0.1) < 4 * se)

    def test_needs_at_least_one_replicate(self):
        with pytest.raises(ValueError, match="at least one simulated statistic"):
            mc_pvalue(0.0, np.array([]), np.random.default_rng(0))

    def test_nan_statistic_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mc_pvalue(np.nan, np.arange(1.0, 100.0), np.random.default_rng(0))
        with pytest.raises(ValueError, match="NaN"):
            rank_pvalues(np.array([0.5, 2.0]), np.array([1.0, np.nan]), 0.5, np.array([0.2, 0.7]))


# statistics from a small pool force ties, with the data and among replicates
_pooled = st.one_of(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]),
    st.floats(-2.0, 2.0),
)
_uniform = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def _rank_cases(draw):
    xi_sim = np.array(draw(st.lists(_pooled, min_size=1, max_size=60)))
    xi0 = np.array(draw(st.lists(st.one_of(_pooled, st.sampled_from(xi_sim.tolist())),
                                 min_size=1, max_size=20)))
    u = np.array(draw(st.lists(_uniform, min_size=len(xi_sim) + 1, max_size=len(xi_sim) + 1)))
    return xi0, xi_sim, u[0], u[1:]


class TestRankRule:
    """``rank_pvalues`` against the comparison-matrix oracle of
    ``linearity_oracle``, and its exactness certificate."""

    @given(_rank_cases())
    @example((np.array([1.0, np.inf, -np.inf, 0.5]), np.array([1.0]), 0.5, np.array([0.2])))
    @example((np.array([np.inf, -np.inf]), np.array([np.inf, -np.inf, np.inf]),
              0.5, np.array([0.1, 0.9, 0.6])))
    def test_equals_comparison_matrix_oracle(self, case):
        ranks, p = rank_pvalues(*case)
        expected_ranks, expected_p = linearity_oracle.rank_pvalues(*case)
        np.testing.assert_array_equal(ranks, expected_ranks)
        assert p.dtype == expected_p.dtype and p.tobytes() == expected_p.tobytes()

    @pytest.mark.parametrize("N", [2, 3, 10, 100, 199])
    @pytest.mark.parametrize("kind", ["null", "discrete", "tied"])
    def test_exactness_certificate(self, N, kind):
        # each member of an ensemble, ranked with its own tie-breaker against
        # the other N - 1, takes every p-value in {1/N, ..., 1} exactly once
        rng = np.random.default_rng(N)
        for seed in range(5):
            if kind == "null":
                Q, _ = simulate_null_quartets(50, N + 1, seed)
                x = combine_matrix(approx_pvalue_matrix(Q, LogisticCoeffTable.default(), 50), "min")
            else:
                x = rng.integers(0, 3, N).astype(float) if kind == "discrete" else np.ones(N)
            u = rng.uniform(size=N)
            p = np.concatenate([
                rank_pvalues(x[i], np.delete(x, i), u[i], np.delete(u, i))[1] for i in range(N)
            ])
            assert np.sort(p).tobytes() == (np.arange(1, N + 1) / N).tobytes()


class TestCriticalRank:
    @pytest.mark.parametrize("N,alpha,expected", [(100, 0.05, 96), (20, 0.05, 20), (100, 0.5, 51)])
    def test_values(self, N, alpha, expected):
        assert critical_rank(N, alpha) == expected

    def test_matches_pvalue_rule_for_integer_Nalpha(self):
        N, alpha = 100, 0.05
        c = critical_rank(N, alpha)
        for rank in range(1, N + 1):
            assert (rank >= c) == ((N + 1 - rank) / N <= alpha)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            critical_rank(100, 0.0)


class TestFitLogisticCdf:
    def test_recovers_logistic_sample(self):
        # draws from an exact logistic law: invert the CDF at uniforms
        g0, g1 = -2.0, 5.0
        u = np.random.default_rng(5).uniform(size=1_000_000)
        samples = (np.log(u / (1 - u)) - g0) / g1
        fit = fit_logistic_cdf(samples)
        assert fit.gamma0 == pytest.approx(g0, rel=0.02)
        assert fit.gamma1 == pytest.approx(g1, rel=0.02)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError, match="10\\^4"):
            fit_logistic_cdf(np.random.default_rng(0).standard_normal(1000))

    def test_non_increasing_fit_names_the_statistic_and_size(self, monkeypatch):
        import scipy.optimize

        def decreasing(fun, x0, method):
            return SimpleNamespace(success=True, x=np.array([0.5, -2.0]), status=1, message="", cost=0.0)

        monkeypatch.setattr(scipy.optimize, "least_squares", decreasing)
        samples = np.random.default_rng(0).standard_normal(10_000)
        with pytest.raises(ValueError, match=r"K at T=150: need finite gamma0 and finite positive gamma1, "
                                             r"got \(0\.5, -2\.0\)"):
            fit_logistic_cdf(samples, statistic="K", T=150)

    def test_stability_under_doubling(self):
        g0, g1 = -1.0, 3.0
        u = np.random.default_rng(9).uniform(size=400_000)
        samples = (np.log(u / (1 - u)) - g0) / g1
        half = fit_logistic_cdf(samples[:200_000])
        full = fit_logistic_cdf(samples)
        x = np.quantile(samples, np.linspace(0.001, 0.999, 500))
        # fitted upper-tail p-values move by less than 0.01
        delta = np.abs((1 - logistic_cdf(x, half)) - (1 - logistic_cdf(x, full)))
        assert delta.max() < 0.01


class TestNullQuartetSimulation:
    def test_deterministic(self):
        Qa, ra = simulate_null_quartets(60, 20, master_seed=123)
        Qb, rb = simulate_null_quartets(60, 20, master_seed=123)
        np.testing.assert_array_equal(Qa, Qb)
        assert ra == rb == 0
        assert Qa.shape == (19, 4)

    def test_tie_uniforms_deterministic(self):
        np.testing.assert_array_equal(
            tie_breaker_uniforms(50, 7), tie_breaker_uniforms(50, 7)
        )

    def test_degenerate_replicates_are_resampled(self, monkeypatch):
        import regimetest.mctest as mct

        real = mct.normal_rows

        def flaky(*args, **kwargs):
            eta = real(*args, **kwargs)
            eta[3] = 2.0  # poison one replicate of the first draw: no dispersion
            return eta

        monkeypatch.setattr(mct, "normal_rows", flaky)
        Q, resampled = simulate_null_quartets(30, 10, master_seed=5)
        assert resampled == 1
        assert np.isfinite(Q).all()
        # the resample comes from the one stream of (replicate 3, attempt 1)
        want = quartet_matrix(substream(5, DOMAIN_REPLICATE, 3, 1).standard_normal(30)[None])[0]
        np.testing.assert_array_equal(Q[3], want)
