from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import linearity_oracle
from probe import dispatched_cpu_features, run_probe
from regimetest.harness import default_study_grid
import regimetest.moments as moments
import regimetest.msar as msar
from regimetest.linearity import (
    METHODS,
    NuisanceBox,
    _RowQuartets,
    _SEEDS,
    _lag_stack,
    ar_filter,
    build_grid,
    linearity_tests,
    lmc_test,
    mmc_test,
    ols_ar_fit,
)
from regimetest.chp import chp_bootstrap_test
from regimetest.mctest import mc_mixture_test, null_ensemble
from regimetest.moments import DegenerateSampleError, quartet_matrix, raise_if_degenerate
from regimetest.msar import (
    MSARSpec,
    RegimeParams,
    TransitionMatrix,
    min_root_modulus,
    simulate_msar,
    stationary_rows,
)
from regimetest._seeding import DOMAIN_DGP, substream


def _ar1_path(phi: float, T: int, seed: int) -> np.ndarray:
    spec = MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (phi,))
    return simulate_msar(spec, T, substream(seed, 99))


class TestOlsArFit:
    def test_consistency(self):
        y = _ar1_path(0.5, 100_000, seed=1)
        fit = ols_ar_fit(y, 1)
        assert fit.phi[0] == pytest.approx(0.5, abs=0.01)
        assert fit.T_eff == len(y) - 1
        assert np.all(fit.phi_se > 0)

    def test_reference_output_growth_fit(self, hamilton_growth):
        fit = ols_ar_fit(hamilton_growth, 4)
        np.testing.assert_allclose(np.round(fit.phi, 2), [0.31, 0.13, -0.12, -0.09])

    def test_zero_lags_gives_sample_mean(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = ols_ar_fit(y, 0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.phi.size == 0

    def test_rank_deficiency(self):
        # constant; period 2: y_{t-2} = -y_{t-1}; trend: y_{t-2} = y_{t-1} - 1
        for y, r in ((np.ones(50), 1), (np.tile([1.0, -1.0], 25), 2), (np.arange(50.0), 2)):
            with pytest.raises(ValueError, match="regressor matrix is rank deficient"):
                ols_ar_fit(y, r)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            ols_ar_fit(np.arange(5.0), 4)


class TestArFilter:
    def test_zero_coefficients_truncate_only(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(ar_filter(y, [0.0, 0.0]), y[2:])

    def test_hand_value(self):
        np.testing.assert_allclose(ar_filter([1.0, 2.0, 3.0, 4.0], [0.5]), [1.5, 2.0, 2.5])

    def test_non_finite_series_value_names_its_index(self):
        with pytest.raises(ValueError, match=r"non-finite value \(nan\) at index 1"):
            ar_filter([1.0, np.nan, 3.0, 4.0], [0.5])

    @pytest.mark.parametrize("phi", [[np.nan], [[0.5], [np.inf]]])
    def test_non_finite_coefficients_are_rejected(self, phi):
        with pytest.raises(ValueError, match="AR coefficients must be finite"):
            ar_filter([1.0, 2.0, 3.0, 4.0], phi)

    def test_zero_lags_copy_the_series(self):
        y = np.array([1.0, -2.0, 3.5])
        z, Z = ar_filter(y, []), ar_filter(y, np.empty((2, 0)))
        np.testing.assert_array_equal(z, y)
        np.testing.assert_array_equal(Z, [y, y])
        z[0] = Z[0, 0] = 9.0
        assert y[0] == 1.0

    def test_coefficient_matrix_rows_match_single_filter_bitwise(self):
        y = _ar1_path(0.4, 120, seed=2)
        P = substream(3, 4).uniform(-0.5, 0.5, size=(7, 3))
        Z = ar_filter(y, P)
        assert Z.shape == (7, 117)
        for row, phi in zip(Z, P):
            np.testing.assert_array_equal(row, ar_filter(y, phi))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_equals_the_lag_by_lag_subtraction(self, r):
        # one einsum contraction adds the lags' products in the order the
        # subtraction does; only the sign of an exact zero may differ
        rng = np.random.default_rng(r)
        for n in (1, 2, 9, 40, 600):
            T = int(rng.integers(r + 2, 260))
            y = np.round(rng.standard_normal(T), 1)  # exact zeros and repeated values
            P = rng.uniform(-1.0, 1.0, (n, r))
            P[rng.random(P.shape) < 0.3] = 0.0
            P[: n // 2] = np.round(P[: n // 2], 1)
            assert np.array_equal(ar_filter(y, P), linearity_oracle.ar_filter(y, P))
            assert np.array_equal(ar_filter(y, P[0]), linearity_oracle.ar_filter(y, P[0])[0])

    def test_filtered_series_is_white_at_true_coefficient(self):
        y = _ar1_path(0.6, 20_000, seed=3)
        z = ar_filter(y, [0.6])
        d = z - z.mean()
        denom = (d**2).sum()
        for lag in range(1, 6):
            r = (d[lag:] * d[:-lag]).sum() / denom
            assert abs(r) < 3 / np.sqrt(len(z))


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _assert_report(report, expected) -> None:
    """The report equals an oracle's (p-value, phi at report, min root
    modulus, grid points evaluated), bit for bit."""
    p, phi, root, points = expected
    assert report.p_value == p, report.method
    assert _same_bits(report.phi_at_report, phi), report.method
    assert report.min_root_modulus == root, report.method
    assert report.grid_points_evaluated == points, report.method


def _gnp_fits(hamilton_growth, extended_growth):
    """(fit, default points per dimension) for both GNP series at r = 1..4."""
    return [
        (ols_ar_fit(y, r), 41 if r == 1 else 9)
        for y in (hamilton_growth, extended_growth)
        for r in range(1, 5)
    ]


class TestMinRootModulus:
    @staticmethod
    def _check(P):
        """Row by row, bit for bit, the ``np.roots`` rule of the oracle."""
        got = np.array([min_root_modulus(p) for p in P], dtype=float)
        expected = np.array([linearity_oracle.min_root_modulus(p) for p in P], dtype=float)
        assert _same_bits(got, expected)

    def test_reciprocal_root(self):
        assert min_root_modulus([0.5]) == pytest.approx(2.0)

    def test_stationarity_boundary(self):
        assert min_root_modulus([1.0]) == pytest.approx(1.0)

    def test_polynomial_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            phi = rng.uniform(-0.4, 0.4, size=4)
            value = min_root_modulus(phi)
            poly = np.r_[-phi[::-1], 1.0]
            candidates = np.abs(np.roots(poly))
            assert value == pytest.approx(candidates.min(), rel=1e-9)

    def test_unfiltered_gnp_grids(self, hamilton_growth, extended_growth):
        for fit, points_per_dim in _gnp_fits(hamilton_growth, extended_growth):
            self._check(linearity_oracle.grid_candidates(fit, points_per_dim))

    def test_mixed_orders_and_zero_rows(self):
        rng = substream(5, 6)
        P = rng.uniform(-1.5, 1.5, size=(3000, 5))
        P[rng.uniform(size=P.shape) < 0.35] = 0.0
        P[::50] = 0.0
        orders = {int(np.max(np.nonzero(row)[0], initial=-1)) + 1 for row in P}
        assert orders == set(range(6))
        self._check(P)

    def test_empty_vector(self):
        assert min_root_modulus(np.zeros(0)) == np.inf
        self._check(np.zeros((3, 0)))

    def test_dyadic_grid(self):
        axis = np.linspace(-2.0, 2.0, 9)
        P = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
        self._check(P)


class TestStationaryRowsOnStudyGrids:
    """The step-down rule keeps exactly the rows the ``np.roots`` rule keeps
    on the grids the package builds, and rounding decides every one of them
    without the rational re-check."""

    @staticmethod
    def _check(monkeypatch, grids):
        rechecked = []
        real = msar._exact_stationary
        monkeypatch.setattr(msar, "_exact_stationary", lambda row: rechecked.append(row) or real(row))
        for P in grids:
            expected = np.array([linearity_oracle.min_root_modulus(p) > 1.0 for p in P])
            assert np.array_equal(stationary_rows(P), expected)
        assert rechecked == []

    def test_gnp_grids(self, monkeypatch, hamilton_growth, extended_growth):
        self._check(monkeypatch, [
            linearity_oracle.grid_candidates(fit, points_per_dim)
            for fit, points_per_dim in _gnp_fits(hamilton_growth, extended_growth)
        ])

    def test_desk_study_grids(self, monkeypatch):
        grids = []
        for rep in range(5):
            for cell, cfg in enumerate(default_study_grid("desk")):
                y = simulate_msar(cfg.dgp, cfg.T, substream(rep, DOMAIN_DGP, cell))
                points_per_dim = 41 if cfg.dgp.r == 1 else 9
                grids.append(linearity_oracle.grid_candidates(ols_ar_fit(y, cfg.dgp.r), points_per_dim))
        self._check(monkeypatch, grids)


class TestBuildGrid:
    @staticmethod
    def _fit(phi, se):
        from regimetest.linearity import ARFit

        return ARFit(intercept=0.0, phi=np.atleast_1d(np.asarray(phi, float)),
                     phi_se=np.atleast_1d(np.asarray(se, float)), sigma2=1.0, T_eff=100)

    def test_one_dimensional_grid(self):
        box = build_grid(self._fit(0.5, 0.1), points_per_dim=5)
        np.testing.assert_allclose(box.points[:, 0], [0.3, 0.4, 0.5, 0.6, 0.7])

    def test_stationarity_filter_removes_explosive_points(self):
        box = build_grid(self._fit(0.95, 0.1), points_per_dim=5)
        np.testing.assert_allclose(box.points[:, 0], [0.75, 0.85, 0.95])

    def test_center_is_a_grid_point_bitwise(self):
        center = 0.123456789
        box = build_grid(self._fit(center, 0.0321), points_per_dim=41)
        assert center in box.points[:, 0]

    def test_all_points_filtered_is_an_error(self):
        with pytest.raises(ValueError, match="smaller"):
            build_grid(self._fit(2.0, 0.01), points_per_dim=3)

    def test_even_points_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            build_grid(self._fit(0.5, 0.1), points_per_dim=4)

    def test_kept_points_match_oracle(self, hamilton_growth, extended_growth):
        for fit, points_per_dim in _gnp_fits(hamilton_growth, extended_growth):
            kept = build_grid(fit, points_per_dim).points
            assert _same_bits(kept, linearity_oracle.grid_points(fit, points_per_dim))

    def test_undefined_standard_errors_fail_loudly(self):
        # r=3, T=7: four regressors on four observations leave no residual
        # degrees of freedom, so the standard errors are NaN
        y = substream(7, 0).standard_normal(7)
        assert np.isnan(ols_ar_fit(y, 3).phi_se).all()
        with pytest.raises(ValueError, match="standard errors are not finite"):
            mmc_test(y, 3, N=20)
        # this exact fit is not stationary; LMC needs no standard errors, so it
        # runs on a path whose exact fit is stationary
        with pytest.raises(ValueError, match="LMC needs a stationary OLS point"):
            lmc_test(y, 3, N=20)
        y = substream(7, 6).standard_normal(7)
        assert np.isnan(ols_ar_fit(y, 3).phi_se).all()
        assert 0 < lmc_test(y, 3, N=20).p_value <= 1

    def test_four_dimensional_filtering(self, hamilton_growth):
        fit = ols_ar_fit(hamilton_growth, 4)
        box = build_grid(fit, points_per_dim=5)
        assert 0 < len(box.points) <= 5**4
        for point in box.points[:: max(1, len(box.points) // 50)]:
            assert min_root_modulus(point) > 1.0


class TestMcMixtureTest:
    def test_deterministic(self):
        z = substream(1, 2).standard_normal(100)
        a = mc_mixture_test(z, N=100, method="min", master_seed=77)
        b = mc_mixture_test(z, N=100, method="min", master_seed=77)
        assert a == b

    def test_pvalue_arithmetic(self):
        z = substream(4, 5).standard_normal(80)
        rep = mc_mixture_test(z, N=50, method="prod", master_seed=3)
        assert rep.p_value == pytest.approx((rep.N + 1 - rep.rank) / rep.N)
        assert 0 < rep.p_value <= 1

    @pytest.mark.parametrize("n", [0, 3])
    def test_short_series_rejected(self, n):
        with pytest.raises(ValueError, match="at least 4 observations"):
            mc_mixture_test(np.zeros(n), N=20)

    @pytest.mark.parametrize("shape", [(1, 50), (50, 1), ()])
    def test_series_of_other_dimensions_rejected(self, shape):
        with pytest.raises(ValueError, match="need a one-dimensional series"):
            mc_mixture_test(np.ones(shape), N=20)

    def test_degenerate_data_propagates(self):
        with pytest.raises(DegenerateSampleError):
            mc_mixture_test(np.array([-1.0, -1.0, 1.0, 1.0] * 10), N=20)

    def test_null_rejection_rate(self):
        # quick exactness check; the full-scale run lives in the acceptance suite
        trials, rejections = 1000, 0
        for s in range(trials):
            z = substream(1234, s).standard_normal(100)
            rep = mc_mixture_test(z, N=100, method="min", master_seed=s)
            rejections += rep.p_value <= 0.05
        rate = rejections / trials
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / trials)

    def test_power_against_scale_mixture(self):
        trials, rejections = 200, 0
        for s in range(trials):
            rng = substream(888, s)
            ones = rng.uniform(size=200) < 0.5
            z = np.where(ones, rng.standard_normal(200), 2.0 * rng.standard_normal(200))
            rep = mc_mixture_test(z, N=100, method="min", master_seed=s)
            rejections += rep.p_value <= 0.05
        assert rejections / trials > 0.30


class TestLmcTest:
    def test_report_contents(self):
        y = _ar1_path(0.3, 200, seed=5)
        rep = lmc_test(y, 1, N=100, method="min", master_seed=11)
        assert rep.method == "LMC_min"
        assert rep.grid_points_evaluated == 1
        assert rep.min_root_modulus > 1.0
        fit = ols_ar_fit(y, 1)
        np.testing.assert_allclose(rep.phi_at_report, fit.phi)

    def test_location_scale_invariance(self):
        y = _ar1_path(0.4, 150, seed=6)
        a = lmc_test(y, 1, master_seed=21)
        b = lmc_test(5.0 * y + 3.0, 1, master_seed=21)
        assert a.p_value == b.p_value

    def test_null_size_smoke(self):
        trials, rejections = 200, 0
        for s in range(trials):
            y = _ar1_path(0.1, 100, seed=10_000 + s)
            rejections += lmc_test(y, 1, master_seed=s).p_value <= 0.05
        assert 0.01 <= rejections / trials <= 0.10


class TestMmcTest:
    def test_dominates_lmc_at_shared_seed(self, hamilton_growth):
        for seed in (1, 2, 3):
            lmc = lmc_test(hamilton_growth, 4, method="min", master_seed=seed)
            mmc = mmc_test(hamilton_growth, 4, method="min", master_seed=seed,
                           points_per_dim=3)
            assert mmc.p_value >= lmc.p_value

    def test_replicate_set_is_fixed_across_grid(self, hamilton_growth):
        fit = ols_ar_fit(hamilton_growth, 4)
        box = build_grid(fit, points_per_dim=3)
        a = linearity_tests(hamilton_growth, 4, grid=box, master_seed=9)
        b = linearity_tests(hamilton_growth, 4, grid=box, master_seed=9)
        assert [rep.p_value for rep in a] == [rep.p_value for rep in b]
        # a grid holding only the center gives the local test's p-value
        center = build_grid(fit, points_per_dim=1)
        np.testing.assert_array_equal(center.points, fit.phi[None, :])
        assert (mmc_test(hamilton_growth, 4, grid=center, master_seed=9).p_value
                == lmc_test(hamilton_growth, 4, master_seed=9).p_value)

    def test_argmax_is_first_in_row_major_order(self):
        y = _ar1_path(0.2, 120, seed=8)
        # N=2 coarsens p-values to {1/2, 1} so the grid has many tied maxima
        rep = mmc_test(y, 1, N=2, method="min", master_seed=4, points_per_dim=21)
        box = build_grid(ols_ar_fit(y, 1), points_per_dim=21)
        pvals = np.array([
            mmc_test(y, 1, N=2, method="min", master_seed=4,
                     grid=replace(box, points=box.points[i : i + 1])).p_value
            for i in range(len(box.points))
        ])
        assert 1 < np.count_nonzero(pvals == pvals.max()) < len(pvals)
        first = int(np.flatnonzero(pvals == pvals.max())[0])
        np.testing.assert_array_equal(rep.phi_at_report, box.points[first])

    def test_conservative_under_null(self):
        trials, rejections = 150, 0
        for s in range(trials):
            y = _ar1_path(0.1, 100, seed=20_000 + s)
            rejections += mmc_test(y, 1, master_seed=s).p_value <= 0.05
        assert rejections / trials <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / trials)

    def test_non_finite_grid_row_is_named(self, hamilton_growth):
        grid = NuisanceBox(np.array([[0.3], [np.nan], [0.5]]))
        with pytest.raises(ValueError, match=r"grid row 1 \[nan\] is not finite"):
            mmc_test(hamilton_growth, 1, grid=grid)

    @pytest.mark.parametrize("points", [[[1.5]], [[0.2], [-1.0]]])
    def test_non_stationary_grid_row_is_named(self, hamilton_growth, points):
        bad = len(points) - 1
        with pytest.raises(ValueError, match=f"grid row {bad} .* is not stationary"):
            mmc_test(hamilton_growth, 1, grid=NuisanceBox(np.array(points)))

    def test_tiny_last_coefficient_in_a_user_grid(self, hamilton_growth):
        # stationary, but its companion matrix overflows in np.roots; the
        # reported row's root modulus comes from the reciprocal polynomial
        grid = np.array([[0.5, 1e-310]])
        assert stationary_rows(grid)[0]
        (report,) = linearity_tests(hamilton_growth, 2, ("MMC_min",), grid=NuisanceBox(grid))
        assert _same_bits(report.phi_at_report, grid[0])
        assert report.min_root_modulus == 2.0

    def test_grid_dimension_mismatch(self, hamilton_growth):
        fit = ols_ar_fit(hamilton_growth, 4)
        box = build_grid(fit, points_per_dim=3)
        with pytest.raises(ValueError, match="dimension"):
            mmc_test(hamilton_growth, 2, grid=box)


class TestSinglePass:
    """The one-pass LMC/MMC reports equal the per-method reference path
    (``linearity_oracle``: one null ensemble per method, scalar statistics,
    matrix-product grid filter)."""

    @staticmethod
    def _check(y, r, methods, seed, points_per_dim=11):
        reports = linearity_tests(y, r, methods, master_seed=seed, points_per_dim=points_per_dim)
        assert [rep.method for rep in reports] == list(methods)
        for rep in reports:
            _assert_report(rep, linearity_oracle.report(y, r, rep.method, 100, seed, points_per_dim))
        return reports

    @pytest.mark.parametrize("rep", range(3))
    def test_matches_per_method_oracle_on_desk_cells(self, rep):
        for cell, cfg in enumerate(default_study_grid("desk", methods=METHODS)):
            y = simulate_msar(cfg.dgp, cfg.T, substream(rep, DOMAIN_DGP, cell))
            self._check(y, cfg.dgp.r, METHODS, seed=1000 * cell + rep)

    def test_lag_order_zero_lmc_only(self):
        y = _ar1_path(0.1, 100, seed=31)
        reports = self._check(y, 0, ("LMC_prod", "LMC_min"), seed=5)
        assert reports[0].phi_at_report.shape == (0,)

    def test_nonstationary_ols_center(self):
        # explosive path whose OLS estimate lies outside the stationary region:
        # LMC there is an error naming the root modulus, MMC uses the kept
        # grid points only
        e = substream(16, 77).standard_normal(100)
        y = np.zeros(100)
        for t in range(1, 100):
            y[t] = 1.02 * y[t - 1] + e[t]
        fit = ols_ar_fit(y, 1)
        assert fit.phi[0] > 1.0
        for methods in (("LMC_min",), ("MMC_prod", "LMC_prod")):
            with pytest.raises(ValueError, match=f"root modulus {min_root_modulus(fit.phi):.6g}"):
                linearity_tests(y, 1, methods, master_seed=6)
        (mmc,) = self._check(y, 1, ("MMC_min",), seed=6)
        assert mmc.min_root_modulus > 1.0
        assert 0 < mmc.grid_points_evaluated < 11

    @pytest.mark.parametrize(
        "methods", [("MMC_prod", "LMC_min"), ("MMC_min",), ("LMC_prod", "MMC_min", "LMC_min")]
    )
    def test_method_subsets_in_any_order(self, methods):
        self._check(_ar1_path(0.9, 200, seed=32), 1, methods, seed=7)

    def test_degenerate_data_raises(self):
        y = np.array([-1.0, -1.0, 1.0, 1.0] * 10)
        for method in ("LMC_min", "LMC_prod"):
            with pytest.raises(DegenerateSampleError, match="M"):
                linearity_oracle.report(y, 0, method, 100, 3, 11)
        with pytest.raises(DegenerateSampleError, match="M"):
            linearity_tests(y, 0, ("LMC_min", "LMC_prod"), master_seed=3)

    def test_unknown_method_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="unknown method 'MMC_max'"):
            linearity_tests(np.ones(3), 4, ("LMC_min", "MMC_max"))
        with pytest.raises(ValueError, match="N must be at least 2"):
            linearity_tests(np.ones(3), 4, ("LMC_min",), N=1)

    @pytest.mark.parametrize("methods", [("LMC_min",), ("MMC_min",)], ids=["LMC", "MMC"])
    @pytest.mark.parametrize("points_per_dim", [4, 0, -1])
    def test_points_per_dim_checked_before_any_work(self, methods, points_per_dim):
        with pytest.raises(ValueError, match="points_per_dim must be odd and at least 1"):
            linearity_tests(np.ones(3), 4, methods, points_per_dim=points_per_dim)

    def test_points_per_dim_with_a_grid_is_rejected(self):
        grid = NuisanceBox(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="give grid= or points_per_dim=, not both"):
            linearity_tests(_ar1_path(0.3, 60, seed=34), 1, ("MMC_min",), grid=grid,
                            points_per_dim=5)

    def test_one_null_ensemble_and_one_grid_per_series(self, monkeypatch):
        import regimetest.linearity as lin
        import regimetest.mctest as mct

        # every null ensemble draws its replicates through _null_quartets
        calls = {"_null_quartets": 0, "build_grid": 0}
        for module, name in ((mct, "_null_quartets"), (lin, "build_grid")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        linearity_tests(_ar1_path(0.3, 100, seed=33), 1, METHODS, master_seed=8)
        assert calls == {"_null_quartets": 1, "build_grid": 1}

    def test_one_root_modulus_per_distinct_reported_row(self, monkeypatch, hamilton_growth):
        import regimetest.linearity as lin

        calls = []

        def counted(P):
            calls.append(P.copy())
            return real(P)

        real = lin._min_root_moduli
        monkeypatch.setattr(lin, "_min_root_moduli", counted)
        reports = linearity_tests(hamilton_growth, 2, METHODS, master_seed=8, points_per_dim=5)
        distinct = {tuple(rep.phi_at_report) for rep in reports}
        # one batch of the distinct reported rows: the two LMC reports share row 0
        assert len(calls) == 1
        assert len(calls[0]) == len(distinct) <= 3
        assert {tuple(phi) for phi in calls[0]} == distinct
        for rep in reports:
            assert _same_bits(rep.min_root_modulus, min_root_modulus(rep.phi_at_report))


class TestBlockPass:
    """The single pass filters and reduces the coefficient rows in blocks,
    and a bounded pass only some rows of a block; the result equals one
    unblocked call bit for bit."""

    @pytest.mark.parametrize("budget", [None, 1, 7 * 131])
    def test_gnp_r4_quartets_match_unblocked(self, monkeypatch, hamilton_growth, extended_growth, budget):
        if budget is not None:
            monkeypatch.setattr(moments, "BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(0)
        for y in (hamilton_growth, extended_growth):
            fit = ols_ar_fit(y, 4)
            rows = np.vstack([fit.phi[None, :], build_grid(fit, 9).points])
            unblocked = quartet_matrix(ar_filter(y, rows))
            quartets = _RowQuartets(y, rows)
            blocked = np.vstack([quartets(np.arange(b.start, b.stop)) for b in quartets.blocks])
            assert _same_bits(blocked, unblocked)
            # scattered rows of a block, in one scratch grown and reused
            for block in quartets.blocks[:50]:
                idx = np.flatnonzero(rng.random(block.stop - block.start) < 0.3) + block.start
                if len(idx):
                    assert _same_bits(quartets(idx), unblocked[idx])

    def test_degenerate_row_after_the_first_block(self):
        # a two-valued series: the filter at phi = 0 leaves it two-valued, so
        # the M statistic is undefined there and only there
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0] * 20)
        Tz = len(y) - 1
        block = moments.BLOCK_ELEMENTS // Tz
        grid = np.linspace(0.05, 0.9, 2 * block)[:, None]
        grid = np.insert(grid, block + 5, 0.0, axis=0)
        rows = np.vstack([ols_ar_fit(y, 1).phi[None, :], grid])
        assert not np.isnan(quartet_matrix(ar_filter(y, rows[:block]))).any()
        with pytest.raises(DegenerateSampleError) as unblocked:
            raise_if_degenerate(quartet_matrix(ar_filter(y, rows)))
        with pytest.raises(DegenerateSampleError) as blocked:
            linearity_tests(y, 1, ("MMC_min",), grid=NuisanceBox(grid), N=20)
        assert blocked.value.statistic == unblocked.value.statistic == "M"
        assert str(blocked.value) == str(unblocked.value)

    def test_memory_stays_bounded(self, extended_growth):
        # the unblocked pass peaked at about 57 MB here: 6562 rows of 235 filtered observations
        tracemalloc.start()
        try:
            linearity_tests(extended_growth, 4, N=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


@pytest.fixture(scope="module")
def gnp_oracle(hamilton_growth, extended_growth):
    """``linearity_oracle.report`` of every method for both GNP series at
    r = 4, N = 100 and seeds 0-19, keyed by (series, seed); the grid and its
    quartets are built once per series, as ``linearity_oracle.mmc`` builds
    them."""
    out = {}
    for name, y in (("hamilton", hamilton_growth), ("extended", extended_growth)):
        points = linearity_oracle.grid_points(ols_ar_fit(y, 4), 9)
        Qz = linearity_oracle.grid_quartets(y, 4, points)
        for seed in range(20):
            out[name, seed] = [
                linearity_oracle.lmc(y, 4, 100, rule, seed) if kind == "LMC"
                else linearity_oracle.mmc_at(points, Qz, len(y) - 4, 100, rule, seed)
                for kind, rule in (method.split("_") for method in METHODS)
            ]
    return out


class TestOneKernelCall:
    """A one-block pass and ``mc_mixture_test`` reduce the null replicates
    and the data rows in one kernel call; every number equals that of
    reducing them apart."""

    @staticmethod
    def _captured(monkeypatch):
        import regimetest.linearity as lin

        calls = []
        real = lin._ensemble_and_quartets

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(lin, "_ensemble_and_quartets", spy)
        return calls

    @pytest.mark.parametrize("T", [99, 199])
    def test_ensemble_and_row_quartets_equal_apart(self, monkeypatch, T):
        calls = self._captured(monkeypatch)
        rules = ("min", "prod")
        for seed in range(25):
            y = _ar1_path(0.4, T + 1, seed=seed)
            fit = ols_ar_fit(y, 1)
            rows = np.vstack([fit.phi[None, :], build_grid(fit, 41).points])
            linearity_tests(y, 1, METHODS, master_seed=seed)
            (args, (ensemble, Q)), = calls
            calls.clear()
            assert args[0] == T and len(Q) == len(rows)
            apart = null_ensemble(T, 100, rules, None, seed)
            assert ensemble.resampled == apart.resampled == 0
            for rule in rules:
                for got, want in zip(ensemble.replicates[rule], apart.replicates[rule]):
                    assert _same_bits(got, want)
            assert _same_bits(Q, quartet_matrix(ar_filter(y, rows)))

    def test_degenerate_replicate_is_redrawn_and_counted(self, monkeypatch):
        import regimetest.mctest as mct
        from regimetest._seeding import DOMAIN_REPLICATE

        real = mct.normal_rows

        def one_flat_row(*args, **kwargs):
            eta = real(*args, **kwargs)
            eta[3] = 1.0  # no dispersion: every statistic undefined
            return eta

        monkeypatch.setattr(mct, "normal_rows", one_flat_row)
        y = _ar1_path(0.4, 100, seed=5)
        X = ar_filter(y, np.array([[0.4], [0.1]]))
        Q, resampled = mct._null_quartets(99, 20, 7, X)
        assert resampled == 1
        redrawn = substream(7, DOMAIN_REPLICATE, 3, 1).standard_normal(99)
        assert _same_bits(Q[3], quartet_matrix(redrawn[None])[0])
        assert _same_bits(Q[19:], quartet_matrix(X))
        for report in linearity_tests(y, 1, METHODS, N=20, master_seed=7):
            assert report.degenerate_resamples == 1

    def test_degenerate_data_row_raises_the_same_error(self):
        # a two-valued series: the filter at phi = 0 leaves it two-valued
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0] * 20)
        grid = NuisanceBox(np.array([[0.2], [0.0]]))
        with pytest.raises(DegenerateSampleError) as apart:
            raise_if_degenerate(quartet_matrix(ar_filter(y, grid.points)))
        with pytest.raises(DegenerateSampleError) as merged:
            linearity_tests(y, 1, ("MMC_min",), grid=grid)
        assert str(merged.value) == str(apart.value) == (
            "M: undefined on this sample (empty partition or zero dispersion)")
        assert merged.value.statistic == "M"

    @pytest.mark.parametrize("method", ["min", "prod"])
    def test_mc_mixture_reports_equal_apart(self, method):
        from regimetest.mctest import MCTestReport, _report

        for seed in range(20):
            z = substream(seed, 98).standard_normal(40 + 5 * seed) ** 3
            ensemble = null_ensemble(len(z), 50, (method,), None, seed)
            f0, ranks, p = ensemble.rank(quartet_matrix(z[None, :]))[method]
            want = _report(f0[0], ensemble.replicates[method][0], ranks, p, seed, ensemble.resampled)
            got = mc_mixture_test(z, N=50, method=method, master_seed=seed)
            assert isinstance(got, MCTestReport)
            assert repr(got) == repr(want) and _same_bits(got.statistic_value, want.statistic_value)


class TestStreamingPass:
    """The pass ranks each block as it is computed and stops after the block
    in which every requested MMC rule reaches p = 1.  Its reports equal the
    full-grid oracle's, which ranks every row before taking the maximum."""

    @pytest.mark.parametrize("budget", [None, 1, 7 * 131], ids=["default", "one-row", "7x131"])
    def test_gnp_r4_matches_full_grid_oracle(self, monkeypatch, hamilton_growth, extended_growth,
                                             gnp_oracle, budget):
        if budget is not None:
            monkeypatch.setattr(moments, "BLOCK_ELEMENTS", budget)
        for name, y in (("hamilton", hamilton_growth), ("extended", extended_growth)):
            for seed in range(20):
                reports = linearity_tests(y, 4, METHODS, N=100, master_seed=seed)
                for report, expected in zip(reports, gnp_oracle[name, seed], strict=True):
                    _assert_report(report, expected)
                assert len({report.rows_ranked for report in reports}) == 1

    @staticmethod
    def _kernel_rows(monkeypatch):
        import regimetest.linearity as lin

        rows = [0]
        real = lin._quartets

        def counted(E, work=None):
            rows[0] += len(E)
            return real(E, work)

        monkeypatch.setattr(lin, "_quartets", counted)
        return rows

    @staticmethod
    def _filtered_rows(monkeypatch):
        import regimetest.linearity as lin

        rows = [0]
        real = lin._filter_rows

        def counted(y, P, out):
            rows[0] += len(P)
            return real(y, P, out)

        monkeypatch.setattr(lin, "_filter_rows", counted)
        return rows

    def test_stop_skips_the_grid_after_its_block(self, monkeypatch, hamilton_growth, extended_growth):
        # Hamilton seed 0: both rules reach p = 1 within the first block of
        # 1000 rows (131 observations each), and the bound settles 746 of
        # them; the extended series never stops, and the bound settles all
        # but 247 of its 6562 rows, the first block's 557 included; a
        # settled row is never filtered
        for y, ranked, kernel in ((hamilton_growth, 1000, 254), (extended_growth, 6562, 247)):
            filtered, rows = self._filtered_rows(monkeypatch), self._kernel_rows(monkeypatch)
            reports = linearity_tests(y, 4, METHODS, N=100, master_seed=0)
            assert filtered[0] == kernel
            assert rows[0] == kernel
            assert [report.rows_ranked for report in reports] == [ranked] * 4
            assert [report.rows_bounded for report in reports] == [ranked - kernel] * 4
            assert [report.grid_points_evaluated for report in reports] == [1, 1, 6561, 6561]

    @staticmethod
    def _candidates():
        """An AR(1) path, candidate coefficients, and their full-grid p-values
        (N = 20, seed 0) under both rules."""
        y = _ar1_path(0.3, 100, seed=37)
        phis = np.linspace(-0.9, 0.9, 361)[:, None]
        Qz = linearity_oracle.grid_quartets(y, 1, phis)
        p = {rule: linearity_oracle.grid_pvalues(Qz, len(y) - 1, 20, rule, 0) for rule in ("min", "prod")}
        return y, phis, p

    @pytest.mark.parametrize("methods, first_ones, stop", [
        (("MMC_min", "MMC_prod"), (5, 7, 9), 8),   # mid-block; later ones in and after its block
        (("MMC_min", "MMC_prod"), (8, 11, 13), 12),  # the first row of a block
        (("MMC_prod", "MMC_min"), (7, 8, 10), 8),   # the last row of a block
        (("MMC_min",), (2, 3, 6), 4),             # inside the first block, after the OLS row
    ], ids=["mid-block", "block-start", "block-end", "first-block"])
    def test_first_maximizer_is_kept(self, monkeypatch, methods, first_ones, stop):
        # blocks of 4 rows; pass row 0 is the OLS point, grid row g is pass row g + 1
        y, phis, p = self._candidates()
        ones = np.flatnonzero((p["min"] == 1) & (p["prod"] == 1))
        others = np.flatnonzero((p["min"] < 1) & (p["prod"] < 1))
        assert len(ones) >= 3
        picks = others[:16].copy()
        picks[[row - 1 for row in first_ones]] = ones[:3]
        grid = phis[picks]
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 4 * (len(y) - 1))
        rows = self._kernel_rows(monkeypatch)
        reports = linearity_tests(y, 1, methods, N=20, grid=NuisanceBox(grid))
        Qz = linearity_oracle.grid_quartets(y, 1, grid)
        for report in reports:
            expected = linearity_oracle.mmc_at(grid, Qz, len(y) - 1, 20, report.method[4:], 0)
            _assert_report(report, expected)
            assert report.p_value == 1.0
            assert _same_bits(report.phi_at_report, phis[ones[0]])
            assert report.rows_ranked == stop
        assert rows[0] == stop

    def test_stop_waits_for_every_rule(self, monkeypatch):
        # MMC_min reaches p = 1 in the second block, MMC_prod only in the third
        y, phis, p = self._candidates()
        min_only = np.flatnonzero((p["min"] == 1) & (p["prod"] < 1))
        both = np.flatnonzero((p["min"] == 1) & (p["prod"] == 1))
        others = np.flatnonzero((p["min"] < 1) & (p["prod"] < 1))
        assert len(min_only) and len(both)
        picks = others[:16].copy()
        picks[[5 - 1, 10 - 1]] = min_only[0], both[0]
        grid = phis[picks]
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 4 * (len(y) - 1))
        reports = linearity_tests(y, 1, ("MMC_min", "MMC_prod"), N=20, grid=NuisanceBox(grid))
        assert [report.rows_ranked for report in reports] == [12, 12]
        assert [report.p_value for report in reports] == [1.0, 1.0]
        assert _same_bits(reports[0].phi_at_report, phis[min_only[0]])
        assert _same_bits(reports[1].phi_at_report, phis[both[0]])

    def test_degenerate_row_after_the_stop_is_never_computed(self, monkeypatch):
        # binary innovations: the filter at phi = 0.9 leaves them two-valued up
        # to rounding, so the M statistic is undefined there (a full-grid pass
        # raises), while coefficients near 0.17 give p = 1 (N = 20, seed 2)
        w = np.where(np.random.default_rng(5).random(150) < 0.5, -1.0, 1.0)
        y = np.zeros(150)
        for t in range(1, 150):
            y[t] = 0.9 * y[t - 1] + w[t]
        assert np.isnan(quartet_matrix(ar_filter(y, [0.9]))).any()
        phis = np.linspace(-0.9, 0.8, 171)[:, None]
        p = linearity_oracle.grid_pvalues(linearity_oracle.grid_quartets(y, 1, phis), 149, 20, "min", 2)
        ones, others = np.flatnonzero(p == 1), np.flatnonzero(p < 1)
        assert len(ones) >= 2
        # blocks of 4 rows: the p = 1 row is pass row 2, the degenerate one pass row 9
        grid = np.vstack([phis[others[:1]], phis[ones[:1]], phis[others[1:7]], [[0.9]],
                          phis[ones[1:2]], phis[others[7:10]]])
        with pytest.raises(DegenerateSampleError, match="M"):
            linearity_oracle.grid_quartets(y, 1, grid)
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 4 * 149)
        (report,) = linearity_tests(y, 1, ("MMC_min",), N=20, grid=NuisanceBox(grid), master_seed=2)
        assert report.p_value == 1.0
        assert _same_bits(report.phi_at_report, phis[ones[0]])
        assert report.rows_ranked == 4
        assert report.grid_points_evaluated == len(grid)


class TestBoundedPass:
    """After the first block the pass reduces each row to its S and K
    first, and leaves out of the full kernel the rows whose p-value bound is
    at or below every MMC rule's running maximum and whose M and V witnesses
    prove those statistics defined.  The reports stay those of ranking every
    row."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("innovations", [
        lambda rng, n: rng.standard_t(3, n),
        lambda rng, n: rng.standard_normal(n) ** 3,
    ], ids=["student-t", "cubed-normal"])
    def test_reports_equal_the_full_grid_oracle(self, monkeypatch, r, innovations):
        # heavy tails keep the MMC p-values low, so the bound settles rows;
        # blocks of 1-40 rows put most of each grid after the first block
        rng = np.random.default_rng(100 + r)
        points_per_dim = {1: 41, 2: 9, 3: 7, 4: 5}[r]
        bounded = 0
        for case, (N, methods) in enumerate([(20, METHODS), (100, METHODS),
                                             (20, ("MMC_min",)), (100, ("MMC_prod",))]):
            T = int(rng.integers(60, 200))
            e = innovations(rng, T + 50)
            y = np.zeros(T + 50)
            for t in range(1, T + 50):
                y[t] = 0.3 * y[t - 1] + e[t]
            y = y[50:]
            monkeypatch.setattr(moments, "BLOCK_ELEMENTS", int(rng.integers(1, 41)) * (T - r))
            reports = linearity_tests(y, r, methods, N=N, master_seed=case, points_per_dim=points_per_dim)
            for report in reports:
                _assert_report(report, linearity_oracle.report(y, r, report.method, N, case, points_per_dim))
            bounded += reports[0].rows_bounded
        assert bounded > 0

    _degenerate_rows = pytest.mark.parametrize("statistic, y", [
        # two-valued at phi = 0: each partition of M holds one value
        ("M", np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0] * 20)),
        # sparse at phi = 0: every square below the variance is an exact zero
        ("V", np.array(([0.0] * 14 + [1.0, 1.25] + [0.0] * 14 + [-1.0, -1.25]) * 4)),
    ])

    @_degenerate_rows
    @pytest.mark.parametrize("rule", ["min", "prod"])
    def test_degenerate_row_the_bound_would_settle_still_raises(self, monkeypatch, statistic, y, rule):
        # grid row 10 is pass row 11, in the second block of 8 rows
        self._assert_degenerate_row_raises(monkeypatch, statistic, y, rule, 8, 16, 10)

    @_degenerate_rows
    @pytest.mark.parametrize("rule", ["min", "prod"])
    def test_degenerate_first_block_row_still_raises(self, monkeypatch, statistic, y, rule):
        # grid row 30 is pass row 31, after the 17 seeds of a first block of 40 rows
        self._assert_degenerate_row_raises(monkeypatch, statistic, y, rule, 40, 50, 30)

    @staticmethod
    def _assert_degenerate_row_raises(monkeypatch, statistic, y, rule, block_rows, grid_rows, at):
        """Grid row ``at`` of ``grid_rows``, at phi = 0, is the one degenerate
        row; with blocks of ``block_rows`` rows its bound would settle it."""
        Tz = len(y) - 1
        grid = np.insert(np.linspace(0.05, 0.9, grid_rows - 1), at, 0.0)[:, None]
        Q = quartet_matrix(ar_filter(y, grid))
        assert np.isnan(Q[at]).tolist() == [c == statistic for c in "MVSK"]
        assert not np.isnan(np.delete(Q, at, axis=0)).any()
        ensemble = null_ensemble(Tz, 20, (rule,), None, 0)
        lag_moments = moments._LagMoments(_lag_stack(y, 1))

        def bounds(rows):
            s, k, _, _ = lag_moments.skew_kurt_bounds(rows)
            return ensemble.pvalue_bounds(s, k, (rule,))[rule]

        # the grid rows ranked before the row is bounded: the whole first
        # block, or, for a row in it, the seeds of the largest bounds
        before = np.arange(block_rows - 1)
        if at in before:
            before = np.sort(np.argsort(-bounds(grid[before]), kind="stable")[:_SEEDS])
            assert at not in before
        p = ensemble.rank(Q[before])[rule][2]
        first_maximizer = before[np.argmax(p)]
        bound = bounds(grid[at : at + 1])[0]
        assert bound < p.max() or (bound == p.max() and at > first_maximizer)
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", block_rows * Tz)
        witnessed = {}
        real = moments._LagMoments.mv_witnessed

        def spy(self, P, lo, hi):
            out = real(self, P, lo, hi)
            witnessed.update(zip(P[:, 0].tolist(), out.tolist()))
            return out

        monkeypatch.setattr(moments._LagMoments, "mv_witnessed", spy)
        # only the witnesses keep the row in the kernel, which raises
        with pytest.raises(DegenerateSampleError) as raised:
            linearity_tests(y, 1, (f"MMC_{rule}",), grid=NuisanceBox(grid), N=20)
        assert raised.value.statistic == statistic
        assert witnessed[0.0] is False

    def test_degenerate_seed_raises_as_ranking_every_row(self, monkeypatch):
        # blocks of 17 rows: the OLS row and the 16 grid rows of the first
        # block are all its seeds, the degenerate grid row 3 among them
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0] * 20)
        grid = np.insert(np.linspace(0.05, 0.9, 29), 3, 0.0)[:, None]
        rows = np.vstack([ols_ar_fit(y, 1).phi[None, :], grid])
        with pytest.raises(DegenerateSampleError) as unblocked:
            raise_if_degenerate(quartet_matrix(ar_filter(y, rows)))
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", 17 * (len(y) - 1))
        with pytest.raises(DegenerateSampleError) as bounded:
            linearity_tests(y, 1, METHODS, grid=NuisanceBox(grid), N=20)
        assert str(bounded.value) == str(unblocked.value)

    def test_reports_do_not_depend_on_the_cpu(self):
        # the bound's float code (einsum forms, np.exp in its marginal
        # p-values) decides rows_bounded; with every SIMD feature numpy
        # dispatches on this CPU switched off, the reports keep their bytes
        features = dispatched_cpu_features()
        if not features:
            pytest.skip("numpy dispatches no CPU feature here")
        code = """
from importlib.resources import files
from regimetest.harness import ingest_series
from regimetest.linearity import linearity_tests
for name in ("hamilton", "extended"):
    path = files("regimetest").joinpath(f"data/gnp_{name}_levels.csv")
    y = ingest_series(str(path), "logdiff100").values
    for seed in (0, 7):
        for r in linearity_tests(y, 4, N=100, master_seed=seed):
            print(r.method, r.p_value.hex(), *(x.hex() for x in r.phi_at_report),
                  r.min_root_modulus.hex(), r.rows_ranked, r.rows_bounded)
"""
        default = run_probe(code)
        assert len(default.splitlines()) == 16
        assert run_probe(code, NPY_DISABLE_CPU_FEATURES=" ".join(features)) == default

    def test_one_block_bounds_nothing(self, extended_growth):
        reports = linearity_tests(extended_growth, 1, METHODS, N=100, master_seed=0)
        assert [report.rows_ranked for report in reports] == [42] * 4
        assert [report.rows_bounded for report in reports] == [0] * 4


def test_readme_quickstart_pvalues(hamilton_growth):
    """The README quickstart's LMC/MMC lines print exactly what it says."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^(?:lmc|mmc) = .*$", readme, flags=re.M)
    assert len(lines) == 2
    assert "# 0.56 and 1.0" in readme
    scope = {"growth": hamilton_growth, "lmc_test": lmc_test, "mmc_test": mmc_test}
    for line in lines:
        exec(line, scope)
    assert scope["lmc"].p_value == 0.56
    assert scope["mmc"].p_value == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run", [
    lambda y: linearity_tests(y, 1, N=20),
    lambda y: mc_mixture_test(y, N=20),
    lambda y: chp_bootstrap_test(y, B=5, draws=5),
], ids=["linearity_tests", "mc_mixture_test", "chp_bootstrap_test"])
def test_non_finite_series_names_its_first_index(run, bad):
    y = _ar1_path(0.3, 60, seed=35)
    y[[17, 40]] = bad
    with pytest.raises(ValueError, match=rf"non-finite value \({bad}\) at index 17$"):
        run(y)
