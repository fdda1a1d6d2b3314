from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest

import chp_oracle
import regimetest.moments as moments
from regimetest._seeding import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_CELL,
    DOMAIN_DGP,
    DOMAIN_NUISANCE,
    derive_seed,
    substream,
)
from regimetest.chp import (
    NuisanceDraw,
    _bootstrap_paths,
    _criteria_kernel,
    _psi_weight,
    _row_chunks,
    _row_statistics,
    _score_basis,
    _series_block,
    _standardize_rows,
    chp_bootstrap_test,
    exp_ts,
    gamma_star,
    null_score_panel,
    projection_residuals,
    sample_nuisance_draws,
    standardize_series,
    sup_ts,
)
from regimetest.harness import default_study_grid
from regimetest.moments import row_blocks
from regimetest.msar import MSARSpec, RegimeParams, TransitionMatrix, simulate_msar

#: Bootstrap samples per oracle comparison; every one of them is compared.
ORACLE_B = 50


def _ar1_path(phi: float, T: int, seed: int, c: float = 0.2, sigma: float = 1.0) -> np.ndarray:
    spec = MSARSpec(
        RegimeParams(c / (1 - phi), c / (1 - phi), sigma, sigma),
        TransitionMatrix(0.9, 0.9),
        (phi,),
    )
    return simulate_msar(spec, T, substream(seed, 0))


def _loglik_terms(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    c, phi, s2 = theta
    eps = y[1:] - c - phi * y[:-1]
    return -0.5 * np.log(2 * np.pi * s2) - eps**2 / (2 * s2)


class TestNullScorePanel:
    def test_scores_match_finite_differences(self):
        y = _ar1_path(0.4, 80, seed=1)
        panel = null_score_panel(y)
        theta = np.array(panel.theta0_hat)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            numeric = (_loglik_terms(y, up) - _loglik_terms(y, down)) / (2 * h)
            rel = np.abs(numeric - panel.scores[:, j]) / np.maximum(np.abs(panel.scores[:, j]), 1e-3)
            assert rel.max() < 1e-6

    def test_hessians_match_score_differences(self):
        y = _ar1_path(0.3, 60, seed=2)
        panel = null_score_panel(y)
        theta = np.array(panel.theta0_hat)

        def scores_at(th):
            c, phi, s2 = th
            eps = y[1:] - c - phi * y[:-1]
            return np.column_stack(
                [eps / s2, eps * y[:-1] / s2, -0.5 / s2 + eps**2 / (2 * s2**2)]
            )

        for j in range(3):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            numeric = (scores_at(up) - scores_at(down)) / (2 * h)
            scale = np.maximum(np.abs(panel.hessians[:, :, j]), 1.0)
            rel = np.abs(numeric - panel.hessians[:, :, j]) / scale
            assert rel.max() < 1e-5

    def test_score_sums_vanish_at_fit(self):
        y = _ar1_path(0.5, 120, seed=3)
        panel = null_score_panel(y)
        total = panel.scores.sum(axis=0)
        scale = np.abs(panel.scores).sum(axis=0)
        assert np.all(np.abs(total) <= 1e-8 * scale)

    def test_hessians_symmetric(self):
        panel = null_score_panel(_ar1_path(0.2, 40, seed=4))
        np.testing.assert_array_equal(panel.hessians, panel.hessians.transpose(0, 2, 1))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            null_score_panel(np.arange(5.0))


class TestGammaStar:
    def test_variance_direction_identity(self):
        # with the 1/n variance divisor the mean-direction expansion term sums
        # to zero exactly at the fitted parameters
        y = _ar1_path(0.4, 100, seed=5)
        gamma, _ = gamma_star(y, NuisanceDraw(np.array([1.0, 0.0, 0.0]), 0.0))
        assert abs(gamma) < 1e-8

    def test_zero_rho_has_no_cross_term(self):
        y = _ar1_path(0.1, 50, seed=6)
        panel = null_score_panel(y)
        h = np.array([0.6, 0.0, 0.8])
        _, mu2 = gamma_star(y, NuisanceDraw(h, 0.0))
        g = panel.scores @ h
        quad = np.einsum("tij,i,j->t", panel.hessians, h, h)
        np.testing.assert_allclose(mu2, 0.5 * (quad + g**2), rtol=1e-12)

    def test_accumulator_equals_double_sum(self):
        y = _ar1_path(0.3, 50, seed=7)
        panel = null_score_panel(y)
        h = np.array([np.cos(0.7), 0.0, np.sin(0.7)])
        rho = 0.55
        _, mu2 = gamma_star(y, NuisanceDraw(h, rho))
        g = panel.scores @ h
        quad = np.einsum("tij,i,j->t", panel.hessians, h, h)
        n = len(g)
        brute = np.empty(n)
        for t in range(n):
            cross = sum(rho ** (t - s) * g[t] * g[s] for s in range(t))
            brute[t] = 0.5 * (quad[t] + g[t] ** 2 + 2.0 * cross)
        np.testing.assert_allclose(mu2, brute, rtol=1e-10)

    def test_draw_validation(self):
        with pytest.raises(ValueError, match="unit"):
            NuisanceDraw(np.array([1.0, 0.0, 1.0]), 0.0)
        with pytest.raises(ValueError, match="second"):
            NuisanceDraw(np.array([0.6, 0.8, 0.0]), 0.0)
        with pytest.raises(ValueError, match="rho"):
            NuisanceDraw(np.array([1.0, 0.0, 0.0]), 0.9)


class TestProjectionResiduals:
    def test_orthogonal_path_is_unchanged(self):
        y = _ar1_path(0.2, 60, seed=8)
        rng = substream(1, 1)
        raw = rng.standard_normal(len(y) - 1)
        resid = projection_residuals(raw, y)
        # residuals are themselves orthogonal: projecting again changes nothing
        np.testing.assert_allclose(projection_residuals(resid, y), resid, atol=1e-10)

    def test_score_combination_projects_to_zero(self):
        y = _ar1_path(0.2, 60, seed=9)
        panel = null_score_panel(y)
        path = panel.scores @ np.array([1.5, -0.3, 2.0])
        resid = projection_residuals(path, y)
        assert np.abs(resid).max() < 1e-8 * np.abs(path).max()

    def test_orthogonality_to_scores(self):
        y = _ar1_path(0.6, 90, seed=10)
        panel = null_score_panel(y)
        _, mu2 = gamma_star(y, NuisanceDraw(np.array([0.0, 0.0, 1.0]), 0.3))
        resid = projection_residuals(mu2, y)
        inner = panel.scores.T @ resid
        scale = np.abs(panel.scores).sum(axis=0) * np.abs(resid).max()
        assert np.all(np.abs(inner) <= 1e-8 * np.maximum(scale, 1.0))


class TestCriteria:
    def test_degenerate_direction_contributes_nothing(self):
        # the mean-direction draw at rho = 0 collapses onto the scores:
        # zero residual variation means criterion 0 and weight 1
        y = _ar1_path(0.4, 100, seed=11)
        H = np.array([[1.0, 0.0, 0.0]])
        sup_c, psi = _criteria_kernel(*_series_block(y[None]), len(y), H, np.array([0.0]))
        assert sup_c[0, 0] == 0.0
        assert psi[0, 0] == 1.0

    def test_sup_monotone_in_draw_set(self):
        y = _ar1_path(0.3, 80, seed=12)
        H, rhos = sample_nuisance_draws(100, substream(3, 3))
        sup_all, _ = _criteria_kernel(*_series_block(y[None]), len(y), H, rhos)
        assert sup_all[0, :50].max() <= sup_all[0].max()

    def test_psi_closed_form_at_unit_ratio(self):
        assert _psi_weight(np.array([1.0]))[0] == pytest.approx(1.2533141373155001, rel=1e-12)

    def test_psi_tail_behaviour(self):
        g = np.array([-1e3, -40.0, 0.0, 1.0, 38.0])
        psi = _psi_weight(g)
        assert np.all(np.isfinite(psi)) and np.all(psi > 0)
        assert psi[0] < 1e-2
        # no NaN even far beyond float range of the naive product
        assert not np.isnan(_psi_weight(np.array([-1e6, 40.0]))).any()

    def test_statistics_are_location_scale_invariant(self):
        # the pipeline standardizes the series before fitting the null, so
        # affine maps of the observations cannot move the statistics
        y = _ar1_path(0.5, 150, seed=13)
        a, b = standardize_series(y), standardize_series(3.0 * y - 7.0)
        np.testing.assert_allclose(
            sup_ts(a, 64, substream(5, 5)), sup_ts(b, 64, substream(5, 5)), rtol=1e-8
        )
        np.testing.assert_allclose(
            exp_ts(a, 64, substream(5, 5)), exp_ts(b, 64, substream(5, 5)), rtol=1e-8
        )

    def test_bootstrap_report_is_location_scale_invariant(self):
        y = _ar1_path(0.2, 120, seed=19)
        a = chp_bootstrap_test(y, B=30, draws=30, master_seed=2)
        b = chp_bootstrap_test(0.5 * y + 11.0, B=30, draws=30, master_seed=2)
        assert a.supTS == pytest.approx(b.supTS, rel=1e-8)
        assert a.expTS == pytest.approx(b.expTS, rel=1e-8)
        assert a.bootstrap_p_sup == b.bootstrap_p_sup
        assert a.bootstrap_p_exp == b.bootstrap_p_exp


class TestPublicStatistics:
    def test_sup_requires_draws(self):
        y = _ar1_path(0.1, 50, seed=14)
        with pytest.raises(ValueError):
            sup_ts(y, 0, substream(0, 0))

    def test_sup_and_exp_are_deterministic_given_stream(self):
        y = _ar1_path(0.1, 60, seed=15)
        assert sup_ts(y, 50, substream(8, 8)) == sup_ts(y, 50, substream(8, 8))
        assert exp_ts(y, 50, substream(8, 8)) == exp_ts(y, 50, substream(8, 8))

    def test_sup_nonnegative_exp_positive(self):
        y = _ar1_path(0.7, 100, seed=16)
        assert sup_ts(y, 40, substream(9, 9)) >= 0.0
        assert exp_ts(y, 40, substream(9, 9)) > 0.0


class TestBootstrapTest:
    def test_deterministic(self):
        y = _ar1_path(0.1, 100, seed=17)
        a = chp_bootstrap_test(y, B=50, draws=40, master_seed=99)
        b = chp_bootstrap_test(y, B=50, draws=40, master_seed=99)
        assert a == b

    def test_pvalue_convention(self):
        y = _ar1_path(0.1, 100, seed=18)
        rep = chp_bootstrap_test(y, B=50, draws=40, master_seed=1)
        for p in (rep.bootstrap_p_sup, rep.bootstrap_p_exp):
            assert 1 / (rep.B + 1) <= p <= 1.0

    def test_power_against_switching_alternative(self):
        spec = MSARSpec(RegimeParams(0.0, 2.0, 1.0, 2.0), TransitionMatrix(0.9, 0.5))
        trials, rej_sup, rej_exp = 100, 0, 0
        for s in range(trials):
            y = simulate_msar(spec, 100, substream(30_000, s))
            rep = chp_bootstrap_test(y, B=99, draws=100, master_seed=s)
            rej_sup += rep.bootstrap_p_sup <= 0.05
            rej_exp += rep.bootstrap_p_exp <= 0.05
        assert rej_sup / trials > 0.5
        assert rej_exp / trials > 0.5


def _desk_case(cell: int, seed: int):
    """Config, series and CHP master seed of replication 0 of a desk study
    cell, derived as the study harness derives them."""
    cfg = default_study_grid("desk")[cell]
    y = simulate_msar(cfg.dgp, cfg.T, substream(seed, DOMAIN_DGP, cell, 0))
    return cfg, y, derive_seed(seed, DOMAIN_CELL, cell, 0)


class TestBatchedBootstrap:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_sample_oracle_on_desk_cells(self, seed):
        for cell in range(len(default_study_grid("desk"))):
            cfg, y, rep_seed = _desk_case(cell, seed)
            rep = chp_bootstrap_test(y, B=ORACLE_B, draws=cfg.chp_draws, master_seed=rep_seed)
            (sup0, exp0), p_values, (sup_b, exp_b) = chp_oracle.bootstrap_test(
                y, ORACLE_B, cfg.chp_draws, rep_seed
            )
            assert rep.supTS == pytest.approx(sup0, rel=1e-12, abs=0.0)
            assert rep.expTS == pytest.approx(exp0, rel=1e-12, abs=0.0)
            assert (rep.bootstrap_p_sup, rep.bootstrap_p_exp) == p_values
            # every bootstrap statistic agrees, not only the counts behind the
            # p-values; small ones to 1e-12 of the largest
            ys = standardize_series(y)
            H, rhos = sample_nuisance_draws(cfg.chp_draws, substream(rep_seed, DOMAIN_NUISANCE))
            paths = _bootstrap_paths(
                null_score_panel(ys).theta0_hat, len(ys), ORACLE_B, rep_seed, ys[0]
            )
            got_sup, got_exp = _row_statistics(
                _standardize_rows(np.ascontiguousarray(paths.T)), H, rhos
            )
            for got, want in ((got_sup, sup_b), (got_exp, exp_b)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_data_panel_bit_identical_to_series_block(self, seed):
        # the score panel and the kernel's block take the same arithmetic, numpy's
        # powers of s2 included, so the finite-difference checks of the panel's
        # scores and Hessians cover the numbers the kernel runs on
        for cell in range(len(default_study_grid("desk"))):
            ys = standardize_series(_desk_case(cell, seed)[1])
            panel = null_score_panel(ys)
            scores, curv, _ = _series_block(ys[None])
            np.testing.assert_array_equal(panel.scores, scores[:, 0])
            s0, sv, hs = panel.scores[:, 0], panel.scores[:, 2], panel.hessians
            np.testing.assert_array_equal(
                np.column_stack(
                    [hs[:, 0, 0] + s0 * s0, hs[:, 0, 2] + s0 * sv, hs[:, 2, 2] + sv * sv]
                ),
                curv[:, 0],
            )

    @pytest.mark.parametrize("phi", [0.4, 1.0])
    def test_paths_bit_identical_to_scalar_simulation(self, phi):
        theta, T, B, seed = (0.2, phi, 0.8), 60, 7, 31
        paths = _bootstrap_paths(theta, T, B, seed, y1_fallback=-0.5)
        for b in range(B):
            rng = substream(seed, DOMAIN_BOOTSTRAP, b)
            np.testing.assert_array_equal(
                paths[:, b], chp_oracle.simulate_ar1(*theta, T, rng, y1_fallback=-0.5)
            )

    @pytest.mark.parametrize("cell", [0, 10, 20, 30])  # T = 100 and 200, phi = 0.1 and 0.9
    def test_criteria_bit_identical_across_chunk_sizes(self, cell):
        cfg, y, seed = _desk_case(cell, 3)
        B, T = 13, cfg.T  # a prime: chunks of 3 end short, as does the production pass over B + 1 rows
        ys = standardize_series(y)
        panel = null_score_panel(ys)
        H, rhos = sample_nuisance_draws(cfg.chp_draws, substream(seed, DOMAIN_NUISANCE))
        paths = _bootstrap_paths(panel.theta0_hat, T, B, seed, ys[0])
        Y = _standardize_rows(np.ascontiguousarray(paths.T))

        def in_chunks(chunk):
            parts = [
                _criteria_kernel(*_series_block(Y[b0 : b0 + chunk]), T, H, rhos)
                for b0 in range(0, B, chunk)
            ]
            return tuple(np.concatenate([p[i] for p in parts]) for i in (0, 1))

        whole = in_chunks(B)
        for chunk in (1, 3):
            for got, want in zip(in_chunks(chunk), whole):
                np.testing.assert_array_equal(got, want)
        blocks = row_blocks(B + 1, (T - 1) * cfg.chp_draws)
        assert blocks[-1].stop - blocks[-1].start < blocks[0].stop
        # the production pass: the data is row 0 above the B samples
        sup, exp = _row_statistics(np.vstack([ys, Y]), H, rhos)
        np.testing.assert_array_equal(sup[1:], whole[0].max(axis=1))
        np.testing.assert_array_equal(exp[1:], whole[1].mean(axis=1))
        # the single-series views are row 0 too
        assert sup[0] == sup_ts(ys, cfg.chp_draws, substream(seed, DOMAIN_NUISANCE))
        assert exp[0] == exp_ts(ys, cfg.chp_draws, substream(seed, DOMAIN_NUISANCE))
        report = chp_bootstrap_test(y, B=B, draws=cfg.chp_draws, master_seed=seed)
        assert (report.supTS, report.expTS) == (sup[0], exp[0])


class TestTwoLevelPass:
    """The bootstrap pass sets up and finishes its rows per chunk of kernel
    blocks; no row may depend on either level of blocks."""

    @pytest.mark.parametrize("rows_per_block, B", [(1, 12), (3, 28)])  # B + 1 = 13 and 29: primes
    @pytest.mark.parametrize("cell", [0, 10])  # T = 100 and 200
    def test_bit_identical_to_per_row_kernel(self, monkeypatch, cell, rows_per_block, B):
        cfg, y, seed = _desk_case(cell, 4)
        T, d = cfg.T, cfg.chp_draws
        monkeypatch.setattr(moments, "BLOCK_ELEMENTS", rows_per_block * (T - 1) * d)
        chunks = _row_chunks(B + 1, T, d)
        blocks = [block for chunk in chunks for block in chunk]
        assert {block.stop - block.start for block in blocks[:-1]} == {rows_per_block}
        assert len(chunks[0]) > 1
        assert chunks[-1][-1].stop - chunks[-1][0].start < chunks[0][-1].stop  # ends short
        ys = standardize_series(y)
        H, rhos = sample_nuisance_draws(d, substream(seed, DOMAIN_NUISANCE))
        paths = _bootstrap_paths(null_score_panel(ys).theta0_hat, T, B, seed, ys[0])
        Y = np.vstack([ys, _standardize_rows(np.ascontiguousarray(paths.T))])
        sup, exp = _row_statistics(Y, H, rhos)
        for i in range(B + 1):
            sup_c, psi = _criteria_kernel(*_series_block(Y[i : i + 1]), T, H, rhos)
            assert sup[i] == sup_c.max(axis=1)[0]
            assert exp[i] == psi.mean(axis=1)[0]

    def test_traced_peak_does_not_grow_with_rows(self):
        # one chunk's set-up and criteria at a time: from B = 200 to B = 1000
        # the traced peak may grow by no more than the input and the outputs
        cfg, _, seed = _desk_case(10, 0)
        assert cfg.T == 200
        H, rhos = sample_nuisance_draws(cfg.chp_draws, substream(seed, DOMAIN_NUISANCE))
        rng = substream(seed, 99)
        peak, held = {}, {}
        for B in (200, 1000):
            Y = _standardize_rows(rng.standard_normal((B + 1, cfg.T)))
            _row_statistics(Y[:2], H, rhos)  # the first call imports scipy.special
            tracemalloc.start()
            try:
                sup, exp = _row_statistics(Y, H, rhos)
                peak[B] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held[B] = Y.nbytes + sup.nbytes + exp.nbytes
        assert peak[1000] - peak[200] <= held[1000] - held[200]


class TestRankDeficientPanel:
    """Score columns with a duplicated column span the same space as the
    columns without it, so projections and criteria must not change."""

    @staticmethod
    def _bases(caplog):
        y = standardize_series(_ar1_path(0.3, 80, seed=20))
        scores, curv, basis = _series_block(y[None])
        X = scores.transpose(1, 0, 2)
        with caplog.at_level(logging.WARNING, logger="regimetest.chp"):
            duplicated = _score_basis(np.concatenate([X, X[..., :1]], axis=-1))
        assert "dropped columns [3]" in caplog.text
        return y, scores, curv, basis, duplicated

    def test_duplicated_column_leaves_criteria_unchanged(self, caplog):
        y, scores, curv, basis, duplicated = self._bases(caplog)
        H, rhos = sample_nuisance_draws(60, substream(6, 6))
        got = _criteria_kernel(scores, curv, duplicated, len(y), H, rhos)
        want = _criteria_kernel(scores, curv, basis, len(y), H, rhos)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)

    def test_duplicated_column_leaves_residuals_unchanged(self, caplog):
        y, scores, _, _, duplicated = self._bases(caplog)
        path = substream(7, 7).standard_normal(scores.shape[0])
        Q = duplicated[0]
        np.testing.assert_allclose(
            path - Q @ (Q.T @ path), projection_residuals(path, y), rtol=0.0, atol=1e-12,
        )
