from __future__ import annotations

import logging
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import chp_oracle
import regimetest.chp as chp
import regimetest.moments as moments
from probe import dispatched_cpu_features, run_probe
from regimetest._seeding import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_CELL,
    DOMAIN_DGP,
    DOMAIN_NUISANCE,
    derive_seed,
    substream,
)
from regimetest.chp import (
    RHO_BOUND,
    _ar1_fit,
    _bootstrap_p,
    _bootstrap_paths,
    _bootstrap_statistics,
    _curvature_hessian,
    _draw_matrices,
    _mu2_block,
    _psi_weight,
    _row_chunks,
    _row_statistics,
    _score_basis,
    _series_block,
    _settled,
    _standardize_rows,
    chp_bootstrap_test,
    sample_nuisance_draws,
)
from regimetest.harness import _study_rep, default_study_grid
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


def _scores_at(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    c, phi, s2 = theta
    eps = y[1:] - c - phi * y[:-1]
    return np.column_stack([eps / s2, eps * y[:-1] / s2, -0.5 / s2 + eps**2 / (2 * s2**2)])


def _theta_hat(y: np.ndarray) -> np.ndarray:
    """(c, phi, s2) of the kernel's AR(1) fit to one series."""
    c, phi, s2, _ = _ar1_fit(y[None])
    return np.array([c[0, 0], phi[0, 0], s2[0, 0]])


def _null_fit(y: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The standardized series and the AR(1) fit to it that
    ``chp_bootstrap_test`` draws its bootstrap paths from."""
    ys = _standardize_rows(np.asarray(y, dtype=float)[None])
    return ys[0], tuple(float(v) for v in _theta_hat(ys[0]))


class TestNullScorePanel:
    """The scores and curvature the kernel's ``_series_block`` computes for
    one series, against finite differences at the AR(1) fit."""

    def test_scores_match_finite_differences(self):
        y = _ar1_path(0.4, 80, seed=1)
        scores = _series_block(y[None])[0][:, 0]
        theta = _theta_hat(y)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            numeric = (_loglik_terms(y, up) - _loglik_terms(y, down)) / (2 * h)
            rel = np.abs(numeric - scores[:, j]) / np.maximum(np.abs(scores[:, j]), 1e-3)
            assert rel.max() < 1e-6

    def test_hessians_match_score_differences(self):
        # the entries (0, 0), (0, 2) and (2, 2), the ones a draw with h[1] = 0 reads
        y = _ar1_path(0.3, 60, seed=2)
        theta = _theta_hat(y)
        _, _, s2, eps = _ar1_fit(y[None])
        h00, h02, h22 = (np.broadcast_to(h, eps.shape)[0] for h in _curvature_hessian(eps, s2))
        for j, column in ((0, (h00, h02)), (2, (h02, h22))):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            numeric = (_scores_at(y, up) - _scores_at(y, down)) / (2 * h)
            for i, want in zip((0, 2), column):
                rel = np.abs(numeric[:, i] - want) / np.maximum(np.abs(want), 1.0)
                assert rel.max() < 1e-5

    def test_score_sums_vanish_at_fit(self):
        y = _ar1_path(0.5, 120, seed=3)
        scores = _series_block(y[None])[0][:, 0]
        total = scores.sum(axis=0)
        scale = np.abs(scores).sum(axis=0)
        assert np.all(np.abs(total) <= 1e-8 * scale)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            _series_block(np.arange(5.0)[None])


class TestGammaStar:
    """Gamma and its mu2 path for one draw: a one-row, one-draw block of the
    kernel on the series as given."""

    def test_variance_direction_identity(self):
        # with the 1/n variance divisor the mean-direction expansion term sums
        # to zero exactly at the fitted parameters
        y = _ar1_path(0.4, 100, seed=5)
        scores, curv, _ = _series_block(y[None])
        G, C = _draw_matrices(np.array([[1.0, 0.0, 0.0]]))
        mu2 = _mu2_block(scores, curv, G, C, np.array([0.0]))[:, 0, 0]
        assert abs(mu2.sum() / np.sqrt(len(y))) < 1e-8

    def test_zero_rho_has_no_cross_term(self):
        y = _ar1_path(0.1, 50, seed=6)
        ref_scores, ref_hessians, _ = chp_oracle.score_panel(y)
        h = np.array([0.6, 0.0, 0.8])
        scores, curv, _ = _series_block(y[None])
        mu2 = _mu2_block(scores, curv, *_draw_matrices(h[None]), np.array([0.0]))[:, 0, 0]
        g = ref_scores @ h
        quad = np.einsum("tij,i,j->t", ref_hessians, h, h)
        np.testing.assert_allclose(mu2, 0.5 * (quad + g**2), rtol=1e-12)

    def test_accumulator_equals_double_sum(self):
        y = _ar1_path(0.3, 50, seed=7)
        ref_scores, ref_hessians, _ = chp_oracle.score_panel(y)
        h = np.array([np.cos(0.7), 0.0, np.sin(0.7)])
        rho = 0.55
        scores, curv, _ = _series_block(y[None])
        mu2 = _mu2_block(scores, curv, *_draw_matrices(h[None]), np.array([rho]))[:, 0, 0]
        g = ref_scores @ h
        quad = np.einsum("tij,i,j->t", ref_hessians, h, h)
        n = len(g)
        brute = np.empty(n)
        for t in range(n):
            cross = sum(rho ** (t - s) * g[t] * g[s] for s in range(t))
            brute[t] = 0.5 * (quad[t] + g[t] ** 2 + 2.0 * cross)
        np.testing.assert_allclose(mu2, brute, rtol=1e-10)

    def test_sampled_draws_meet_the_contract(self):
        # unit directions with h[1] = 0, which the kernel's two-column
        # products assume, and rho within its bound
        H, rhos = sample_nuisance_draws(500, substream(2, 2))
        assert H.shape == (500, 3) and rhos.shape == (500,)
        np.testing.assert_allclose(np.linalg.norm(H, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert (H[:, 1] == 0.0).all()
        assert (np.abs(rhos) <= RHO_BOUND).all()


class TestProjectionResiduals:
    def test_orthogonal_path_is_unchanged(self):
        y = _ar1_path(0.2, 60, seed=8)
        rng = substream(1, 1)
        raw = rng.standard_normal(len(y) - 1)
        Q = _series_block(y[None])[2][0]
        resid = raw - Q @ (Q.T @ raw)
        # residuals are themselves orthogonal: projecting again changes nothing
        np.testing.assert_allclose(resid - Q @ (Q.T @ resid), resid, atol=1e-10)

    def test_score_combination_projects_to_zero(self):
        y = _ar1_path(0.2, 60, seed=9)
        scores, _, Q = _series_block(y[None])
        path = scores[:, 0] @ np.array([1.5, -0.3, 2.0])
        Q = Q[0]
        resid = path - Q @ (Q.T @ path)
        assert np.abs(resid).max() < 1e-8 * np.abs(path).max()

    def test_orthogonality_to_scores(self):
        y = _ar1_path(0.6, 90, seed=10)
        scores, curv, Q = _series_block(y[None])
        G, C = _draw_matrices(np.array([[0.0, 0.0, 1.0]]))
        mu2 = _mu2_block(scores, curv, G, C, np.array([0.3]))[:, 0, 0]
        resid = mu2 - Q[0] @ (Q[0].T @ mu2)
        inner = scores[:, 0].T @ resid
        scale = np.abs(scores[:, 0]).sum(axis=0) * np.abs(resid).max()
        assert np.all(np.abs(inner) <= 1e-8 * np.maximum(scale, 1.0))


class TestCriteria:
    def test_degenerate_direction_contributes_nothing(self):
        # the mean-direction draw at rho = 0 collapses onto the scores:
        # zero residual variation means criterion 0 and weight 1
        y = _ar1_path(0.4, 100, seed=11)
        H = np.array([[1.0, 0.0, 0.0]])
        sup_c, psi = chp_oracle.criteria_kernel(*_series_block(y[None]), len(y), H, np.array([0.0]))
        assert sup_c[0, 0] == 0.0
        assert psi[0, 0] == 1.0

    def test_sup_monotone_in_draw_set(self):
        y = _ar1_path(0.3, 80, seed=12)
        H, rhos = sample_nuisance_draws(100, substream(3, 3))
        sup_all, _ = chp_oracle.criteria_kernel(*_series_block(y[None]), len(y), H, rhos)
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
        a, b = _standardize_rows(y[None]), _standardize_rows(3.0 * y[None] - 7.0)
        sup_a, exp_a = _row_statistics(a, *sample_nuisance_draws(64, substream(5, 5)))
        sup_b, exp_b = _row_statistics(b, *sample_nuisance_draws(64, substream(5, 5)))
        np.testing.assert_allclose(sup_a, sup_b, rtol=1e-8)
        np.testing.assert_allclose(exp_a, exp_b, rtol=1e-8)

    def test_bootstrap_report_is_location_scale_invariant(self):
        y = _ar1_path(0.2, 120, seed=19)
        a = chp_bootstrap_test(y, B=30, draws=30, master_seed=2)
        b = chp_bootstrap_test(0.5 * y + 11.0, B=30, draws=30, master_seed=2)
        assert a.supTS == pytest.approx(b.supTS, rel=1e-8)
        assert a.expTS == pytest.approx(b.expTS, rel=1e-8)
        assert a.bootstrap_p_sup == b.bootstrap_p_sup
        assert a.bootstrap_p_exp == b.bootstrap_p_exp


class TestPsiWeight:
    """The weight against scipy's erfcx and against 50-digit values, on grids
    over [-1e6, 40] that hold 0, 1, 38 and the last g below overflow."""

    @staticmethod
    def _scipy_weight(g: np.ndarray) -> np.ndarray:
        from scipy.special import erfcx

        with np.errstate(over="ignore"):
            return np.sqrt(np.pi / 2.0) * erfcx(-(g - 1.0) / np.sqrt(2.0))

    @classmethod
    def _grid(cls, n: int) -> tuple[np.ndarray, float]:
        """A grid of about 2.2 n points and the largest double at which
        scipy's weight is finite, found by bisection."""
        last, first_inf = 38.0, 40.0
        while np.nextafter(last, first_inf) < first_inf:
            mid = 0.5 * (last + first_inf)
            if np.isfinite(cls._scipy_weight(np.array([mid]))[0]):
                last = mid
            else:
                first_inf = mid
        g = np.r_[np.linspace(-1e6, 40.0, n), np.linspace(-40.0, 40.0, n),
                  -np.geomspace(1e-9, 1e6, n // 10), np.geomspace(1e-9, 40.0, n // 10),
                  0.0, 1.0, 38.0, np.nextafter(last, -np.inf), last, first_inf]
        return np.unique(g), last

    @staticmethod
    def _switch_to_inf_agrees(a: np.ndarray, b: np.ndarray, g: np.ndarray, last: float) -> bool:
        """a and b are finite at the same points, but for the last ulp of g
        below overflow and the one above it."""
        return set(g[np.isfinite(a) != np.isfinite(b)]) <= {last, np.nextafter(last, np.inf)}

    def test_agrees_with_scipy_erfcx(self):
        g, last = self._grid(200_001)
        new, old = _psi_weight(g), self._scipy_weight(g)
        assert not np.isnan(new).any()
        assert self._switch_to_inf_agrees(new, old, g, last)
        both = np.isfinite(new) & np.isfinite(old)
        # right of g = 1 scipy rounds u = -(g - 1) / sqrt(2) and u * u before
        # its exp(u^2), errors that u^2 = (g - 1)^2 / 2 multiplies; the weight
        # forms (g - 1)^2 / 2 exactly
        u2 = np.maximum(g[both] - 1.0, 0.0) ** 2 / 2.0
        ulps = np.abs(new[both] - old[both]) / np.spacing(old[both])
        assert np.all(ulps <= 10.0 + 4.0 * u2)

    def test_no_less_accurate_than_scipy(self):
        mpmath = pytest.importorskip("mpmath")
        g, last = self._grid(2001)
        with mpmath.workdps(50):
            exact = np.array([
                float(mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(x * x / 2) * mpmath.ncdf(x))
                for x in (mpmath.mpf(v) - 1 for v in g)
            ])
        new, old = _psi_weight(g), self._scipy_weight(g)
        assert self._switch_to_inf_agrees(new, exact, g, last)
        finite = np.isfinite(new) & np.isfinite(exact) & np.isfinite(old)
        err_new, err_old = (np.abs(w[finite] - exact[finite]) for w in (new, old))
        assert np.all(err_new <= 6 * np.spacing(exact[finite]))  # the docstring's bound
        assert (err_new / exact[finite]).max() <= (err_old / exact[finite]).max()

    def test_bytes_do_not_depend_on_the_cpu(self):
        # built from ufuncs that round the same under every SIMD dispatch
        features = dispatched_cpu_features()
        if not features:
            pytest.skip("numpy dispatches no CPU feature here")
        code = ("import hashlib, numpy as np; from regimetest.chp import _psi_weight; "
                "g = np.r_[np.linspace(-1e6, 40.0, 100_001), np.linspace(-40.0, 40.0, 100_001)]; "
                "print(hashlib.sha256(_psi_weight(g).tobytes()).hexdigest())")
        assert run_probe(code) == run_probe(code, NPY_DISABLE_CPU_FEATURES=" ".join(features))


class TestPublicStatistics:
    """supTS and expTS of one series as given: a one-row pass of the kernel."""

    def test_sup_requires_draws(self):
        with pytest.raises(ValueError):
            sample_nuisance_draws(0, substream(0, 0))

    def test_sup_and_exp_are_deterministic_given_stream(self):
        y = _ar1_path(0.1, 60, seed=15)
        first = _row_statistics(y[None], *sample_nuisance_draws(50, substream(8, 8)))
        second = _row_statistics(y[None], *sample_nuisance_draws(50, substream(8, 8)))
        assert (first[0][0], first[1][0]) == (second[0][0], second[1][0])

    def test_sup_nonnegative_exp_positive(self):
        y = _ar1_path(0.7, 100, seed=16)
        sup, exp = _row_statistics(y[None], *sample_nuisance_draws(40, substream(9, 9)))
        assert sup[0] >= 0.0
        assert exp[0] > 0.0


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
            ys, theta = _null_fit(y)
            H, rhos = sample_nuisance_draws(cfg.chp_draws, substream(rep_seed, DOMAIN_NUISANCE))
            paths = _bootstrap_paths(theta, len(ys), ORACLE_B, rep_seed, ys[0])
            got_sup, got_exp = _row_statistics(
                _standardize_rows(np.ascontiguousarray(paths.T)), H, rhos
            )
            for got, want in ((got_sup, sup_b), (got_exp, exp_b)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    def test_explosive_series_takes_the_unit_root_fallback(self):
        # the standardized fit has phi about 1.078, so the bootstrap paths start
        # from the data's first value rather than a stationary draw
        y = 1.08 ** np.arange(60) + substream(3, 9).standard_normal(60)
        _, theta = _null_fit(y)
        assert theta[1] >= 1.0 - 1e-8
        draws, seed = 40, 11
        rep = chp_bootstrap_test(y, B=ORACLE_B, draws=draws, master_seed=seed)
        (sup0, exp0), p_values, _ = chp_oracle.bootstrap_test(y, ORACLE_B, draws, seed)
        assert (rep.bootstrap_p_sup, rep.bootstrap_p_exp) == p_values
        assert rep.supTS == pytest.approx(sup0, rel=1e-12, abs=0.0)
        assert rep.expTS == pytest.approx(exp0, rel=1e-12, abs=0.0)

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
        ys, theta = _null_fit(y)
        H, rhos = sample_nuisance_draws(cfg.chp_draws, substream(seed, DOMAIN_NUISANCE))
        paths = _bootstrap_paths(theta, T, B, seed, ys[0])
        Y = _standardize_rows(np.ascontiguousarray(paths.T))

        def in_chunks(chunk):
            parts = [
                chp_oracle.criteria_kernel(*_series_block(Y[b0 : b0 + chunk]), T, H, rhos)
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
        # the data alone, in a one-row pass, is row 0 too
        sup_data, exp_data = _row_statistics(ys[None], H, rhos)
        assert (sup[0], exp[0]) == (sup_data[0], exp_data[0])
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
        ys, theta = _null_fit(y)
        H, rhos = sample_nuisance_draws(d, substream(seed, DOMAIN_NUISANCE))
        paths = _bootstrap_paths(theta, T, B, seed, ys[0])
        Y = np.vstack([ys, _standardize_rows(np.ascontiguousarray(paths.T))])
        sup, exp = _row_statistics(Y, H, rhos)
        for i in range(B + 1):
            sup_c, psi = chp_oracle.criteria_kernel(*_series_block(Y[i : i + 1]), T, H, rhos)
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
            # an untraced first call, so that no one-time set-up inflates peak[200]
            _row_statistics(Y[:2], H, rhos)
            tracemalloc.start()
            try:
                sup, exp = _row_statistics(Y, H, rhos)
                peak[B] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held[B] = Y.nbytes + sup.nbytes + exp.nbytes
        assert peak[1000] - peak[200] <= held[1000] - held[200]


class TestStudyStop:
    """A study replication stops its bootstrap pass at the first row chunk
    where both decisions p <= alpha are final."""

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("B", [19, 199, 200, 499])
    def test_settled_exactly_when_the_final_p_exceeds_alpha(self, B, alpha):
        for n in range(B + 1):
            # n bootstrap statistics at or above the data's, the rest below it
            stat = np.concatenate([[0.5], np.full(n, 0.5), np.zeros(B - n)])
            settled = _settled(stat, B, alpha)
            # the study's rule on the full test's p-value, and in exact arithmetic
            assert settled == (not (1 + n) / (B + 1) <= alpha)
            assert settled == (Fraction(1 + n, B + 1) > Fraction(alpha))

    def test_p_equal_to_alpha_still_rejects(self):
        stat = np.concatenate([[0.5], np.ones(9), np.zeros(190)])
        assert _bootstrap_p(stat, 199) == 10 / 200 == 0.05
        assert not _settled(stat, 199, 0.05)

    def test_p_over_the_first_rows_never_exceeds_the_final_p(self):
        # ties with the data count as exceedances in every prefix
        stat = np.round(substream(4, 4).standard_normal(201), 1)
        final = _bootstrap_p(stat, 200)
        assert all(_bootstrap_p(stat[:m], 200) <= final for m in range(1, 202))

    def test_decisions_equal_the_full_test(self):
        rows = []
        # null and switching cells at T = 100 and 200, phi = 0.1 and 0.9
        for cell in (0, 10, 20, 30, 8, 18, 24, 37):
            cfg = replace(default_study_grid("desk")[cell], methods=("supTS", "expTS"))
            for rep in (0, 1):
                y = simulate_msar(cfg.dgp, cfg.T, substream(cfg.master_seed, DOMAIN_DGP, cell, rep))
                seed = derive_seed(cfg.master_seed, DOMAIN_CELL, cell, rep)
                full = chp_bootstrap_test(y, B=cfg.B, draws=cfg.chp_draws, master_seed=seed)
                for alpha in (0.05, 0.1):
                    decisions = _study_rep((replace(cfg, alpha=alpha), cell, rep))
                    assert decisions == {
                        "supTS": full.bootstrap_p_sup <= alpha,
                        "expTS": full.bootstrap_p_exp <= alpha,
                    }
                sup, exp = _bootstrap_statistics(y, cfg.B, cfg.chp_draws, seed, cfg.alpha)
                assert (sup[0], exp[0]) == (full.supTS, full.expTS)
                reject = full.bootstrap_p_sup <= cfg.alpha or full.bootstrap_p_exp <= cfg.alpha
                rows.append((len(sup), reject))
                if reject:
                    assert len(sup) == cfg.B + 1
        assert any(evaluated < cfg.B + 1 for evaluated, _ in rows)
        assert any(reject for _, reject in rows)

    def test_stop_leaves_the_remaining_rows_unevaluated(self, monkeypatch):
        cfg, y, seed = _desk_case(0, 0)
        stops = [chunk[-1].stop for chunk in _row_chunks(cfg.B + 1, cfg.T, cfg.chp_draws)]
        sup, _ = _bootstrap_statistics(y, cfg.B, cfg.chp_draws, seed, cfg.alpha)
        assert len(sup) in stops[:-1]  # settled before the last chunk
        full_sup, _ = _bootstrap_statistics(y, cfg.B, cfg.chp_draws, seed)
        np.testing.assert_array_equal(sup, full_sup[: len(sup)])
        # a failure confined to the chunks after the stop no longer fails the replication
        series_block = chp._series_block
        calls = []

        def failing_after_the_stop(Y):
            calls.append(len(Y))
            if sum(calls) > len(sup):
                raise ValueError("degenerate regression")
            return series_block(Y)

        monkeypatch.setattr(chp, "_series_block", failing_after_the_stop)
        _bootstrap_statistics(y, cfg.B, cfg.chp_draws, seed, cfg.alpha)
        assert sum(calls) == len(sup)
        calls.clear()
        with pytest.raises(ValueError, match="degenerate"):
            _bootstrap_statistics(y, cfg.B, cfg.chp_draws, seed)


class TestRankDeficientPanel:
    """Score columns with a duplicated column span the same space as the
    columns without it, so projections and criteria must not change."""

    @staticmethod
    def _bases(caplog):
        y = _standardize_rows(_ar1_path(0.3, 80, seed=20)[None])[0]
        scores, curv, basis = _series_block(y[None])
        X = scores.transpose(1, 0, 2)
        with caplog.at_level(logging.WARNING, logger="regimetest.chp"):
            duplicated = _score_basis(np.concatenate([X, X[..., :1]], axis=-1))
        assert "dropped columns [3]" in caplog.text
        return y, scores, curv, basis, duplicated

    def test_duplicated_column_leaves_criteria_unchanged(self, caplog):
        y, scores, curv, basis, duplicated = self._bases(caplog)
        H, rhos = sample_nuisance_draws(60, substream(6, 6))
        got = chp_oracle.criteria_kernel(scores, curv, duplicated, len(y), H, rhos)
        want = chp_oracle.criteria_kernel(scores, curv, basis, len(y), H, rhos)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0.0)

    def test_duplicated_column_leaves_residuals_unchanged(self, caplog):
        _, scores, _, basis, duplicated = self._bases(caplog)
        path = substream(7, 7).standard_normal(scores.shape[0])
        Q, P = duplicated[0], basis[0]
        np.testing.assert_allclose(
            path - Q @ (Q.T @ path), path - P @ (P.T @ path), rtol=0.0, atol=1e-12,
        )
