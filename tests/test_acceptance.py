"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single pass/fail line (run with ``pytest -s`` to see them all).
Criteria are ordered; heavy simulation settings follow the desk-scale
profile.  Set ``REGIMETEST_TEST_WORKERS`` to parallelize the heavy loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TEST_WORKERS
from regimetest._seeding import derive_seed, substream
from regimetest.chp import (
    NuisanceDraw,
    gamma_star,
    null_score_panel,
    sample_nuisance_draws,
)
from regimetest.harness import (
    ExperimentConfig,
    _parallel_map,
    run_size_power_study,
)
from regimetest.linearity import build_grid, linearity_tests, lmc_test, mmc_test, ols_ar_fit
from regimetest.mctest import LogisticCoeffTable, fit_logistic_cdf, logistic_cdf, mc_mixture_test
from regimetest.moments import quartet_matrix
from regimetest.msar import (
    MSARSpec,
    RegimeParams,
    TransitionMatrix,
    min_root_modulus,
    mixture_moments,
)


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _null_ar1(phi: float) -> MSARSpec:
    return MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (phi,))


def _switching_ar1(dmu: float, dsig: float, p11: float, p22: float, phi: float) -> MSARSpec:
    return MSARSpec(RegimeParams(0.0, dmu, 1.0, 1.0 + dsig), TransitionMatrix(p11, p22), (phi,))


def _mc_exactness_trial(seed: int) -> float:
    z = substream(31_101, 0, seed).standard_normal(100)
    return mc_mixture_test(z, N=100, method="min", master_seed=derive_seed(31_101, 1, seed)).p_value


def test_criterion_01_core_mc_test_exactness():
    trials = 10_000
    pvals = _parallel_map(_mc_exactness_trial, list(range(trials)), TEST_WORKERS)
    rate = float(np.mean([p <= 0.05 for p in pvals]))
    check(1, 0.0435 <= rate <= 0.0565,
          f"core MC test rejection rate {100 * rate:.2f}% over 10^4 trials (target 5% +/- 0.65pp)")


def test_criterion_02_null_size_table():
    cfg = ExperimentConfig(
        dgp=_null_ar1(0.1), T=100, replications=500, N=100,
        methods=("LMC_min", "LMC_prod", "MMC_min", "MMC_prod"),
        master_seed=202, label="null",
    )
    rows = {r.method: 100 * r.reject_rate for r in run_size_power_study([cfg], TEST_WORKERS)}
    ok = (
        abs(rows["LMC_min"] - 5.3) <= 2.5
        and abs(rows["LMC_prod"] - 5.2) <= 2.5
        and rows["MMC_min"] <= 5.0
        and rows["MMC_prod"] <= 5.0
    )
    check(2, ok,
          "null rejection rates (%): "
          f"LMC_min {rows['LMC_min']:.1f} (ref 5.3), LMC_prod {rows['LMC_prod']:.1f} (ref 5.2), "
          f"MMC_min {rows['MMC_min']:.1f}, MMC_prod {rows['MMC_prod']:.1f} (both <= 5)")


def test_criterion_03_power_spot_checks():
    cells = [
        (ExperimentConfig(dgp=_switching_ar1(0.0, 1.0, 0.9, 0.9, 0.1), T=100,
                          replications=500, N=100, methods=("LMC_min",),
                          master_seed=303, label="var-switch"), 39.4),
        (ExperimentConfig(dgp=_switching_ar1(2.0, 1.0, 0.9, 0.5, 0.1), T=200,
                          replications=500, N=100, methods=("LMC_min",),
                          master_seed=304, label="mean-var-switch"), 98.8),
    ]
    rows = run_size_power_study([cfg for cfg, _ in cells], TEST_WORKERS)
    got = [100 * r.reject_rate for r in rows]
    ok = all(abs(g - ref) <= 6.0 for g, (_, ref) in zip(got, cells))
    check(3, ok,
          f"LMC_min power {got[0]:.1f}% (ref 39.4 +/- 6) and {got[1]:.1f}% (ref 98.8 +/- 6)")


def test_criterion_04_persistent_ar_power():
    cfg = ExperimentConfig(
        dgp=_switching_ar1(0.0, 1.0, 0.9, 0.9, 0.9), T=200, replications=500,
        N=100, methods=("LMC_prod",), master_seed=404, label="phi09",
    )
    row = run_size_power_study([cfg], TEST_WORKERS)[0]
    rate = 100 * row.reject_rate
    check(4, abs(rate - 68.1) <= 6.0, f"LMC_prod power {rate:.1f}% (ref 68.1 +/- 6)")


def test_criterion_05_coefficient_table_regeneration():
    T, draws = 100, 1_000_000
    rng = substream(505, T)
    Q = np.empty((draws, 4))
    step = 50_000
    for start in range(0, draws, step):
        Q[start : start + step] = quartet_matrix(rng.standard_normal((step, T)))
    shipped = LogisticCoeffTable.default()
    grid = np.arange(1, 1000) / 1000.0
    worst = {}
    for j, stat in enumerate(("M", "V", "S", "K")):
        fitted = fit_logistic_cdf(Q[:, j], statistic=stat, T=T)
        xq = np.quantile(Q[:, j], grid)
        gap = np.abs(logistic_cdf(xq, fitted) - logistic_cdf(xq, shipped.lookup(stat, T)))
        worst[stat] = float(gap.max())
    ok = all(v < 0.02 for v in worst.values())
    check(5, ok,
          "sup-distance of refitted vs shipped CDFs at T=100: "
          + ", ".join(f"{s}={v:.4f}" for s, v in worst.items()) + " (all < 0.02)")


def test_criterion_06_output_growth_deterministic_pieces(hamilton_growth, extended_growth):
    fit_h = ols_ar_fit(hamilton_growth, 4)
    fit_e = ols_ar_fit(extended_growth, 4)
    root_h = min_root_modulus(fit_h.phi)
    root_e = min_root_modulus(fit_e.phi)
    ok = (
        np.allclose(np.round(fit_h.phi, 2), [0.31, 0.13, -0.12, -0.09])
        and abs(root_h - 1.50) <= 0.01
        and np.allclose(np.round(fit_e.phi, 2), [0.34, 0.12, -0.08, -0.07])
        and abs(root_e - 1.59) <= 0.01
    )
    check(6, ok,
          f"AR(4) fits: 1951-1984 phi={np.round(fit_h.phi, 2).tolist()} |z|={root_h:.3f}; "
          f"1951-2010 phi={np.round(fit_e.phi, 2).tolist()} |z|={root_e:.3f}")


def test_criterion_07_output_growth_stochastic_pieces(hamilton_growth, extended_growth):
    seeds = list(range(701, 711))
    grid = build_grid(ols_ar_fit(hamilton_growth, 4), points_per_dim=9)
    ham_lmc, ham_mmc, ext_lmc = [], [], []
    for seed in seeds:
        lmc = lmc_test(hamilton_growth, 4, N=100, method="min", master_seed=seed)
        mmc = mmc_test(hamilton_growth, 4, N=100, method="min", grid=grid, master_seed=seed)
        ham_lmc.append(lmc.p_value)
        ham_mmc.append(mmc.p_value)
        ext_lmc.append(lmc_test(extended_growth, 4, N=100, method="min", master_seed=seed).p_value)
    ok = (
        all(p > 0.10 for p in ham_lmc)
        and all(m >= l for m, l in zip(ham_mmc, ham_lmc))
        and all(p <= 0.05 for p in ext_lmc)
    )
    check(7, ok,
          f"1951-1984: LMC p in [{min(ham_lmc):.2f}, {max(ham_lmc):.2f}] (all > 0.10), "
          f"MMC >= LMC for all 10 seeds (MMC in [{min(ham_mmc):.2f}, {max(ham_mmc):.2f}]); "
          f"1951-2010: LMC p in [{min(ext_lmc):.2f}, {max(ext_lmc):.2f}] (all <= 0.05)")


def test_criterion_08_mixture_moment_oracle():
    rng = np.random.default_rng(808)
    draws = 1_000_000
    worst = 0.0
    for point in range(20):
        pi1 = rng.uniform(0.1, 0.9)
        mu1 = rng.uniform(-2.0, 2.0)
        dmu = rng.uniform(0.0, 3.0)
        s1 = rng.uniform(0.5, 2.0)
        dsig = rng.uniform(0.0, 2.0)
        regimes = RegimeParams(mu1, mu1 + dmu, s1, s1 + dsig)
        mm = mixture_moments(regimes, pi1)

        ones = rng.uniform(size=draws) < pi1
        x = np.where(ones, regimes.mu1 + regimes.sigma1 * rng.standard_normal(draws),
                     regimes.mu2 + regimes.sigma2 * rng.standard_normal(draws))

        def skew(v):
            d = v - v.mean()
            return (d**3).mean() / (d**2).mean() ** 1.5

        def kurt(v):
            d = v - v.mean()
            return (d**4).mean() / (d**2).mean() ** 2 - 3.0

        batches = x.reshape(100, -1)
        for target, stat in ((mm.mean, np.mean), (mm.variance, lambda v: v.var()),
                             (mm.skewness, skew), (mm.excess_kurtosis, kurt)):
            vals = np.array([stat(b) for b in batches])
            se = vals.std(ddof=1) / 10.0
            dev = abs(stat(x) - target) / se
            worst = max(worst, dev)
        assert worst <= 3.0, f"moment mismatch at point {point}: {worst:.2f} se"

        if point == 0:
            # the dimensionally inconsistent reading of the skewness formula
            # must be far outside the sampling error of the simulated moment
            pi2 = 1 - pi1
            wrong_num = pi1 * pi2 * (regimes.mu1 - regimes.mu2) * (
                3 * (regimes.sigma1**2 - regimes.sigma2**2)
                + (1 - 2 * pi1) * (regimes.mu2 - regimes.mu1**2) ** 2
            )
            wrong = wrong_num / mm.variance**1.5
            vals = np.array([skew(b) for b in batches])
            se = vals.std(ddof=1) / 10.0
            assert abs(skew(x) - wrong) / se > 10.0
    check(8, worst <= 3.0,
          f"closed-form moments match sampled moments on 20 random points "
          f"(worst deviation {worst:.2f} Monte Carlo se, typo reading rejected)")


def test_criterion_09_chp_correctness_identities():
    worst_score, worst_hess, worst_gamma, worst_accum = 0.0, 0.0, 0.0, 0.0
    for k in range(5):
        rng = substream(909, k)
        y = np.cumsum(rng.standard_normal(50)) * 0.2 + rng.standard_normal(50)
        panel = null_score_panel(y)
        theta = np.array(panel.theta0_hat)

        def loglik_terms(th):
            c, phi, s2 = th
            eps = y[1:] - c - phi * y[:-1]
            return -0.5 * np.log(2 * np.pi * s2) - eps**2 / (2 * s2)

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
            fd_score = (loglik_terms(up) - loglik_terms(down)) / (2 * h)
            rel = np.abs(fd_score - panel.scores[:, j]) / np.maximum(np.abs(panel.scores[:, j]), 1e-3)
            worst_score = max(worst_score, float(rel.max()))
            fd_hess = (scores_at(up) - scores_at(down)) / (2 * h)
            rel = np.abs(fd_hess - panel.hessians[:, :, j]) / np.maximum(
                np.abs(panel.hessians[:, :, j]), 1.0
            )
            worst_hess = max(worst_hess, float(rel.max()))

        gamma, _ = gamma_star(y, NuisanceDraw(np.array([1.0, 0.0, 0.0]), 0.0))
        worst_gamma = max(worst_gamma, abs(gamma))

        H, rhos = sample_nuisance_draws(4, substream(910, k))
        g_all = panel.scores @ H.T
        quad = np.einsum("tij,di,dj->td", panel.hessians, H, H)
        for d in range(4):
            _, mu2 = gamma_star(y, NuisanceDraw(H[d], float(rhos[d])))
            n = len(mu2)
            brute = np.empty(n)
            for t in range(n):
                cross = sum(rhos[d] ** (t - s) * g_all[t, d] * g_all[s, d] for s in range(t))
                brute[t] = 0.5 * (quad[t, d] + g_all[t, d] ** 2 + 2.0 * cross)
            rel = np.abs(mu2 - brute) / np.maximum(np.abs(brute), 1e-12)
            worst_accum = max(worst_accum, float(rel.max()))

    ok = (worst_score < 1e-6 and worst_hess < 1e-5
          and worst_gamma < 1e-8 and worst_accum < 1e-10)
    check(9, ok,
          f"score FD err {worst_score:.1e} (<1e-6), hessian FD err {worst_hess:.1e} (<1e-5), "
          f"|Gamma| identity {worst_gamma:.1e} (<1e-8), accumulator vs brute force "
          f"{worst_accum:.1e} (<1e-10)")


def test_criterion_10_benchmark_test_size():
    cfg = ExperimentConfig(
        dgp=_null_ar1(0.1), T=100, replications=300, N=100,
        methods=("supTS", "expTS"), master_seed=1010, label="chp-null",
        B=200, chp_draws=200,
    )
    rows = {r.method: 100 * r.reject_rate for r in run_size_power_study([cfg], TEST_WORKERS)}
    ok = abs(rows["supTS"] - 5.0) <= 3.0 and abs(rows["expTS"] - 5.0) <= 3.0
    check(10, ok,
          f"bootstrap size: supTS {rows['supTS']:.1f}%, expTS {rows['expTS']:.1f}% "
          f"(both within 5 +/- 3pp; ref 4.8/6.8)")


def test_criterion_11_worker_count_invariance(hamilton_growth):
    configs = [
        ExperimentConfig(dgp=_null_ar1(0.1), T=80, replications=12, N=40,
                         methods=("LMC_min", "MMC_min"), master_seed=1111,
                         label="mc-cell"),
        ExperimentConfig(dgp=_switching_ar1(1.0, 1.0, 0.9, 0.5, 0.1), T=80,
                         replications=8, N=40, methods=("supTS", "expTS"),
                         master_seed=1112, label="chp-cell", B=30, chp_draws=30),
    ]
    runs = {w: run_size_power_study(configs, workers=w) for w in (1, 4, 8)}
    identical = True
    for w in (4, 8):
        for a, b in zip(runs[1], runs[w]):
            identical &= (
                a.label == b.label and a.method == b.method
                and a.reject_rate == b.reject_rate and a.mc_se == b.mc_se
                and a.failed == b.failed
            )
    rep_a, rep_b = (
        linearity_tests(hamilton_growth, 4, ("LMC_min", "MMC_min"), N=40, master_seed=7,
                        points_per_dim=3)
        for _ in range(2)
    )
    reports_equal = all(
        a.method == b.method and a.p_value == b.p_value
        and np.array_equal(a.phi_at_report, b.phi_at_report) and a.min_root_modulus == b.min_root_modulus
        for a, b in zip(rep_a, rep_b)
    )
    check(11, identical and reports_equal,
          "study rows bit-identical across worker counts {1, 4, 8}; "
          "empirical reports bit-identical across reruns")
