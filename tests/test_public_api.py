"""The package's public surface: the names the package root exports, the
names and parameters the benchmark in ``perfbench/`` reads, and the README
quickstart."""

from __future__ import annotations

import contextlib
import inspect
import io
import re
from pathlib import Path

import numpy as np

import regimetest
from regimetest import harness
from regimetest.linearity import NuisanceBox, build_grid, linearity_tests, lmc_test, mmc_test, ols_ar_fit
from regimetest.mctest import mc_mixture_test, null_ensemble, rank_pvalues
from regimetest.moments import quartet_matrix

ROOT = Path(__file__).resolve().parents[1]


def test_root_exports_exactly_the_documented_names():
    # the README's names and the types they take, return or raise; no submodule
    assert sorted(regimetest.__all__) == [
        "ARFit", "CHPReport", "DegenerateSampleError", "ExperimentConfig",
        "LinearityReport", "LogisticCoeffTable", "LogisticCoeffs", "MCTestReport",
        "MSARSpec", "MixtureMoments", "NuisanceBox", "RegimeParams",
        "SeriesDataset", "StatQuartet", "TransitionMatrix",
        "ar_filter", "build_grid", "chp_bootstrap_test", "combine_min",
        "combine_prod", "compute_quartet", "critical_rank", "default_study_grid",
        "demean", "ergodic_probabilities", "fit_logistic_cdf",
        "ingest_series", "linearity_tests", "lmc_test", "logistic_cdf",
        "mc_mixture_test", "mc_pvalue", "min_root_modulus",
        "mixture_moments", "mmc_test",
        "ols_ar_fit", "quartet_matrix", "regenerate_coeff_table",
        "run_size_power_study", "simulate_chain", "simulate_msar", "stationary_rows",
    ]
    # the submodules stay reachable as attributes
    assert regimetest.linearity.linearity_tests is regimetest.linearity_tests


def test_names_the_benchmark_reads():
    # perfbench/tracer.py reads these arguments and results by name, and
    # perfbench/workloads.py builds its study cells from the harness
    rng = np.random.default_rng(0)
    y = rng.standard_normal(40)

    assert list(inspect.signature(quartet_matrix).parameters)[0] == "X"
    assert quartet_matrix(rng.standard_normal((2, 10))).shape == (2, 4)

    assert list(inspect.signature(rank_pvalues).parameters)[:2] == ["xi0", "xi_sim"]
    ranks, p = rank_pvalues(np.array([0.5]), np.array([0.1, 0.9]), 0.5, np.array([0.2, 0.8]))
    assert (ranks.tolist(), p.tolist()) == ([2], [2 / 3])  # p = (N + 1 - rank) / N

    assert list(inspect.signature(build_grid).parameters)[:2] == ["fit", "points_per_dim"]
    grid = build_grid(fit=ols_ar_fit(y, 1), points_per_dim=3)
    assert isinstance(grid, NuisanceBox) and grid.points.shape[1] == 1

    assert harness.STUDY_METHODS[-2:] == ("supTS", "expTS")
    assert "methods" in inspect.signature(harness.default_study_grid).parameters
    grid = harness.default_study_grid("desk", methods=harness.STUDY_METHODS[:1])
    assert {cfg.T for cfg in grid} == {100, 200}
    assert all(cfg.methods == harness.STUDY_METHODS[:1] for cfg in grid)


def test_entry_points_take_no_coefficient_table():
    # the exact tests always use the packaged table; only approx_pvalue_matrix
    # and LogisticCoeffTable take one
    for fn in (linearity_tests, lmc_test, mmc_test, mc_mixture_test, null_ensemble):
        assert "table" not in inspect.signature(fn).parameters


def test_readme_quickstart_prints_its_commented_values(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)  # the quickstart reads the vendored data by a relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "0.56 1.0"
