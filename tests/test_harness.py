from __future__ import annotations

from dataclasses import asdict
from importlib.resources import files

import numpy as np
import pytest

from regimetest._seeding import DOMAIN_TABLE, substream
from regimetest.cli import main
from regimetest.harness import (
    ExperimentConfig,
    config_digest,
    default_study_grid,
    ingest_series,
    regenerate_coeff_table,
    run_size_power_study,
    write_empirical_csv,
    write_study_csv,
)
from regimetest.linearity import linearity_tests
from regimetest.mctest import STATISTICS, LogisticCoeffTable, fit_logistic_cdf, logistic_cdf
from regimetest.moments import quartet_matrix, row_blocks
from regimetest.msar import MSARSpec, RegimeParams, TransitionMatrix
from study_csv import read_study_csv

NULL_AR1 = MSARSpec(RegimeParams(0.0, 0.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (0.1,))


class TestIngestSeries:
    def test_log_diff_transform(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("period,value\n1999Q1,100\n1999Q2,101\n")
        ds = ingest_series(path, "logdiff100")
        assert ds.values == pytest.approx([0.9950330853167877])
        assert ds.labels == ("1999Q2",)

    def test_passthrough(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,1.5\nb,-2.5\n")
        ds = ingest_series(path, "none")
        np.testing.assert_allclose(ds.values, [1.5, -2.5])

    def test_single_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        np.testing.assert_allclose(ingest_series(path).values, [1.0, 2.0, 3.0])

    def test_single_column_labels_are_line_numbers(self, tmp_path):
        # with 10 or more rows, line numbers that compared as strings ("10" < "9")
        # looked out of order
        path = tmp_path / "series.csv"
        path.write_text("value\n" + "".join(f"{v}\n" for v in range(12)))
        ds = ingest_series(path)
        np.testing.assert_array_equal(ds.values, np.arange(12.0))
        assert ds.labels == tuple(str(line) for line in range(2, 14))

    def test_mixed_layouts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1999Q1,100\n101\n")
        with pytest.raises(ValueError, match=":2: mixes"):
            ingest_series(path)

    def test_vendored_sample_sizes(self):
        data = files("regimetest").joinpath("data")
        ham = ingest_series(str(data / "gnp_hamilton_levels.csv"), "logdiff100")
        ext = ingest_series(str(data / "gnp_extended_levels.csv"), "logdiff100")
        assert len(ham.values) == 135
        assert len(ext.values) == 239

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n1999Q1,100\n1999Q2,oops\n")
        with pytest.raises(ValueError, match=":3"):
            ingest_series(path)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n1999Q1,100\n1999Q2,\n")
        with pytest.raises(ValueError, match="missing"):
            ingest_series(path)

    @pytest.mark.parametrize("transform", ["none", "logdiff100"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, capsys, transform, bad):
        # float() accepts these, and the fits further down failed on them with
        # messages that named no line
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n" + "".join(f"{t},{100 + t}\n" for t in range(1, 13))
                        + f"13,{bad}\n14,120\n")
        with pytest.raises(ValueError, match=f":14: non-finite value '{bad}'"):
            ingest_series(path, transform)
        for command in (["test", "--lags", "1", "--mc", "20"], ["chp", "--reps", "5", "--draws", "5"]):
            argv = [*command, "--series", str(path), "--transform", transform,
                    "--out", str(tmp_path / "out.csv")]
            assert main(argv) == 2
            assert f"{path}:14: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_positive_level_under_log(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n1999Q1,100\n1999Q2,-3\n")
        with pytest.raises(ValueError, match="non-positive"):
            ingest_series(path, "logdiff100")

    def test_unsorted_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("period,value\n1999Q2,100\n1999Q1,101\n")
        with pytest.raises(ValueError, match="increasing"):
            ingest_series(path)

    def test_numeric_labels_compare_as_numbers(self, tmp_path):
        # as strings "10" < "9", so the labels 1..11 looked out of order
        path = tmp_path / "series.csv"
        path.write_text("period,value\n" + "".join(f"{t},{t / 2}\n" for t in range(1, 12)))
        ds = ingest_series(path)
        assert ds.labels == tuple(str(t) for t in range(1, 12))
        np.testing.assert_array_equal(ds.values, np.arange(1, 12) / 2)

    @pytest.mark.parametrize("header, line", [("", 2), ("period,value\n", 3)])
    def test_out_of_order_label_names_its_line(self, tmp_path, header, line):
        path = tmp_path / "bad.csv"
        path.write_text(header + "3,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match=f":{line}: period labels must be strictly increasing"):
            ingest_series(path)

    def test_repeated_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1999Q1,100\n1999Q2,101\n1999Q2,102\n")
        with pytest.raises(ValueError, match=":3: period labels"):
            ingest_series(path)


class TestStudy:
    def test_rates_and_errors(self):
        cfg = ExperimentConfig(
            dgp=NULL_AR1, T=60, replications=25, N=20,
            methods=("LMC_min", "LMC_prod"), master_seed=5, label="null-small",
        )
        rows = run_size_power_study([cfg])
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row.reject_rate <= 1.0
            assert row.mc_se == pytest.approx(
                np.sqrt(row.reject_rate * (1 - row.reject_rate) / 25)
            )
            assert not row.failed

    @pytest.mark.parametrize("field, value, message", [
        ("replications", 0, "replications must be at least 1"),
        ("N", 1, "N must be at least 2"),
        ("alpha", 1.0, "alpha must lie in"),
        ("methods", ("FOO",), "unknown methods"),
        ("methods", (), "no methods given"),
        ("B", 1, "B must be at least 2"),
        ("chp_draws", 0, "chp_draws must be at least 1"),
    ])
    def test_config_rejects_invalid_fields(self, field, value, message):
        # rejected when the cell is built, not as a failed row at run time
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"dgp": NULL_AR1, "T": 60, "replications": 2, field: value})

    def test_single_replication_convention(self):
        cfg = ExperimentConfig(dgp=NULL_AR1, T=60, replications=1, N=20,
                               methods=("LMC_min",), master_seed=1)
        row = run_size_power_study([cfg])[0]
        assert row.reject_rate in (0.0, 1.0)
        assert row.mc_se == 0.0

    def test_failed_cell_does_not_poison_study(self):
        bad = ExperimentConfig(dgp=NULL_AR1, T=3, replications=2, N=20,
                               methods=("LMC_min",), label="too-short")
        good = ExperimentConfig(dgp=NULL_AR1, T=60, replications=2, N=20,
                                methods=("LMC_min",), label="fine")
        rows = run_size_power_study([bad, good])
        assert rows[0].failed and "too short" in rows[0].error
        assert not rows[1].failed

    def test_rows_are_worker_invariant(self):
        cfg = ExperimentConfig(
            dgp=NULL_AR1, T=60, replications=12, N=20,
            methods=("LMC_min", "MMC_min"), master_seed=9,
        )
        baseline = run_size_power_study([cfg], workers=1)
        for workers in (2, 4):
            rows = run_size_power_study([cfg], workers=workers)
            for a, b in zip(baseline, rows):
                da, db = asdict(a), asdict(b)
                da.pop("wall_time_s"), db.pop("wall_time_s")
                assert da == db

    def test_default_grid_shape(self):
        configs = default_study_grid("desk", methods=("LMC_min",))
        assert len(configs) == 40  # (null + 9 alternatives) x 2 phi x 2 T
        labels = {c.label for c in configs}
        assert "null,phi=0.1,T=100" in labels
        assert "dmu=2.0,dsig=1.0,p=(0.9,0.5),phi=0.1,T=200" in labels

    def test_desk_grid_cells_in_order(self):
        # the golden study digests hash these labels, so order and bytes are pinned
        cells = [("null", 0.0, 0.0, 0.9, 0.9)] + [
            (f"dmu={dmu},dsig={dsig},p=({p11},{p22})", dmu, dsig, p11, p22)
            for dmu, dsig in ((2.0, 0.0), (0.0, 1.0), (2.0, 1.0))
            for p11, p22 in ((0.9, 0.9), (0.9, 0.5), (0.9, 0.1))
        ]
        expected = [
            (f"{name},phi={phi},T={T}",
             MSARSpec(RegimeParams(0.0, dmu, 1.0, 1.0 + dsig), TransitionMatrix(p11, p22), (phi,)),
             T, 100, 200, 200, 500)
            for phi, T in ((0.1, 100), (0.1, 200), (0.9, 100), (0.9, 200))
            for name, dmu, dsig, p11, p22 in cells
        ]
        configs = default_study_grid("desk", master_seed=3, methods=("LMC_min",))
        assert [
            (c.label, c.dgp, c.T, c.N, c.B, c.chp_draws, c.replications) for c in configs
        ] == expected
        assert expected[0][0] == "null,phi=0.1,T=100"
        assert expected[10][0] == "null,phi=0.1,T=200"
        assert expected[39][0] == "dmu=2.0,dsig=1.0,p=(0.9,0.1),phi=0.9,T=200"
        assert all(c.master_seed == 3 and c.methods == ("LMC_min",) for c in configs)
        assert all(c.alpha == 0.05 for c in configs)

    def test_full_profile_reaches_every_cell(self):
        desk, full = default_study_grid("desk"), default_study_grid("full")
        assert [c.label for c in full] == [c.label for c in desk]
        assert [c.dgp for c in full] == [c.dgp for c in desk]
        for cfg in full:
            assert (cfg.replications, cfg.N, cfg.B, cfg.chp_draws) == (1000, 100, 500, 200)


class TestCsvRoundTrip:
    def test_study_rows(self, tmp_path):
        cfg = ExperimentConfig(dgp=NULL_AR1, T=60, replications=8, N=20,
                               methods=("LMC_min",), master_seed=2, label="cell")
        rows = run_size_power_study([cfg])
        path = tmp_path / "study.csv"
        write_study_csv(rows, path, header_meta="seed=2")
        back = read_study_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.label == b.label and a.method == b.method
            assert a.reject_rate == b.reject_rate  # repr round-trips exactly
            assert a.mc_se == b.mc_se

    def test_empirical_rows(self, tmp_path, hamilton_growth):
        rows = linearity_tests(hamilton_growth, 4, ("LMC_min",), N=20, master_seed=3)
        path = tmp_path / "empirical.csv"
        write_empirical_csv(rows, path, header_meta="seed=3")
        text = path.read_text().splitlines()
        assert text[0] == "# seed=3"
        header = text[1].split(",")
        assert header[:6] == ["method", "p_value", "phi_1", "phi_2", "phi_3", "phi_4"]
        values = text[2].split(",")
        assert float(values[1]) == rows[0].p_value


class TestRegenerateCoeffTable:
    def test_draw_floor(self):
        with pytest.raises(ValueError):
            regenerate_coeff_table([50], draws=5000)

    def test_reduced_draw_fit_is_close_to_shipped_table(self):
        # 10^5 draws: fitted curves within 0.03 of the shipped ones in sup norm
        table = regenerate_coeff_table([100], draws=100_000, master_seed=12)
        shipped = LogisticCoeffTable.default()
        grid = np.linspace(0.001, 0.999, 999)
        for stat in ("M", "V", "S", "K"):
            mine = table.coeffs_for(stat, 100)
            ref = shipped.coeffs_for(stat, 100)
            # compare on the fitted curve's own quantile range
            x = (np.log(grid / (1 - grid)) - mine.gamma0) / mine.gamma1
            gap = np.abs(logistic_cdf(x, mine) - logistic_cdf(x, ref))
            assert gap.max() < 0.03

    @pytest.mark.parametrize("sizes", [[0], [50, 3]])
    def test_sizes_below_the_quartet_length_are_rejected(self, sizes):
        with pytest.raises(ValueError, match="at least 4"):
            regenerate_coeff_table(sizes, draws=10_000)

    def test_blocked_refit_equals_one_unblocked_call(self):
        draws, seed = 20_000, 3
        table = regenerate_coeff_table([60, 250], draws=draws, master_seed=seed)
        for T in (60, 250):
            assert len(row_blocks(draws, T)) > 1
            Q = quartet_matrix(substream(seed, DOMAIN_TABLE, T).standard_normal((draws, T)))
            for j, stat in enumerate(STATISTICS):
                assert table.coeffs_for(stat, T) == fit_logistic_cdf(Q[:, j], statistic=stat, T=T)


def test_config_digest_is_order_insensitive():
    a = config_digest([("x", 1), ("y", "z")])
    b = config_digest([("y", "z"), ("x", 1)])
    assert a == b and len(a) == 12
