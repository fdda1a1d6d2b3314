from __future__ import annotations

from importlib.resources import files

import numpy as np
import pytest

from regimetest.cli import main

HAMILTON = str(files("regimetest").joinpath("data/gnp_hamilton_levels.csv"))


def test_test_subcommand(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main([
        "test", "--series", HAMILTON, "--transform", "logdiff100",
        "--lags", "4", "--mc", "100", "--methods", "LMC_min,MMC_min",
        "--grid-points", "3", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "# config_sha=" in captured
    assert "LMC_min" in captured and "MMC_min" in captured
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# regimetest=")
    assert lines[1].split(",")[:2] == ["method", "p_value"]
    assert len(lines) == 4  # meta + header + 2 rows


def test_test_subcommand_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["test", "--series", HAMILTON, "--transform", "logdiff100",
              "--lags", "2", "--mc", "20", "--methods", "LMC_min",
              "--seed", "3", "--out", str(out)])
    assert a.read_text() == b.read_text()


def test_chp_subcommand(tmp_path, capsys):
    out = tmp_path / "chp.csv"
    code = main([
        "chp", "--series", HAMILTON, "--transform", "logdiff100",
        "--reps", "20", "--draws", "20", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert "supTS" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[1] == "method,statistic,p_value,B,draws,seed"
    assert lines[2].startswith("supTS,") and lines[3].startswith("expTS,")


def test_study_subcommand(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main([
        "study", "--profile", "desk", "--reps", "2", "--mc", "20",
        "--methods", "LMC_min", "--seed", "5", "--workers", "1",
        "--out", str(out),
    ])
    assert code == 0
    from regimetest.harness import read_study_csv

    rows = read_study_csv(out)
    assert len(rows) == 40
    assert all(not r.failed for r in rows)


def test_simulate_subcommand(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--T", "50", "--mu", "0,2", "--sigma", "1,2",
              "--p", "0.9,0.5", "--phi", "0.3", "--seed", "11", "--out", str(out)])
    assert a.read_text() == b.read_text()
    assert len(a.read_text().splitlines()) == 51  # header + 50 values


@pytest.mark.parametrize("phi", ["0.2,0.3,0.5", "0.5,0.25,0.25"])
def test_simulate_rejects_exact_unit_root(phi):
    with pytest.raises(ValueError, match="stationary"):
        main(["simulate", "--T", "30", "--phi", phi])


def test_fit_table_subcommand_rejects_tiny_draw_counts(tmp_path):
    with pytest.raises(ValueError):
        main(["fit-table", "--sizes", "50", "--draws", "100",
              "--out", str(tmp_path / "t.csv")])


def test_simulate_stdout_is_a_clean_series(capsys):
    assert main(["simulate", "--T", "30", "--phi", "0.3", "--seed", "4"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 30
    for line in lines:
        float(line)
    assert "# config_sha=" in captured.err


def test_simulate_file_reads_back_through_ingest_series(tmp_path):
    from regimetest._seeding import substream
    from regimetest.harness import ingest_series
    from regimetest.msar import MSARSpec, RegimeParams, TransitionMatrix, simulate_msar

    out = tmp_path / "path.csv"
    main(["simulate", "--T", "30", "--mu", "0,2", "--phi", "0.3", "--seed", "4",
          "--out", str(out)])
    dataset = ingest_series(out)
    spec = MSARSpec(RegimeParams(0.0, 2.0, 1.0, 1.0), TransitionMatrix(0.9, 0.9), (0.3,))
    np.testing.assert_array_equal(dataset.values, simulate_msar(spec, 30, substream(4, 0)))
    assert dataset.labels == tuple(str(line) for line in range(2, 32))
