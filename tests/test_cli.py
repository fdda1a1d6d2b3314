from __future__ import annotations

import re
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from regimetest.cli import build_parser, main
from regimetest.harness import LINEARITY_METHODS, STUDY_METHODS
from study_csv import read_study_csv

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


def _usage_error(capsys) -> str:
    """The message of the usage error a run ended with, from its stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert lines and lines[-1].startswith("regimetest: error: ")
    return lines[-1][len("regimetest: error: "):]


@pytest.mark.parametrize("phi", ["0.2,0.3,0.5", "0.5,0.25,0.25"])
def test_simulate_rejects_exact_unit_root(phi, capsys):
    assert main(["simulate", "--T", "30", "--phi", phi]) == 2
    assert re.search("stationary", _usage_error(capsys))


def test_fit_table_subcommand_rejects_tiny_draw_counts(tmp_path, capsys):
    assert main(["fit-table", "--sizes", "50", "--draws", "100",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert re.search("10\\^4 draws", _usage_error(capsys))
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["chp", "--series", HAMILTON, "--reps", "1"], "B must be at least 2"),
    (["simulate", "--T", "0"], "T must be at least 1"),
    (["test", "--series", HAMILTON, "--methods", "FOO"], "unknown method 'FOO'"),
    (["test", "--series", HAMILTON, "--methods", " "], "no methods given"),
    (["test", "--series", HAMILTON, "--mc", "1"], "N must be at least 2"),
    (["test", "--series", HAMILTON, "--lags", "1", "--methods", "LMC_min"],
     "LMC needs a stationary OLS point; [1.0034755679397172] has smallest root modulus 0.996536"),
    (["test", "--series", HAMILTON, "--grid-points", "4", "--methods", "MMC_min"],
     "points_per_dim must be odd"),
    (["test", "--series", HAMILTON, "--grid-points", "4", "--methods", "LMC_min"],
     "points_per_dim must be odd"),
    (["study", "--reps", "1", "--mc", "1", "--methods", "LMC_min"], "N must be at least 2"),
    (["study", "--reps", "1", "--mc", "20", "--methods", "LMC_min", "--workers", "0"],
     "workers must be at least 1"),
    (["study", "--reps", "1", "--methods", ","], "no methods given"),
], ids=["chp-reps", "simulate-T", "test-methods", "test-no-methods", "test-mc", "test-lmc-levels",
        "test-grid-points", "test-grid-points-lmc", "study-mc", "study-workers", "study-no-methods"])
def test_rejected_input_is_a_usage_error(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert _usage_error(capsys).startswith(message)
    assert not out.exists()  # rejected before any output is written


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


def _echo(text):
    """The config echo lines of a run's output, without the leading '# '."""
    return [line[2:] for line in text.splitlines()
            if line.startswith("# ") and not line.startswith("# wrote ")]


def test_study_echo_is_pinned(tmp_path, capsys):
    assert main(["study", "--reps", "1", "--mc", "20", "--alpha", "0.1",
                 "--methods", " LMC_min, ,LMC_prod", "--seed", "5",
                 "--out", str(tmp_path / "study.csv")]) == 0
    assert _echo(capsys.readouterr().out) == [
        "alpha=0.1", "command=study", "mc=20", "methods=LMC_min,LMC_prod",
        "profile=desk", "reps=1", "seed=5", "workers=1", "config_sha=8ba4ec24855b",
    ]
    meta = (tmp_path / "study.csv").read_text().splitlines()[0]
    assert meta == "# regimetest=0.1.0 seed=5 config_sha=8ba4ec24855b"


def test_fit_table_echoes_before_it_raises(tmp_path, capsys):
    assert main(["fit-table", "--sizes", "50", "--draws", "100",
                 "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert re.search("10\\^4 draws", captured.err)
    assert _echo(captured.out) == [
        "command=fit-table", "draws=100", "seed=0", "sizes=50", "config_sha=8865fdb5e70c",
    ]


SIMULATE_ECHO = ["T=30", "command=simulate", "mu=0,0", "p=0.9,0.9", "phi=0.3",
                 "seed=4", "sigma=1,1", "config_sha=c659de6493a8"]


def test_simulate_echo_is_pinned_in_file_mode(tmp_path, capsys):
    assert main(["simulate", "--T", "30", "--phi", "0.3", "--seed", "4",
                 "--out", str(tmp_path / "path.csv")]) == 0
    captured = capsys.readouterr()
    assert _echo(captured.out) == SIMULATE_ECHO and captured.err == ""


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
def test_simulate_echo_is_pinned_in_stdout_mode(out, capsys):
    assert main(["simulate", "--T", "30", "--phi", "0.3", "--seed", "4", *out]) == 0
    captured = capsys.readouterr()
    assert _echo(captured.err) == SIMULATE_ECHO and _echo(captured.out) == []


ECHO_RUNS = {
    "test": ["test", "--series", HAMILTON, "--transform", "logdiff100", "--lags", "1",
             "--mc", "20", "--grid-points", "3", "--seed", "2"],
    "chp": ["chp", "--series", HAMILTON, "--transform", "logdiff100", "--reps", "5",
            "--draws", "5"],
    "study": ["study", "--reps", "1", "--mc", "20", "--methods", "LMC_min"],
    "fit-table": ["fit-table", "--sizes", "50", "--draws", "100"],
    "simulate": ["simulate", "--T", "20"],
}
ECHO_KEYS = {
    "test": ["command", "grid_points", "lags", "mc", "methods", "seed", "series", "transform"],
    "chp": ["command", "draws", "reps", "seed", "series", "transform"],
}


@pytest.mark.parametrize("command", sorted(ECHO_RUNS))
def test_echo_lists_every_parsed_option_but_out(command, tmp_path, capsys):
    argv = ECHO_RUNS[command] + ["--out", str(tmp_path / "out.csv")]
    # fit-table's tiny draw count is a usage error, after the echo
    assert main(argv) == (2 if command == "fit-table" else 0)
    lines = _echo(capsys.readouterr().out)
    keys = [line.split("=", 1)[0] for line in lines]
    parsed = vars(build_parser().parse_args(argv))
    assert keys[-1] == "config_sha"
    assert keys[:-1] == sorted(set(parsed) - {"out"})
    assert lines[:-1] == [f"{key}={parsed[key]}" for key in keys[:-1]]
    if command in ECHO_KEYS:
        assert keys[:-1] == ECHO_KEYS[command]


@pytest.mark.parametrize("command", ["test", "chp"])
def test_config_sha_hashes_the_series_values_not_its_path(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = Path(HAMILTON).read_text()
    Path("gnp.csv").write_text(text)
    first_value = text.splitlines()[1].split(",")[1]
    Path("changed.csv").write_text(text.replace(first_value, f"{float(first_value) + 1.0}", 1))

    def config_sha(series):
        assert main([series if arg == HAMILTON else arg for arg in ECHO_RUNS[command]]) == 0
        lines = _echo(capsys.readouterr().out)
        assert f"series={series}" in lines  # the echo still names the path
        return lines[-1]

    same = {config_sha(series) for series in (HAMILTON, "gnp.csv", str(tmp_path / "gnp.csv"))}
    assert len(same) == 1
    assert config_sha("changed.csv") not in same


@pytest.mark.parametrize("command", ["test", "chp", "study", "fit-table"])
def test_out_dash_is_a_usage_error_outside_simulate(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(ECHO_RUNS[command] + ["--out", "-"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "argument --out: only simulate writes to stdout" in captured.err
    assert captured.out == "" and not (tmp_path / "-").exists()


def test_methods_option_lists_come_from_the_method_tuples():
    parser = build_parser()
    assert parser.parse_args(["test", "--series", "x.csv"]).methods == ",".join(LINEARITY_METHODS)
    assert parser.parse_args(["study"]).methods == ",".join(STUDY_METHODS)
    assert parser.parse_args(["study", "--methods", ""]).methods == ""


@pytest.mark.parametrize("argv, option", [
    (["simulate", "--T", "10", "--mu", "0"], "--mu"),
    (["simulate", "--T", "10", "--sigma", "1,2,3"], "--sigma"),
    (["simulate", "--T", "10", "--p", "0.9,x"], "--p"),
    (["simulate", "--T", "10", "--phi", "0.3,,abc"], "--phi"),
    (["fit-table", "--sizes", "50,x"], "--sizes"),
    (["fit-table", "--sizes", "50,60.5"], "--sizes"),
    (["test", "--series", "no/such/series.csv"], "--series"),
    (["chp", "--series", "no/such/series.csv"], "--series"),
])
def test_bad_option_is_a_usage_error_naming_it(argv, option, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and f"argument {option}" in captured.err
    assert captured.out == ""  # rejected before the echo


def test_list_options_parse_to_their_items_without_blanks():
    args = build_parser().parse_args(["simulate", "--mu", " 0, 2", "--sigma", "1 ,2",
                                      "--p", "0.9, 0.5", "--phi", "0.3, ,0.1"])
    assert (args.mu, args.sigma, args.p, args.phi) == ("0,2", "1,2", "0.9,0.5", "0.3,0.1")


def test_sizes_echo_and_hash_without_blanks(tmp_path, capsys):
    echoes = []
    for sizes in ("50,60", "50, 60", " 50 ,,60 "):
        assert main(["fit-table", "--sizes", sizes, "--draws", "100",
                     "--out", str(tmp_path / "t.csv")]) == 2
        captured = capsys.readouterr()
        assert re.search("10\\^4 draws", captured.err)
        echoes.append(_echo(captured.out))
    assert echoes[0] == echoes[1] == echoes[2]
    assert "sizes=50,60" in echoes[0]


def test_simulate_with_spaced_lists_writes_the_same_path(tmp_path, capsys):
    paths, echoes = [], []
    for lists in (["--mu", "0,2", "--p", "0.9,0.5", "--phi", "0.3"],
                  ["--mu", "0, 2", "--p", " 0.9,0.5", "--phi", "0.3,"]):
        paths.append(tmp_path / f"{len(paths)}.csv")
        main(["simulate", "--T", "40", *lists, "--out", str(paths[-1])])
        echoes.append(_echo(capsys.readouterr().out))
    assert paths[0].read_text() == paths[1].read_text()
    assert echoes[0] == echoes[1]


def test_list_options_take_a_leading_negative_value_in_either_form(tmp_path, capsys):
    paths, echoes = [], []
    for lists in (["--mu", "-1,2", "--phi", "-0.3,0.1"], ["--mu=-1,2", "--phi=-0.3,0.1"]):
        paths.append(tmp_path / f"{len(paths)}.csv")
        assert main(["simulate", "--T", "20", *lists, "--out", str(paths[-1])]) == 0
        echoes.append(_echo(capsys.readouterr().out))
    assert paths[0].read_text() == paths[1].read_text()
    assert echoes[0] == echoes[1]
    assert "mu=-1,2" in echoes[0] and "phi=-0.3,0.1" in echoes[0]
