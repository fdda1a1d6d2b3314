"""Experiment harness: data ingestion, size/power studies,
coefficient-table regeneration, and :func:`write_csv`, the one writer of a
run's output files (``# meta`` line, header, rows, ``\\n``).

All stochastic work is keyed on a master seed through documented derivation
paths (see ``_seeding``), and study replications are independent tasks whose
results are reduced in replication order, so numeric outputs are identical
for any worker count.  A study replication computes all its LMC/MMC methods
in one linearity pass (:func:`~regimetest.linearity.linearity_tests`): one
OLS fit, at most one nuisance grid and one null ensemble per series; supTS
and expTS come from one CHP pass with the data as row 0 above its bootstrap
samples.  Both passes and the table refit go through the blocks of
:func:`~regimetest.moments.row_blocks`.  A replication returns its decisions
p <= alpha, not p-values, so its CHP pass stops at the first row chunk where
both decisions are final; every reject rate is the one the full bootstrap
gives, and only a row's ``wall_time_s`` changes with the stop.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._seeding import DOMAIN_CELL, DOMAIN_DGP, DOMAIN_TABLE, derive_seed, substream
from .chp import _bootstrap_p, _bootstrap_statistics
from .linearity import METHODS as LINEARITY_METHODS, LinearityReport, linearity_tests
from .mctest import STATISTICS, LogisticCoeffTable, fit_logistic_cdf
from .moments import quartet_matrix, row_blocks
from .msar import MSARSpec, RegimeParams, TransitionMatrix, simulate_msar

logger = logging.getLogger(__name__)

STUDY_METHODS = LINEARITY_METHODS + ("supTS", "expTS")

#: The desk profile trades replication counts for runtime; the full profile
#: uses the reference experiment sizes.  Keys are ``ExperimentConfig`` fields.
PROFILES = {
    "desk": {"replications": 500, "N": 100, "B": 200, "chp_draws": 200},
    "full": {"replications": 1000, "N": 100, "B": 500, "chp_draws": 200},
}


@dataclass(frozen=True)
class SeriesDataset:
    """An ingested series with period labels."""

    labels: tuple[str, ...]
    values: np.ndarray
    transformation: str = "none"


@dataclass(frozen=True)
class ExperimentConfig:
    """One study cell: a data-generating process and test settings."""

    dgp: MSARSpec
    T: int
    replications: int
    N: int = 100
    alpha: float = 0.05
    methods: tuple[str, ...] = STUDY_METHODS
    master_seed: int = 0
    label: str = ""
    B: int = 200
    chp_draws: int = 200

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if self.chp_draws < 1:
            raise ValueError("chp_draws must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        unknown = set(self.methods) - set(STUDY_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


@dataclass
class StudyRow:
    """One (cell, method) result row."""

    label: str
    method: str
    T: int
    replications: int
    reject_rate: float
    mc_se: float
    wall_time_s: float
    failed: bool = False
    error: str = ""


def ingest_series(path: str | Path, transformation: str = "none") -> SeriesDataset:
    """Read a single- or two-column (period, value) comma-separated file.

    ``logdiff100`` maps levels to 100 times the first difference of logs,
    dropping the first period.  Period labels compare as numbers when every
    one parses as a number, as strings otherwise.  Missing values,
    non-numeric or non-finite fields and non-increasing period labels are
    rejected with the offending line number.
    """
    if transformation not in ("none", "logdiff100"):
        raise ValueError(f"unknown transformation {transformation!r}")
    path = Path(path)
    labels: list[str] = []
    keys: list[int | str] = []  # line numbers of single-column rows compare as integers
    linenos: list[int] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) == 1:
                key, raw = lineno, row[0]
            elif len(row) == 2:
                key, raw = row[0].strip(), row[1]
            else:
                raise ValueError(f"{path}:{lineno}: expected 1 or 2 columns, got {len(row)}")
            raw = raw.strip()
            if lineno == 1 and not _is_number(raw):
                continue  # header line
            if raw == "":
                raise ValueError(f"{path}:{lineno}: missing value")
            if not _is_number(raw):
                raise ValueError(f"{path}:{lineno}: could not parse value {raw!r}")
            if not math.isfinite(float(raw)):
                raise ValueError(f"{path}:{lineno}: non-finite value {raw!r}")
            if keys and type(key) is not type(keys[0]):
                raise ValueError(f"{path}:{lineno}: mixes one- and two-column rows")
            keys.append(key)
            linenos.append(lineno)
            labels.append(str(key))
            values.append(float(raw))
    if all(isinstance(key, str) and _is_number(key) for key in keys):
        keys = [float(key) for key in keys]  # numeric labels compare as numbers: 9 < 10
    bad = next((i for i in range(1, len(keys)) if not keys[i - 1] < keys[i]), None)
    if bad is not None:
        raise ValueError(f"{path}:{linenos[bad]}: period labels must be strictly increasing")
    data = np.asarray(values)
    if transformation == "logdiff100":
        if len(data) < 2:
            raise ValueError(f"{path}: need at least 2 rows for logdiff100")
        if np.any(data <= 0.0):
            bad = int(np.nonzero(data <= 0.0)[0][0])
            raise ValueError(f"{path}: non-positive level {data[bad]} at {labels[bad]}")
        data = 100.0 * np.diff(np.log(data))
        labels = labels[1:]
    return SeriesDataset(labels=tuple(labels), values=data, transformation=transformation)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _study_rep(task: tuple[ExperimentConfig, int, int]) -> dict[str, bool]:
    """One study replication ``(cfg, cell_index, rep)``: simulate the cell's
    DGP, run every requested method, return its decision ``p <= alpha``
    keyed by method.  The LMC/MMC methods share one linearity pass; the CHP
    pass stops at the first row chunk where both decisions are final, so
    its p-values over the rows evaluated decide as the full test's would.
    Top level so process pools can pickle it."""
    cfg, cell_index, rep = task
    y = simulate_msar(cfg.dgp, cfg.T, substream(cfg.master_seed, DOMAIN_DGP, cell_index, rep))
    rep_seed = derive_seed(cfg.master_seed, DOMAIN_CELL, cell_index, rep)
    out: dict[str, bool] = {}
    linear = [m for m in cfg.methods if m in LINEARITY_METHODS]
    if linear:
        reports = linearity_tests(y, cfg.dgp.r, linear, N=cfg.N, master_seed=rep_seed)
        out.update((report.method, report.p_value <= cfg.alpha) for report in reports)
    if "supTS" in cfg.methods or "expTS" in cfg.methods:
        sup, exp = _bootstrap_statistics(y, cfg.B, cfg.chp_draws, rep_seed, cfg.alpha)
        out["supTS"] = _bootstrap_p(sup, cfg.B) <= cfg.alpha
        out["expTS"] = _bootstrap_p(exp, cfg.B) <= cfg.alpha
    return out


def _parallel_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """Map preserving task order; workers == 1 avoids any pool."""
    if workers <= 1:
        return [fn(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_size_power_study(
    configs: Sequence[ExperimentConfig],
    workers: int = 1,
) -> list[StudyRow]:
    """Run every cell of a study grid.

    Each cell emits one row per method with the rejection frequency at the
    cell's level, its binomial Monte Carlo standard error, and the cell wall
    time.  A failing cell is reported as failed without aborting the study;
    bootstrap rows after a replication's CHP stop are never evaluated, so a
    failure confined to them does not fail the cell.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows: list[StudyRow] = []
    for cell_index, cfg in enumerate(configs):
        start = time.perf_counter()
        tasks = [(cfg, cell_index, rep) for rep in range(cfg.replications)]
        try:
            results = _parallel_map(_study_rep, tasks, workers)
        except Exception as exc:  # cell must not poison its neighbours
            logger.exception("study cell %s failed", cfg.label or cell_index)
            elapsed = time.perf_counter() - start
            for method in cfg.methods:
                rows.append(
                    StudyRow(cfg.label, method, cfg.T, cfg.replications,
                             float("nan"), float("nan"), elapsed,
                             failed=True, error=f"{type(exc).__name__}: {exc}")
                )
            continue
        elapsed = time.perf_counter() - start
        for method in cfg.methods:
            rejects = sum(res[method] for res in results)
            rate = rejects / cfg.replications
            # 0/1 outcomes with a single replication get SE 0 by convention
            se = float(np.sqrt(rate * (1.0 - rate) / cfg.replications))
            rows.append(
                StudyRow(cfg.label, method, cfg.T, cfg.replications, rate, se, elapsed)
            )
    return rows


def default_study_grid(
    profile: str = "desk",
    master_seed: int = 0,
    methods: tuple[str, ...] = STUDY_METHODS,
) -> list[ExperimentConfig]:
    """The full experiment design: a linear null plus nine switching
    alternatives, for phi in {0.1, 0.9} and T in {100, 200}."""
    cells = [("null", 0.0, 0.0, 0.9, 0.9)] + [
        (f"dmu={dmu},dsig={dsig},p=({p11},{p22})", dmu, dsig, p11, p22)
        for dmu, dsig in ((2.0, 0.0), (0.0, 1.0), (2.0, 1.0))
        for p11, p22 in ((0.9, 0.9), (0.9, 0.5), (0.9, 0.1))
    ]
    return [
        ExperimentConfig(
            dgp=MSARSpec(RegimeParams(0.0, dmu, 1.0, 1.0 + dsig), TransitionMatrix(p11, p22), (phi,)),
            T=T, methods=methods, master_seed=master_seed, label=f"{name},phi={phi},T={T}",
            **PROFILES[profile],
        )
        for phi in (0.1, 0.9)
        for T in (100, 200)
        for name, dmu, dsig, p11, p22 in cells
    ]


def regenerate_coeff_table(
    T_list: Sequence[int],
    draws: int = 1_000_000,
    master_seed: int = 0,
) -> LogisticCoeffTable:
    """Refit the logistic coefficient table from simulated null statistics.

    For each sample size, ``draws`` standard-normal vectors (one stream at any
    block size) are reduced to their statistic quartets over ``row_blocks``,
    and each statistic's empirical distribution is fitted by non-linear least
    squares.
    """
    if draws < 10_000:
        raise ValueError("need at least 10^4 draws per sample size")
    if min(T_list, default=4) < 4:
        raise ValueError("need sample sizes of at least 4 for the statistic quartet")
    entries = {}
    for T in T_list:
        rng = substream(master_seed, DOMAIN_TABLE, T)
        Q = np.empty((draws, 4))
        for block in row_blocks(draws, T):
            Q[block] = quartet_matrix(rng.standard_normal((block.stop - block.start, T)))
        if np.isnan(Q).any():  # degenerate draws are impossible in practice
            Q = Q[~np.isnan(Q).any(axis=1)]
        for j, stat in enumerate(STATISTICS):
            entries[(stat, int(T))] = fit_logistic_cdf(Q[:, j], statistic=stat, T=int(T))
        logger.info("fitted coefficient rows for T=%d", T)
    return LogisticCoeffTable(entries)


def config_digest(pairs: Iterable[tuple[str, object]]) -> str:
    """Short stable hash of configuration key-value pairs."""
    text = ";".join(f"{k}={v}" for k, v in sorted(pairs, key=lambda kv: kv[0]))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence], meta: str = "") -> None:
    """Write a run's output file: a ``# meta`` line if ``meta`` is given, the
    header, then the rows, every line ended in ``\\n``."""
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_study_csv(rows: Sequence[StudyRow], path: str | Path, header_meta: str = "") -> None:
    """Write study rows; a leading comment line records run metadata."""
    write_csv(path, ["label", "method", "T", "replications", "reject_rate", "mc_se",
                     "wall_time_s", "failed", "error"],
              ([row.label, row.method, row.T, row.replications, repr(row.reject_rate),
                repr(row.mc_se), f"{row.wall_time_s:.3f}", int(row.failed), row.error]
               for row in rows), header_meta)


def write_empirical_csv(rows: Sequence[LinearityReport], path: str | Path, header_meta: str = "") -> None:
    """Write an empirical report: method, p-value, phi_1..phi_r, |z|."""
    r = max((len(row.phi_at_report) for row in rows), default=0)
    write_csv(path, ["method", "p_value"] + [f"phi_{k+1}" for k in range(r)]
              + ["min_root_modulus", "N", "seed", "grid_points"],
              ([row.method, repr(row.p_value)] + [repr(float(p)) for p in row.phi_at_report]
               + [repr(row.min_root_modulus), row.N, row.seed, row.grid_points_evaluated]
               for row in rows), header_meta)
