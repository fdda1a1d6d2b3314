"""The benchmark's workloads: inputs from the workload seed, one op, its checks.

Every workload alternates between two input sizes (study cells with T=100
and T=200; the 135- and 239-observation GNP growth series), one op of each
per pair, so any run that stops after a whole pair has the same mix.  A
workload's ``sizes`` names them, smaller first.

Op inputs come from a fixed pool that the workload seed orders, so that
every op a run can reach has an exact output digest recorded in
``golden.json`` from the seed commit.  Each pool entry is distinct: study
entry (cell, rep) uses master seed ``1000 * cell + rep``, and empirical
entry (series, k) uses ``--seed k`` on its series.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bootstrap import PACKAGE
from regimetest import cli, harness

WORKLOADS = ("study_all", "study_linearity", "empirical_r4")
LINEARITY_METHODS = ("LMC_min", "LMC_prod", "MMC_min", "MMC_prod")

#: Replicate seeds per study cell in the input pool (640 and 2000 entries).
#: A 28 s run reaches about 60 ``study_all`` ops and 900 ``study_linearity`` ops.
STUDY_POOL_REPS = {"study_all": 16, "study_linearity": 50}
SERIES = {"hamilton": "gnp_hamilton_levels.csv", "extended": "gnp_extended_levels.csv"}
EMPIRICAL_POOL_SEEDS = 20
MC_REPLICATES = 100


@dataclass(frozen=True)
class Op:
    """One op: its pool entry, its size class and its arguments."""

    key: str
    size: str
    args: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class StudyWorkload:
    """One op is one replication of one desk-profile study cell, driven
    through ``run_size_power_study`` with ``replications=1``.  Ops cycle over
    all 40 cells in an order drawn from the workload seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.methods = harness.STUDY_METHODS if name == "study_all" else LINEARITY_METHODS
        self.sizes = ("T100", "T200")
        self.grid = harness.default_study_grid("desk", methods=self.methods)
        self.reps = STUDY_POOL_REPS[name]
        self.by_size = [
            np.array([i for i, cfg in enumerate(self.grid) if cfg.T == T]) for T in (100, 200)
        ]
        self.rep_offset = np.random.default_rng(seed).integers(self.reps, size=len(self.grid))

    def pool(self) -> list[Op]:
        """Every pool entry once (for recording the golden digests)."""
        return [
            Op(f"{cell}/{rep}", f"T{cfg.T}", (cell, rep))
            for cell, cfg in enumerate(self.grid)
            for rep in range(self.reps)
        ]

    def op(self, index: int) -> Op:
        cycle, pos = divmod(index, len(self.grid))
        rng = np.random.default_rng([self.seed, cycle])
        cells = rng.permutation(self.by_size[pos % 2])
        cell = int(cells[pos // 2])
        rep = int((self.rep_offset[cell] + cycle) % self.reps)
        return Op(f"{cell}/{rep}", f"T{self.grid[cell].T}", (cell, rep))

    def run(self, op: Op):
        cell, rep = op.args
        cfg = replace(self.grid[cell], replications=1, master_seed=1000 * cell + rep)
        return harness.run_size_power_study([cfg])

    def check(self, op: Op, rows) -> tuple[str, str | None]:
        """Digest of the study rows (wall time left out) and the first
        violated invariant, if any."""
        record = repr([
            (r.label, r.method, r.T, r.replications, r.reject_rate, r.mc_se, r.failed, r.error)
            for r in rows
        ])
        if [r.method for r in rows] != list(self.methods):
            return digest(record), f"rows for {[r.method for r in rows]}, expected {self.methods}"
        failed = [r for r in rows if r.failed]
        if failed:
            return digest(record), f"cell failed: {failed[0].error}"
        reject = {r.method: r.reject_rate for r in rows}
        if any(v not in (0.0, 1.0) for v in reject.values()):
            return digest(record), f"one replication gave reject rates {reject}"
        for rule in ("min", "prod"):
            # the MMC grid contains the OLS point, so MMC p >= LMC p
            if reject[f"MMC_{rule}"] > reject[f"LMC_{rule}"]:
                return digest(record), f"MMC_{rule} rejects but LMC_{rule} does not"
        return digest(record), None


class EmpiricalWorkload:
    """One op is ``regimetest test`` run in-process on one vendored GNP
    series at r=4 with N=100 and the default 9^4 MMC grid, writing its CSV
    report into the benchmark's work directory."""

    def __init__(self, seed: int, workdir: Path):
        self.name = "empirical_r4"
        self.seed = seed
        self.sizes = tuple(SERIES)  # T=135 and T=239 growth rates
        self.out = workdir / "report.csv"
        rng = np.random.default_rng(seed)
        self.order = [rng.permutation(EMPIRICAL_POOL_SEEDS) for _ in SERIES]

    def pool(self) -> list[Op]:
        return [
            Op(f"{series}/{k}", series, (series, k))
            for series in SERIES
            for k in range(EMPIRICAL_POOL_SEEDS)
        ]

    def op(self, index: int) -> Op:
        which, visit = index % 2, index // 2
        series = list(SERIES)[which]
        k = int(self.order[which][visit % EMPIRICAL_POOL_SEEDS])
        return Op(f"{series}/{k}", series, (series, k))

    def run(self, op: Op) -> int:
        series, k = op.args
        argv = [
            "test", "--series", str(PACKAGE / "data" / SERIES[series]),
            "--transform", "logdiff100", "--lags", "4", "--mc", str(MC_REPLICATES),
            "--seed", str(k), "--out", str(self.out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, op: Op, status: int) -> tuple[str, str | None]:
        """Digest of the CSV report rows (the config comment left out) and
        the first violated invariant, if any."""
        with open(self.out, newline="") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        self.out.unlink()  # a later op that writes nothing must not pass on this report
        record = digest("\n".join(lines))
        if status != 0:
            return record, f"exit status {status}"
        rows = {row["method"]: row for row in csv.DictReader(lines)}
        if list(rows) != list(LINEARITY_METHODS):
            return record, f"report rows {list(rows)}"
        p = {m: float(row["p_value"]) for m, row in rows.items()}
        for method, value in p.items():
            ranks = value * MC_REPLICATES
            if abs(ranks - round(ranks)) > 1e-9 or not 1 <= round(ranks) <= MC_REPLICATES:
                return record, f"{method} p-value {value!r} is not k/{MC_REPLICATES}, 1 <= k <= N"
        for rule in ("min", "prod"):
            if p[f"MMC_{rule}"] < p[f"LMC_{rule}"]:
                return record, f"MMC_{rule} p {p[f'MMC_{rule}']} < LMC_{rule} p {p[f'LMC_{rule}']}"
        return record, None


def make(name: str, seed: int, workdir: Path):
    """The workload's inputs; builds nothing on disk."""
    if name == "empirical_r4":
        return EmpiricalWorkload(seed, workdir)
    if name in STUDY_POOL_REPS:
        return StudyWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
