"""The regimetest benchmark.

    python3 perfbench/run.py --workload study_all --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28      # every workload in turn

One process drives the package in a closed loop: one client, the next op
only after the previous one finished, ``--workers`` left at 1, BLAS pinned
to one thread.  The workloads (see ``workloads.py``):

* ``study_all``: one desk-study replication with all six methods.  CHP is
  about 90% of it, so a CHP change shows here and nowhere else.
* ``study_linearity``: the same cells with LMC/MMC only; CHP is bypassed and
  the null ensemble (seeding and ``quartet_matrix`` on 99 x T) dominates.
* ``empirical_r4``: ``regimetest test`` at r=4 with a 9^4 MMC grid on the
  GNP series: the stationarity filter and ``quartet_matrix`` on 6561 x T.

Each run times set-up in fresh interpreters (``setup_probe.py``) before
and after it measures ops, and runs one untimed warm-up pair of ops first.
With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from start to
  ready (imports, coefficient table, workload inputs);
* ``ops_per_s``: ops completed per second of the measured phase's wall time;
* ``op_p50_ms``: median op latency, taken per input size and averaged over
  the two sizes.  The sizes alternate and their latencies do not overlap,
  so a plain median would sit in the gap between them and jump.  Where a
  size has at least ``2 * BLOCK_OPS`` ops, its median is taken in blocks of
  about ``BLOCK_OPS`` consecutive ops and averaged over the blocks: the
  machine switches between fast and slow spells lasting seconds, and the
  median of the whole mixture jumps across the gap between the two speeds
  when the slow share nears one half, where block medians move in
  proportion to it;
* ``peak_rss_mb``: peak resident memory of this process.

All are as measured.  ``op_p90_ms`` (where each size has at least 100 ops,
so 10 lie beyond it) and ``error_rate`` go to the summary line, not the
JSON: they are missing on some workloads or zero on correct code.  Failed
ops are the JSON's ``failed``.

With ``--trace 1`` the run measures untraced for half of ``--seconds``,
then replays the same ops under :class:`tracer.Tracer`, requires identical
outputs, and reports per-layer metrics per op plus the tracing overhead.

Every op's output is checked against invariants and against the digest
recorded from the seed commit in ``golden.json``; a mismatch is a failed op.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bootstrap import BENCH_DIR, ROOT, MissingPackage, check_origin, prepare

PROBES = 6
BLOCK_OPS = 20
SMOKE_PAIRS = 2
MAX_PROBLEMS_SHOWN = 5


@dataclass
class Phase:
    """Ops run back to back: size class, latency and output digest of each,
    and the wall time of the whole phase."""

    sizes: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    records: list[str | None] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def n(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.n / self.wall_s

    def by_size(self) -> dict[str, list[float]]:
        groups: dict[str, list[float]] = defaultdict(list)
        for size, latency in zip(self.sizes, self.latencies):
            groups[size].append(latency)
        return groups

    def p50_ms(self) -> float:
        medians = []
        for v in self.by_size().values():
            k = max(1, len(v) // BLOCK_OPS)
            blocks = [v[i * len(v) // k:(i + 1) * len(v) // k] for i in range(k)]
            medians.append(statistics.fmean(statistics.median(b) for b in blocks))
        return 1e3 * statistics.fmean(medians)

    def p90_ms(self) -> float | None:
        groups = self.by_size().values()
        if min(len(v) for v in groups) < 100:
            return None
        return 1e3 * statistics.fmean(statistics.quantiles(v, n=10)[8] for v in groups)


class Runner:
    """Runs, times and checks ops; counts attempts and failures."""

    def __init__(self, workload, golden: dict[str, str]):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def fail(self, key: str, problem: str) -> None:
        self.failed += 1
        if self.failed <= MAX_PROBLEMS_SHOWN:
            print(f"FAILED op {key}: {problem}", file=sys.stderr)

    def run_one(self, index: int) -> tuple[str, float, str | None]:
        op = self.workload.op(index)
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.run(op)
        except Exception:
            elapsed = perf_counter() - start
            self.fail(op.key, traceback.format_exc())
            return op.size, elapsed, None
        elapsed = perf_counter() - start
        try:
            record, problem = self.workload.check(op, out)
        except Exception:
            record, problem = None, traceback.format_exc()
        if problem is None and self.golden.get(op.key) != record:
            problem = f"output digest {record} differs from golden {self.golden.get(op.key)}"
        if problem is not None:
            self.fail(op.key, problem)
        return op.size, elapsed, record

    def phase(self, start: int, *, seconds: float | None = None, count: int | None = None) -> Phase:
        """Ops ``start, start+1, ...`` until ``count`` ran, or until
        ``seconds`` passed at the end of a whole pair of sizes."""
        result = Phase()
        begin = perf_counter()
        index = start
        while True:
            done = index - start
            if count is not None and done >= count:
                break
            if seconds is not None and done and done % 2 == 0 and perf_counter() - begin >= seconds:
                break
            size, elapsed, record = self.run_one(index)
            result.sizes.append(size)
            result.latencies.append(elapsed)
            result.records.append(record)
            index += 1
        result.wall_s = perf_counter() - begin
        return result


class SetupTimes:
    """Wall times from starting a fresh interpreter to its ready line, and
    the stage times each interpreter reports.  Probes run before and after
    the measured ops, so that one slow moment of the machine does not set
    the median."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(workdir)]
        self.walls: list[float] = []
        self.stages: dict[str, list[float]] = defaultdict(list)

    def probe(self, count: int) -> None:
        for _ in range(count):
            start = perf_counter()
            with subprocess.Popen(self.command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                wall = perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=120)
            if proc.returncode != 0 or not line:
                raise RuntimeError(f"setup probe exited with status {proc.returncode}")
            self.walls.append(wall)
            for stage, seconds in json.loads(line).items():
                self.stages[stage].append(seconds)

    def median_s(self) -> float:
        return statistics.median(self.walls)

    def median_stages(self) -> dict[str, float]:
        return {stage: statistics.median(v) for stage, v in self.stages.items()}


def layer_metrics(tracer, sizes: tuple[str, str], plain: Phase, traced: Phase,
                  setup: SetupTimes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase, per op unless the unit says
    otherwise.  ``sizes`` names the workload's smaller and larger input."""
    n = traced.n
    spans = tracer.spans
    count = tracer.counters

    def calls(fn: str) -> tuple[float, str]:
        return spans[fn].calls / n, "1/op"

    def self_ms(fn: str) -> tuple[float, str]:
        return spans[fn].self_ns / 1e6 / n, "ms/op"

    qm = spans["moments.quartet_matrix"]
    elements = count["moments.quartet_matrix.elements"]
    candidates = count["linearity.build_grid.points"]
    rep_ms = plain.by_size()
    m: dict[str, tuple[float, str]] = {
        f"setup.{stage}": (seconds, "s") for stage, seconds in setup.median_stages().items()
    }
    m.update({
        "seeding.seed_sequence.calls": calls("_seeding.seed_sequence"),
        "seeding.seed_sequence.self_ms": self_ms("_seeding.seed_sequence"),
        "moments.quartet_matrix.calls": calls("moments.quartet_matrix"),
        "moments.quartet_matrix.rows": (count["moments.quartet_matrix.rows"] / n, "1/op"),
        "moments.quartet_matrix.self_ms": self_ms("moments.quartet_matrix"),
        "moments.quartet_matrix.ns_per_element": (qm.self_ns / elements if elements else 0.0, "ns"),
        "moments.quartet_matrix.input_mb_computed": (
            tracer.peaks.get("moments.quartet_matrix.input_mb", 0.0), "MB"),
        "moments.compute_quartet.calls": calls("moments.compute_quartet"),
        "mctest.simulate_null_quartets.calls_per_op": calls("mctest.simulate_null_quartets"),
        "mctest.simulate_null_quartets.self_ms": self_ms("mctest.simulate_null_quartets"),
        "mctest.simulate_null_quartets.resampled": (
            count["mctest.simulate_null_quartets.resampled"] / n, "1/op"),
        "mctest.approx_pvalue_matrix.self_ms": self_ms("mctest.approx_pvalue_matrix"),
        "mctest.rank_pvalues.points": (count["mctest.rank_pvalues.points"] / n, "1/op"),
        "mctest.rank_pvalues.ties": (count["mctest.rank_pvalues.ties"] / n, "1/op"),
        "linearity.build_grid.self_ms": self_ms("linearity.build_grid"),
        "linearity.build_grid.points": (candidates / n, "1/op"),
        "linearity.build_grid.kept_ratio": (
            count["linearity.build_grid.kept"] / candidates if candidates else 0.0, "ratio"),
        "linearity.mmc_grid_pvalues.self_ms": self_ms("linearity.mmc_grid_pvalues"),
        "linearity.lmc_test.calls": calls("linearity.lmc_test"),
        "linearity.mmc_test.calls": calls("linearity.mmc_test"),
        "linearity.ols_ar_fit.calls": calls("linearity.ols_ar_fit"),
        "msar.min_root_modulus.calls": calls("msar.min_root_modulus"),
        "msar.min_root_modulus.self_ms": self_ms("msar.min_root_modulus"),
        "chp.chp_bootstrap_test.self_ms": self_ms("chp.chp_bootstrap_test"),
        "chp.null_score_panel.calls": calls("chp.null_score_panel"),
        "chp.null_score_panel.self_ms": self_ms("chp.null_score_panel"),
        "chp.unit_root_fallbacks": (count["chp.unit_root_fallbacks"] / n, "1/op"),
        "msar.simulate_msar.self_ms": self_ms("msar.simulate_msar"),
        "msar.simulate_chain.self_ms": self_ms("msar.simulate_chain"),
        "harness.run_size_power_study.self_ms": self_ms("harness.run_size_power_study"),
        "harness.run_empirical.self_ms": self_ms("harness.run_empirical"),
        "harness.ingest_series.self_ms": self_ms("harness.ingest_series"),
        # untraced median op time by input size: T=100/T=200 cells, T=135/T=239 series
        "harness.rep_ms.small_T": (1e3 * statistics.median(rep_ms[sizes[0]]), "ms"),
        "harness.rep_ms.large_T": (1e3 * statistics.median(rep_ms[sizes[1]]), "ms"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.ops": (float(n), "count"),
        "trace.op_ms": (1e3 / traced.ops_per_s(), "ms"),
        "trace.overhead_pct": (100.0 * (1.0 - traced.ops_per_s() / plain.ops_per_s()), "%"),
    })
    return m


def run_workload(args, workdir: Path) -> tuple[dict, Runner, dict[str, tuple[float, str]], str]:
    import workloads
    from meta import run_metadata

    workload = workloads.make(args.workload, args.seed, workdir)
    golden = json.loads(Path(args.golden).read_text()).get(workload.name, {})
    meta = run_metadata()
    meta.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    setup = SetupTimes(workload.name, args.seed, workdir)
    probes = 1 if args.smoke else PROBES // 2
    setup.probe(probes)
    runner = Runner(workload, golden)
    runner.phase(0, count=2)  # warm-up pair: checked, not timed
    measure = {"count": 2 * SMOKE_PAIRS} if args.smoke else {"seconds": args.seconds}

    if not args.trace:
        timed = runner.phase(2, **measure)
        setup.probe(probes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p90 = timed.p90_ms()
        summary = (
            f"{workload.name}: setup_s={setup.median_s():.4f} s  "
            f"ops_per_s={timed.ops_per_s():.4f} 1/s  op_p50_ms={timed.p50_ms():.3f} ms  "
            f"op_p90_ms={'not reported' if p90 is None else f'{p90:.3f} ms'}  "
            f"peak_rss_mb={rss_mb:.1f} MB  error_rate={runner.failed / runner.attempted:.4f} "
            f"({runner.failed}/{runner.attempted} ops)  timed ops={timed.n} "
            f"{ {k: len(v) for k, v in timed.by_size().items()} }"
        )
        return meta, runner, {
            "setup_s": (setup.median_s(), "s"),
            "ops_per_s": (timed.ops_per_s(), "1/s"),
            "op_p50_ms": (timed.p50_ms(), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }, summary

    from tracer import Tracer

    half = {"count": SMOKE_PAIRS} if args.smoke else {"seconds": args.seconds / 2}
    plain = runner.phase(2, **half)
    with Tracer() as tracer:
        traced = runner.phase(2, count=plain.n)
    setup.probe(probes)
    for index, (a, b) in enumerate(zip(plain.records, traced.records)):
        if a != b:
            runner.fail(f"#{index + 2}", f"traced output {b} differs from untraced {a}")
    metrics = layer_metrics(tracer, workload.sizes, plain, traced, setup)
    summary = (
        f"{workload.name} traced: {traced.n} ops, outputs identical to untraced: "
        f"{plain.records == traced.records}, overhead {metrics['trace.overhead_pct'][0]:.1f}% "
        f"({plain.ops_per_s():.4f} -> {traced.ops_per_s():.4f} ops/s)"
    )
    return meta, runner, metrics, summary


def run_all(args) -> int:
    """Every workload in its own process (so each has its own peak RSS)."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--golden", str(args.golden)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with status {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="study_all, study_linearity, empirical_r4, or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=28.0, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per phase and two set-up probes, for the self-test")
    parser.add_argument("--golden", default=str(BENCH_DIR / "golden.json"),
                        help="reference output digests")
    args = parser.parse_args(argv)
    try:
        prepare()
        check_origin()
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        meta, runner, metrics, summary = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"# {summary}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
