"""Self-test of the benchmark (about a minute on one core)::

    python3 perfbench/selftest.py

Checks, each workload in smoke mode (a few ops per phase):

* with ``--trace 0`` exactly the ``end_to_end`` metrics of ``BENCHMARK.json``
  are emitted, with ``--trace 1`` exactly its ``per_layer`` metrics, each
  with its unit, and every op passes its checks on correct code;
* OpenBLAS runs on the pinned thread count, as it reports at run time;
* the traced run shows the predicted shape: CHP self time dominates
  ``study_all`` and is zero elsewhere, and ``study_linearity`` builds four
  null ensembles per op;
* with every golden digest corrupted, every op is reported as failed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bootstrap import BENCH_DIR, BLAS_THREADS, ROOT

RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    command = [sys.executable, str(cwd / RUN.relative_to(ROOT)), "--workload", workload,
               "--seed", "11", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def result_of(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """The run's result and its metadata."""
    status, lines = run(workload, trace, *extra)
    if status != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit status {status}")
    meta = next(json.loads(ln[len("# meta "):]) for ln in lines if ln.startswith("# meta "))
    return json.loads(lines[-1]), meta


def check(ok: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            result, meta = result_of(workload, trace)
            threads = meta["blas"]["threads"]
            check(threads == BLAS_THREADS,
                  f"{workload} trace={trace}: {threads} BLAS threads at run time", failures)
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            check(emitted == expected, f"{workload} trace={trace}: {section} metrics and units", failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: {result['attempted']} ops, {result['failed']} failed",
                  failures)
            if trace:
                value = {name: entry["value"] for name, entry in result["metrics"].items()}
                chp = value["chp.chp_bootstrap_test.self_ms"]
                if workload == "study_all":
                    check(chp > 0.5 * value["trace.op_ms"],
                          f"study_all: CHP self {chp:.0f} of {value['trace.op_ms']:.0f} ms/op", failures)
                else:
                    check(chp == 0.0, f"{workload}: no CHP time", failures)
                if workload == "study_linearity":
                    calls = value["mctest.simulate_null_quartets.calls_per_op"]
                    check(calls == 4.0, f"study_linearity: {calls} null ensembles per op", failures)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())
        for name in WORKLOADS:
            golden[name] = {key: "0" * len(d) for key, d in golden[name].items()}
        corrupted = Path(tmp) / "golden.json"
        corrupted.write_text(json.dumps(golden))
        result, _ = result_of("study_linearity", 0, "--golden", str(corrupted))
        check(not result["correct"] and result["failed"] == result["attempted"] > 0,
              f"corrupted golden digests: {result['failed']} of {result['attempted']} ops failed",
              failures)

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        status, lines = run(WORKLOADS[0], 0, cwd=bare)
        printed_result = bool(lines) and lines[-1].startswith("{")
        check(status != 0 and not printed_result,
              f"without the package: exit status {status}, result printed: {printed_result}",
              failures)

    print("self-test " + ("passed" if not failures else f"FAILED: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
