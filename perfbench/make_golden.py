"""Record ``golden.json``: the exact output digest of every op in every
workload's input pool.

Run it on the commit whose outputs are the reference, from the repository
root::

    python3 perfbench/make_golden.py

It takes about ten minutes on one core.  Any op that raises or breaks an
invariant stops the recording, since a reference must be valid output.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from bootstrap import BENCH_DIR, prepare

GOLDEN = BENCH_DIR / "golden.json"


def main() -> int:
    prepare()
    import workloads
    from meta import run_metadata

    golden: dict[str, object] = {"recorded_with": run_metadata()}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=BENCH_DIR.parent) as tmp:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, 0, Path(tmp))
            start = time.perf_counter()
            table = {}
            for op in workload.pool():
                record, problem = workload.check(op, workload.run(op))
                if problem is not None:
                    print(f"{name} {op.key}: {problem}", file=sys.stderr)
                    return 1
                table[op.key] = record
            golden[name] = table
            print(f"{name}: {len(table)} ops in {time.perf_counter() - start:.1f} s")
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
