"""Set-up in a fresh interpreter: imports, coefficient table, workload inputs.

Started by ``run.py`` with the workload name, seed and work directory; prints
one JSON line of stage times in seconds once the workload is ready, which is
the moment ``run.py`` stops its ``setup_s`` clock.  The dependencies are
imported one by one before ``regimetest`` so that each shows its own cost.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

from bootstrap import prepare

DEPENDENCIES = ("numpy", "scipy.signal", "scipy.optimize", "scipy.special")


def main(name: str, seed: int, workdir: Path) -> None:
    prepare()
    stages: dict[str, float] = {}
    for module in (*DEPENDENCIES, "regimetest"):
        start = perf_counter()
        importlib.import_module(module)
        stages[f"import_s.{module}"] = perf_counter() - start

    start = perf_counter()
    from regimetest.mctest import LogisticCoeffTable

    LogisticCoeffTable.default()
    stages["table_s"] = perf_counter() - start

    start = perf_counter()
    import workloads

    workloads.make(name, seed, workdir)
    stages["inputs_s"] = perf_counter() - start
    print(json.dumps(stages), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
