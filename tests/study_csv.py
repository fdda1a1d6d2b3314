"""Reader of the study CSV that ``regimetest.harness.write_study_csv``
writes, for the round-trip tests."""

from __future__ import annotations

import csv
from pathlib import Path

from regimetest.harness import StudyRow


def read_study_csv(path: str | Path) -> list[StudyRow]:
    """Parse a study CSV back into rows (exactly as printed)."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [
        StudyRow(
            label=rec["label"], method=rec["method"], T=int(rec["T"]),
            replications=int(rec["replications"]),
            reject_rate=float(rec["reject_rate"]), mc_se=float(rec["mc_se"]),
            wall_time_s=float(rec["wall_time_s"]),
            failed=bool(int(rec["failed"])), error=rec["error"],
        )
        for rec in csv.DictReader(lines)
    ]
