"""Run metadata: machine, library versions, BLAS, data and code identity."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

from bootstrap import BLAS_THREADS, PACKAGE, ROOT


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout;
    ``None`` when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    """One hash over the package's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict[str, object]:
    """Vendor from numpy's build record; thread count as OpenBLAS reports it
    at run time (``None`` where the library cannot be queried)."""
    import numpy as np

    info: dict[str, object] = {"pinned_threads": BLAS_THREADS, "vendor": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def run_metadata() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "logistic_coeffs_sha256": _sha256(PACKAGE / "data" / "logistic_coeffs.csv"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "client": "closed loop, one client, workers=1",
    }
