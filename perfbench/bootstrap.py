"""Pinning the BLAS thread count and locating the package under test.

Every benchmark entry point imports this module before anything imports
numpy: OpenBLAS reads its thread count from the environment once, when it
loads, so the pin is set here at import time.  :func:`prepare` then makes
the package come from the checkout's ``src/`` tree, never from an installed
copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "regimetest"

#: One BLAS thread (the machine the benchmark was defined on has two cores).
#: ``mmc_test`` at r=4 runs faster on one OpenBLAS thread than on two there,
#: so an unpinned thread count alone would move ``empirical_r4`` by more than
#: its bound.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: str(BLAS_THREADS) for name in BLAS_ENV})


class MissingPackage(RuntimeError):
    """The checkout has no ``src/regimetest`` to benchmark."""


def prepare() -> None:
    """Put the checkout's ``src/`` first on the path.

    Imports nothing, so callers can time the imports that follow.  Raises
    :class:`MissingPackage` when the checkout holds no package.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingPackage(f"no package at {PACKAGE}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_origin() -> None:
    """Raise :class:`MissingPackage` unless ``regimetest`` came from ``src/``."""
    import regimetest

    origin = Path(regimetest.__file__).resolve().parent
    if origin != PACKAGE.resolve():
        raise MissingPackage(f"regimetest was imported from {origin}, not {PACKAGE}")
