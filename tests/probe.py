"""Snippets run in a fresh interpreter that imports the package from this
checkout: for what a process loads, and for bytes under numpy's SIMD
dispatch switched off."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import regimetest

SRC = str(Path(regimetest.__file__).resolve().parents[1])


def run_probe(code: str, **env: str) -> str:
    """The standard output of ``python -c code``, with ``env`` added to this
    process's environment less any ``NPY_DISABLE_CPU_FEATURES``."""
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def dispatched_cpu_features() -> list[str]:
    """The features numpy picks ufunc loops for at run time and this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
