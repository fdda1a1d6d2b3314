"""Spans and counters around the package's public functions, from outside it.

:class:`Tracer` wraps every public function defined in the traced modules
and rebinds the wrapper in every loaded ``regimetest`` module that holds the
original.  ``from .moments import quartet_matrix`` copies the binding into
``mctest``, ``linearity`` and ``harness``, so patching only the defining
module would silently miss the calls made through them.

Spans are aggregated in memory per function (calls and self time):
an ``empirical_r4`` op alone makes over 10^4 ``min_root_modulus`` calls, so
per-call records would cost more than the work they describe.  A span's self
time is its duration minus the time covered by traced calls inside it.
Counters are read from arguments and return values after the span closes,
and the time they take is kept out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

MODULES = ("_seeding", "moments", "mctest", "linearity", "msar", "chp", "harness", "cli")


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0


def _quartet_matrix(tracer, args, result):
    shape = np.shape(args["X"])
    rows = shape[0] if len(shape) == 2 else 1
    tracer.counters["moments.quartet_matrix.rows"] += rows
    tracer.counters["moments.quartet_matrix.elements"] += rows * shape[-1]
    tracer.peak("moments.quartet_matrix.input_mb", rows * shape[-1] * 8 / 1e6)


def _simulate_null_quartets(tracer, args, result):
    tracer.counters["mctest.simulate_null_quartets.resampled"] += result[1]


def _rank_pvalues(tracer, args, result):
    xi0 = np.atleast_1d(np.asarray(args["xi0"], dtype=float))
    xi_sim = np.asarray(args["xi_sim"], dtype=float)
    tracer.counters["mctest.rank_pvalues.points"] += len(xi0)
    tracer.counters["mctest.rank_pvalues.ties"] += int((xi_sim[None, :] == xi0[:, None]).sum())


def _build_grid(tracer, args, result):
    candidates = args["points_per_dim"] ** len(np.atleast_1d(args["fit"].phi))
    tracer.counters["linearity.build_grid.points"] += candidates
    tracer.counters["linearity.build_grid.kept"] += len(result.points)


def _null_score_panel(tracer, args, result):
    # chp_bootstrap_test starts bootstrap paths from the data when |phi| is this close to 1
    if abs(result.theta0_hat[1]) >= 1.0 - 1e-8:
        tracer.counters["chp.unit_root_fallbacks"] += 1


OBSERVERS = {
    "moments.quartet_matrix": _quartet_matrix,
    "mctest.simulate_null_quartets": _simulate_null_quartets,
    "mctest.rank_pvalues": _rank_pvalues,
    "linearity.build_grid": _build_grid,
    "chp.null_score_panel": _null_score_panel,
}


class Tracer:
    """Context manager: traces the package while active, restores it after."""

    def __init__(self) -> None:
        self.spans: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"regimetest.{short}")
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        loaded = [m for n, m in sys.modules.items() if n == "regimetest" or n.startswith("regimetest.")]
        for module in loaded:
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stats = self.spans[name]
        stack = self._stack
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stats.calls += 1
                stats.self_ns += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                start = perf_counter_ns()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
                if stack:
                    stack[-1][0] += perf_counter_ns() - start
            return result

        return traced
