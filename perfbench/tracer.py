"""Spans around the program's public functions, installed from outside it.

Every public function of the traced modules is replaced by a wrapper at
every module of the package that holds a reference to it (for example
``select_k`` in ``bootstrap``, ``quantile`` and ``cli``), so calls
through any import path are recorded. A span's self time is its
duration minus the time its child spans cover; a module's self time
sums that over the module's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "dirquant"
LAYERS = ("cli", "geometry", "bootstrap", "evt", "stdf", "quantile", "tmodel", "parallel")

# Called hundreds of thousands of times per oracle operation: counted
# only, their time stays with the calling span.
COUNT_ONLY = {"tmodel.t_cdf_1d"}


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _cells(fn, args, kwargs, result) -> dict:
    import numpy as np

    a = _bind(fn, args, kwargs)
    n, d = np.shape(a["sample"])
    q = np.atleast_2d(a["thresholds"]).shape[0]
    return {"stdf.cells": q * n * d}


# Work counts read from the arguments or result of a traced call.
WORK = {
    "bootstrap.optimal_k_for_size": lambda f, a, k, r: {"bootstrap.resamples": _bind(f, a, k)["b"]},
    "parallel.ordered_map": lambda f, a, k, r: {"parallel.items": len(_bind(f, a, k)["items"])},
    "stdf.union_exceedance_counts": _cells,
    "cli.parse_csv": lambda f, a, k, r: {"cli.rows_parsed": r.shape[0]},
}


class Tracer:
    """Accumulates span times and call counts while installed."""

    def __init__(self):
        self.inclusive = defaultdict(float)   # "module.function" -> seconds
        self.self_time = defaultdict(float)   # "module" -> seconds
        self.counts = Counter()               # "module.function" calls and work counts
        self._stack: list[list[float]] = []
        self._swaps: list[tuple[object, str, object]] = []

    def _span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        work = WORK.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == "parallel.ordered_map":
                args, kwargs = self._wrap_callback(fn, args, kwargs)
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_time[layer] += dt - child[0]
                if self._stack:
                    self._stack[-1][0] += dt
                self.inclusive[key] += dt
                self.counts[key] += 1
            if work is not None:
                self.counts.update(work(fn, args, kwargs, result))
            return result

        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_callback(self, fn, args, kwargs):
        """Record the per-item callback of ordered_map as a span of the
        module that defined it, so its work is not booked to ``parallel``."""
        bound = inspect.signature(fn).bind(*args, **kwargs)
        cb = bound.arguments["fn"]
        layer = cb.__module__.rpartition(".")[2]
        bound.arguments["fn"] = self._span(layer, cb.__qualname__, cb)
        return bound.args, bound.kwargs

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    wrappers[obj] = (self._counter(key, obj) if key in COUNT_ONLY
                                     else self._span(layer, name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._swaps.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._swaps):
            setattr(mod, name, obj)
        self._swaps.clear()
