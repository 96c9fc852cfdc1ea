"""Spans around the calls into each physlice module's public functions.

``Tracer.install`` replaces every public function of the traced modules (a
function defined there whose name has no leading underscore) with a wrapper,
in every physlice namespace that holds a reference to it, which is where its
callers look the name up (``physlice.mi.positive_child``,
``physlice.transform.butterfly_mixer`` and so on). ``uninstall`` puts the
originals back. Spans stay in memory as (id, parent, run, name, start, end,
work) and are written out when the run ends; ``run`` is the index of the
``run_scenario`` call a span belongs to.

A span opened on a worker thread with no open span of its own takes the
outermost open span (the ``run_scenario`` call) as its parent. A span's self
time is its duration minus the union of its children's intervals, so time a
caller spends waiting on a thread pool while worker spans run is not self
time, and time no worker covers is.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import statistics
import threading
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("channel", "mi", "spectral", "transform", "txrx", "sliceplan", "experiments")

# ``is_pow2`` is a one-line predicate inside argument checks; a wrapper would
# cost more than the call and swamp the modules that use it.
UNTRACED = {"spectral.is_pow2"}

# Computed work per call, summed per realization: FFT points of the per-bin
# MI, and n^3 of every dense Cholesky log-det (a flop proxy).
WORK = {
    "mi.mi_fast": lambda args: len(args[0]),
    "spectral.logdet2_psd": lambda args: len(args[0]) ** 3,
}


class Tracer:
    def __init__(self, physlice):
        self.spans: list[tuple] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        namespaces = [physlice] + [
            module for module in vars(physlice).values()
            if inspect.ismodule(module) and module.__name__.startswith(physlice.__name__ + ".")
        ]
        self._patches: list[tuple[object, str, object, object]] = []
        self.functions: list[str] = []
        for layer in LAYERS:
            module = getattr(physlice, layer)
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
                if not public or name in UNTRACED:
                    continue
                wrapper = self._wrap(name, fn, WORK.get(name))
                self.functions.append(name)
                for namespace in namespaces:
                    for key, value in vars(namespace).items():
                        if value is fn:
                            self._patches.append((namespace, key, fn, wrapper))

    def _wrap(self, name, fn, work):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = span
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if self._root == span:
                    self._root = None
                amount = work(args) if work else 0
                self.spans.append((span, parent, self.run, name, start, end, amount))

        return traced

    def install(self) -> None:
        for namespace, key, _, wrapper in self._patches:
            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original, _ in self._patches:
            setattr(namespace, key, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write('["id", "parent", "run", "name", "start_ns", "end_ns", "work"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time of every span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span, _, _, _, start, end, _ in spans:
        covered = 0
        reach = start
        for lo, hi in sorted(children.get(span, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span] = end - start - covered
    return result


def layer_metrics(spans, functions, realizations: int, traced_ns: int) -> dict[str, float]:
    """Per-function calls per realization, median us per call and self time share,
    computed work per realization, and per-module self time share.

    Shares are self time over the traced blocks' wall time; on a thread pool
    they can add up to more than one.
    """
    selfs = self_times(spans)
    durations: dict[str, list[int]] = {name: [] for name in functions}
    work: dict[str, int] = {}
    own = {name: 0 for name in functions}
    module_self = {layer: 0 for layer in LAYERS}
    for span, _, _, name, start, end, amount in spans:
        durations[name].append(end - start)
        work[name] = work.get(name, 0) + amount
        own[name] += selfs[span]
        module_self[name.split(".", 1)[0]] += selfs[span]
    metrics: dict[str, float] = {}
    for name, values in sorted(durations.items()):
        metrics[f"{name}.calls"] = len(values) / realizations
        metrics[f"{name}.us"] = statistics.median(values) / 1e3 if values else 0.0
        metrics[f"{name}.self_share"] = own[name] / traced_ns
    metrics["mi.mi_fast.fft_points"] = work.get("mi.mi_fast", 0) / realizations
    metrics["spectral.logdet2_psd.n3"] = work.get("spectral.logdet2_psd", 0) / realizations
    for layer, total in module_self.items():
        metrics[f"{layer}.self_share"] = total / traced_ns
    return metrics
