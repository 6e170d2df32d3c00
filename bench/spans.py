"""Span tracer for the benchmark's traced runs.

Wrappers are installed from the benchmark's own files around the functions
that each lrkengine module defines, at every place a caller looks them up:
the package namespace and the globals of ``chain``, ``thermo``, ``cycles``,
``sweep`` and ``cli`` (so ``sweep.otto_mode_sums``, ``sweep.spectrum_energies``,
``cycles.lncosh`` and ``sweep.max_ratios`` all reach a wrapper).  Each wrapped
call records one span: id, op, name, layer, start, end, parent span and
thread.  Stacks are per thread, so spans opened on a pool thread nest only
within that thread, and busy time can add up to more than wall time.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Private helpers are wrapped only where a counter needs them and
only if they exist (``chain._pairing_sum`` and ``chain._grid_pairing``); a
counter whose helper is missing is reported as absent, never as zero.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("chain", "thermo", "cycles", "sweep", "cli")
OPTIONAL_PRIVATE = {"chain": ("_pairing_sum", "_grid_pairing")}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, op, name, layer, t0, t1, parent id, thread id)
        self.counts = Counter()
        self.active = False
        self.op = -1
        self.grid_pairing = None  # the unwrapped lru cache, when it exists
        self.wrapped_pairing_sum = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, **counts):
        with self._lock:
            self.counts.update(counts)

    def _wrap(self, fn, name, layer):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (None, None)
            sid = next(tracer._ids)
            stack.append((sid, layer))
            result = None  # stays None when the call raises
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, tracer.op, name, layer, t0, t1, parent[0], threading.get_ident())
                )
                if observe is not None:
                    observe(tracer, args, result, parent[1], t1 - t0)

        return wrapper

    def install(self, pkg):
        """Wrap every public function of each layer module where it is bound."""
        modules = {layer: importlib.import_module(f"{pkg.__name__}.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            optional = OPTIONAL_PRIVATE.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if name in optional:
                    if name == "_grid_pairing" and hasattr(obj, "cache_info"):
                        self.grid_pairing = obj
                    self.wrapped_pairing_sum |= name == "_pairing_sum"
                elif name.startswith("_") or not (
                    inspect.isfunction(obj) and obj.__module__ == mod.__name__
                ):
                    continue
                wrapper = self._wrap(obj, name, layer)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def layer_times(self):
        """Call count and self time per layer."""
        covered = defaultdict(float)
        for sid, op, name, layer, t0, t1, parent, th in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for sid, op, name, layer, t0, t1, parent, th in self.spans:
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - covered.get(sid, 0.0)
        return calls, self_s

    def dump(self):
        """Spans as compact columns, for writing out when the run ends."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["id", "op", "name", "start", "end", "parent", "thread"],
            "spans": [
                [sid, op, index[name], round(t0, 9), round(t1, 9), parent, th]
                for sid, op, name, layer, t0, t1, parent, th in self.spans
            ],
        }


def _observe_mode_sums(tracer, args, result, caller_layer, dt):
    shape = np.shape(args[1])  # eps_f: (rows, modes) from the sweeps, (modes,) from a cycle
    counts = {"cycles.cells": int(np.prod(shape)), "cycles.mode_sum_s": dt}
    if caller_layer == "sweep":
        rows = shape[0] if len(shape) == 2 else 1
        counts["sweep.tables" if rows > 1 else "sweep.point_evals"] = 1
    tracer.add(**counts)


def _observe_max_ratios(tracer, args, result, caller_layer, dt):
    counts = {"sweep.max_ratios_calls": 1}
    cusps_W = getattr(result, "cusp_mu_ratios_W", None)
    cusps_eta = getattr(result, "cusp_mu_ratios_eta", None)
    if cusps_W is not None and cusps_eta is not None:
        counts["sweep.cusp_exemptions"] = len(cusps_W) + len(cusps_eta)
    if getattr(result, "excluded", None) is not None:
        counts["sweep.excluded_cells"] = int(result.excluded)
    tracer.add(**counts)


def _observe_pairing_sum(tracer, args, result, caller_layer, dt):
    k, length = args[0], args[1]
    tracer.add(**{"chain.pairing_builds": 1, "chain.pairing_terms": np.size(k) * (length - 1)})


_OBSERVERS = {
    "otto_mode_sums": _observe_mode_sums,
    "stirling_mode_sums": _observe_mode_sums,
    "max_ratios": _observe_max_ratios,
    "_pairing_sum": _observe_pairing_sum,
}
