"""Spans around the library's layer boundaries, installed from outside.

Each traced function is replaced at every module attribute of the
library that refers to it, which is where its callers look it up.  A
span is (name, start, end, parent); spans stay in memory until
``write`` is called.  A name's self time is the sum of its spans'
durations minus the durations of their direct child spans (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns


def _degree_sum(args, kwargs, result) -> int:
    max_degree = kwargs.get("max_degree", args[2] if len(args) > 2 else None)
    return max_degree or 0


def _terms_in(args, kwargs, result) -> int:
    f = args[0]
    return len(f) if f.basis.value == "p" else 0


def _lattice_elements(args, kwargs, result) -> int:
    return len(result)


def _eliminate_rows(args, kwargs, result) -> int:
    rows = args[0]
    return len(rows) if hasattr(rows, "__len__") else 0


def _chains(args, kwargs, result) -> int:
    return sum(len(s) for deg, s in args[0].simplices.items() if deg >= 0)


# (module, attribute, span name, (counter name, amount after each call))
FUNCTIONS = (
    ("arrstab.symfunc.plethysm", "plethysm", "symfunc.plethysm", ("symfunc.plethysm.degree_sum", _degree_sum)),
    ("arrstab.symfunc.core", "to_schur", "symfunc.to_schur", ("symfunc.to_schur.terms_in", _terms_in)),
    ("arrstab.symfunc.core", "to_power", "symfunc.to_power", None),
    ("arrstab.symfunc.core", "mul", "symfunc.mul", None),
    ("arrstab.stability", "kequal_char", "stability.kequal_char", None),
    ("arrstab.stability", "sharp_bound_certified", "stability.sharp_bound_certified", None),
    ("arrstab.stability", "is_stable_step", "stability.is_stable_step", None),
    ("arrstab.oracle", "sw_complement_char", "oracle.sw_complement_char", None),
    ("arrstab.oracle.posets", "build_pi_lambda", "oracle.build_pi_lambda", ("oracle.lattice_elements", _lattice_elements)),
    ("arrstab.oracle.linalg", "eliminate", "oracle.eliminate", ("oracle.eliminate.rows", _eliminate_rows)),
    ("arrstab.oracle.groups", "induced_character", "oracle.induced_character", None),
    ("arrstab.oracle.groups", "stabilizer", "oracle.stabilizer", None),
    ("arrstab.oracle.groups", "conjugacy_classes", "oracle.conjugacy_classes", None),
    ("arrstab.oracle.groups", "orientation_sign", "oracle.orientation_sign", None),
    ("arrstab.partitions", "all_set_partitions", "partitions.all_set_partitions", None),
    ("arrstab.cli", "main", "cli.main", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("arrstab.oracle.homology", "IntervalHomology", "__init__", "oracle.IntervalHomology",
     ("oracle.IntervalHomology.chains", _chains)),
    ("arrstab.oracle.homology", "IntervalHomology", "trace", "oracle.trace", None),
)

# Memoized functions recurse through their own cache, so they are read
# from cache_info() instead of being wrapped.
CACHES = (
    ("arrstab.symfunc.characters", "sn_character", "symfunc.sn_character"),
    ("arrstab.symfunc.lr", "lr_expand", "symfunc.lr_expand"),
)

# Span whose distinct first four arguments (the query key) are counted.
DISTINCT = ("stability.kequal_char", "stability.kequal_char.distinct")


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: set[tuple] = set()
        self._cache_start: dict[str, tuple[int, int]] = {}

    def wrap(self, name, fn, counter):
        spans, stack, counts, keys = self.spans, self.stack, self.counts, self.keys
        if counter is not None:
            counter_name, amount = counter
            counts[counter_name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counts[counter_name] += amount(args, kwargs, result)
            if name == DISTINCT[0]:
                keys.add(tuple(args[:4]))
            return result

        return traced

    def install(self) -> None:
        """Replace every library reference to the traced functions."""
        for module_name, *_ in FUNCTIONS + METHODS + CACHES:
            importlib.import_module(module_name)
        library = [m for n, m in sys.modules.items() if n == "arrstab" or n.startswith("arrstab.")]
        for module_name, attr, name, counter in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original, counter)
            for module in library:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for module_name, cls_name, method, name, counter in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method), counter))
        for module_name, attr, name in CACHES:
            info = getattr(importlib.import_module(module_name), attr).cache_info()
            self._cache_start[name] = (info.hits, info.misses)

    def metrics(self) -> dict[str, float]:
        """Every figure the tracer knows; a layer never reached reads 0."""
        out: dict[str, float] = {}
        for name in [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += ((end - start) - child_ns[idx]) / 1e9
        out.update(self.counts)
        out[DISTINCT[1]] = len(self.keys)
        for module_name, attr, name in CACHES:
            info = getattr(importlib.import_module(module_name), attr).cache_info()
            hits0, misses0 = self._cache_start[name]
            out[f"{name}.hits"] = info.hits - hits0
            out[f"{name}.misses"] = info.misses - misses0
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def wrapper_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the least time of ``repeats``
    loops of ``calls`` wrapped no-op calls, less the least for plain
    calls, per call.  Uses a tracer of its own, whose spans are dropped."""
    tracer = Tracer()
    traced = tracer.wrap("noop", _noop, None)
    best = {}
    for fn in (_noop, traced):
        times = []
        for _ in range(repeats):
            start = perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(perf_counter_ns() - start)
            tracer.spans.clear()
        best[fn] = min(times)
    return max(0, best[traced] - best[_noop]) / calls / 1e9
