"""The library names that the benchmark's tracer hooks into still resolve.

``perfbench/tracing.py`` wraps functions and methods by module attribute
and reads memo statistics through ``cache_info()``; a refactor that
renames or inlines one of them would silently drop its per-layer metric
from traced runs.  The tracer is loaded by path and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    assert tracing.FUNCTIONS
    for module_name, attr, *_ in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"


def test_traced_methods_resolve(tracing):
    assert tracing.METHODS
    for module_name, cls_name, method, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, f"{module_name}.{cls_name}"
        assert callable(getattr(cls, method, None)), f"{module_name}.{cls_name}.{method}"


def test_traced_caches_report_statistics(tracing):
    assert tracing.CACHES
    for module_name, attr, _ in tracing.CACHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}"
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0, f"{module_name}.{attr}"
