"""The library names that the benchmark's tracer hooks into still resolve.

``perfbench/tracing.py`` wraps functions and methods by module attribute
and reads memo statistics through ``cache_info()``; a refactor that
renames or inlines one of them would silently drop its per-layer metric
from traced runs.  The tracer is loaded by path, and installed only in
a fresh interpreter.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_traced_query_counts_plethysm_degrees():
    # a counter reads its call's arguments, so a changed signature would
    # zero it without failing anything; installing replaces module
    # attributes, hence a fresh interpreter
    script = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(TRACING.parent)!r}]",
        "import tracing",
        "tracer = tracing.Tracer()",
        "tracer.install()",
        "import arrstab",
        "arrstab.kequal_char(6, 3, 2, 3)",
        "print(json.dumps(tracer.metrics()))",
    ])
    done = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    metrics = json.loads(done.stdout)
    assert metrics["symfunc.plethysm.calls"] > 0
    assert metrics["symfunc.plethysm.degree_sum"] > 0


def test_traced_lattice_model_reaches_every_layer():
    # the chains and the traces each run behind a traced name.  A degree
    # other than the Lefschetz one, as at the top of the 3-equal lattice
    # at n=6, whose homology is {1: 10, 2: 10}, is traced on cocycles of
    # the coboundary pass, so the integer elimination is never called
    script = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(TRACING.parent)!r}]",
        "import tracing",
        "tracer = tracing.Tracer()",
        "tracer.install()",
        "from arrstab import Partition",
        "from arrstab.oracle import sw_complement_char",
        "assert sw_complement_char(6, 2, [Partition((3, 1, 1, 1))], 6)",
        "print(json.dumps(tracer.metrics()))",
    ])
    done = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    metrics = json.loads(done.stdout)
    assert metrics["oracle.trace.calls"] > 0
    assert metrics["oracle.eliminate.calls"] == 0
    assert metrics["oracle.IntervalHomology.chains"] > 0
