"""Every name the package exports and every name the benchmark reaches exists.

The benchmark wraps and calls package functions by name (bench/tracing.py,
bench/pipeline.py), so deleting or renaming one of them breaks the benchmark
without failing any other test.  These tests only read the bench sources.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import bernfit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_references():
    """(file, module, name) for every `from bernfit.module import name` in
    bench/*.py, and every `module.name` whose module came from
    `from bernfit import module`."""
    refs = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "bernfit":
                aliases |= {a.asname or a.name: a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bernfit."):
                refs += [(path.name, node.module[8:], a.name) for a in node.names]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                refs.append((path.name, aliases[node.value.id], node.attr))
    return refs


def test_all_names_resolve():
    for name in bernfit.__all__:
        assert getattr(bernfit, name, None) is not None, name


def test_traced_functions_exist():
    tracing = _tracing()
    pairs = tracing.TIMED + tracing.COUNTED
    assert pairs
    for mod, fname in pairs:
        module = importlib.import_module(f"bernfit.{mod}")
        assert callable(getattr(module, fname, None)), f"{mod}.{fname}"
    for name in tracing.KEYED + tracing.OBSERVED:
        assert tuple(name.split(".")) in tracing.TIMED, name
    for mod in tracing.MODULES:
        importlib.import_module(f"bernfit.{mod}")


def test_bench_references_exist():
    refs = _bench_references()
    assert refs
    missing = [
        f"{file}: bernfit.{mod}.{name}"
        for file, mod, name in refs
        if not hasattr(importlib.import_module(f"bernfit.{mod}"), name)
    ]
    assert not missing
