"""Packaging guards: declared entry points exist, the library never
relies on ``assert``, which ``python -O`` strips, no library module
imports a name it never uses, and the benchmark can still drive the
library."""

import ast
import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_script_entry_point_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} -> {target} is not callable"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_benchmark_still_drives_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # resolves every traced name, or raises
    finally:
        tracer.uninstall()
    res = run.run("glue", seed=1, seconds=0, trace=False, bound=2)
    assert res["correct"] is True and res["failed"] == 0
