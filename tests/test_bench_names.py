"""Every package name the benchmark harness reaches for resolves.

`perfbench/tracer.py` patches the functions in its TARGETS table by
`getattr` on the package modules, and the harness's other scripts import
names from the package.  Some of those names have no caller inside the
package, so deleting one breaks only the traced benchmark run; these tests
make it break tier-1 instead.  The harness files are read as text, never
imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def tracer_targets():
    for node in parse(PERFBENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py has no TARGETS table")


def imported_names():
    """(module, name) for every `from udcodes... import name` in the harness,
    and (module, None) for every `import udcodes...`, at any depth."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "udcodes":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "udcodes")
    return sorted(found, key=lambda pair: (pair[0], pair[1] or ""))


def test_harness_reaches_for_the_package():
    assert len(tracer_targets()) > 20
    assert ("udcodes", "canonical_prefix_code") in imported_names()
    assert ("udcodes.cli", None) in imported_names()


@pytest.mark.parametrize("module,attr", tracer_targets())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"udcodes.{module}"), attr))


@pytest.mark.parametrize("module,name", imported_names())
def test_imported_name_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        getattr(imported, name)


def test_traced_code_texts_resolves():
    # the tracer also wraps this method on the Code class itself
    assert callable(importlib.import_module("udcodes.words").Code.texts)
