"""The package is one layering: each module imports, at module level only,
package modules below it in LAYERS.  `__init__` sits above all of them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "udcodes"
LAYERS = ("words", "_graph", "decide", "kraft", "census", "enumeration", "cli")


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def package_imports(tree):
    """Names of the package modules a module imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "udcodes":
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("udcodes.")
            )
    return found


def test_package_imports_only_the_standard_library():
    """udcodes runs on a bare Python: it depends on nothing but the
    standard library."""
    imported = set()
    for name in ("__init__",) + LAYERS:
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported <= sys.stdlib_module_names


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_lower_layers(name):
    below = set(LAYERS[: LAYERS.index(name)])
    assert package_imports(parse(name)) <= below


def test_oracles_share_no_graph_code_with_the_decider():
    """The brute-force oracles in enumeration find their own cycles, so a
    fault in the decider's graph helpers cannot hide from the cross-check."""
    assert "_graph" not in package_imports(parse("enumeration"))


@pytest.mark.parametrize("name", ("__init__",) + LAYERS)
def test_no_import_inside_a_function(name):
    nested = [
        (function.name, node.lineno)
        for function in ast.walk(parse(name))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def modules_at_start_up(*flags):
    """The modules a fresh interpreter holds once `import udcodes.cli` returns."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = "import sys, udcodes.cli; print(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """Every CLI command and probe worker pays for what `import udcodes.cli`
    loads; dataclasses (which loads inspect) cost about a quarter of it."""
    assert {"dataclasses", "inspect"}.isdisjoint(modules_at_start_up())


def test_start_up_without_site_loads_no_pathlib():
    assert "pathlib" not in modules_at_start_up("-S")
