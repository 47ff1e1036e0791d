"""The package is one layering: each module imports, at module level only,
package modules below it in LAYERS.  `__init__` sits above all of them."""

import ast
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
