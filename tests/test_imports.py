"""Import structure of the package: one direction, no imports inside functions.

Modules sit in three tiers, core -> acquisition -> harness.  A module may
import from its own tier or a lower one, never from a higher one, and every
import is at module level, so no cycle is hidden behind a lazy import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "allab"

CORE = {"errors", "seeding", "layers", "mmd", "dataio", "model", "trainer", "pool"}
HARNESS = {"config", "experiment", "gradcheck", "cli", "__main__", "__init__"}
TIER = {**{m: 0 for m in CORE}, "acquisition": 1, **{m: 2 for m in HARNESS}}

MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of every import of an allab module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.append((node.lineno, node.module.split(".")[0]))
            elif node.level == 1:  # from . import x
                found.extend((node.lineno, alias.name) for alias in node.names)
            elif node.module and node.module.split(".")[0] == "allab":
                parts = node.module.split(".")
                if len(parts) > 1:
                    found.append((node.lineno, parts[1]))
                else:
                    found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "allab" and len(parts) > 1:
                    found.append((node.lineno, parts[1]))
    return found


def lazy_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, function) of every import statement inside a function body."""
    return [
        (inner.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]


def test_every_module_has_a_tier():
    assert set(MODULES) <= set(TIER), f"unclassified: {sorted(set(MODULES) - set(TIER))}"


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    assert [f"{module}.py:{line} in {fn}()" for line, fn in lazy_imports(parse(module))] == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down_the_tiers(module):
    upward = [
        f"{module}.py:{line} imports {target}"
        for line, target in package_imports(parse(module))
        if TIER.get(target, -1) > TIER[module]
    ]
    assert upward == []


def test_checker_sees_the_violations_it_forbids():
    tree = ast.parse(
        "from .experiment import run_cell\n"
        "import allab.cli\n"
        "from allab import config\n"
        "def f():\n"
        "    from .acquisition import acquire\n"
    )
    assert [t for _, t in package_imports(tree)] == ["experiment", "cli", "config", "acquisition"]
    assert lazy_imports(tree) == [(5, "f")]
