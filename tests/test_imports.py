"""Import structure of the package: one direction, no imports inside functions.

Modules sit in three tiers, core -> acquisition -> harness.  A module may
import from its own tier or a lower one, never from a higher one, and every
import is at module level, so no cycle is hidden behind a lazy import.  No
module imports another's underscore-prefixed names: what one module calls of
another is that module's public function, the one its tests check.  And the
package itself uses every public name (one in a module's ``__all__``), so
none exists only for tests.  No module imports a threading or process-pool
library: a run is one thread.  A config dataclass's ``__post_init__``
raises only FieldError, so every broken rule names its field.  And neither
``ModelSpec`` nor ``Dataset`` stores a ``dtype`` or a ``divisor``: a model
computes in its parameter vector's dtype and uint8 features are pixels over
255, facts the arrays carry, so no field has to be kept in step with them.
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


def private_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every underscore-prefixed name imported from an allab module."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "allab")
        for alias in node.names
        if alias.name.startswith("_")
    ]


CONCURRENCY = {"threading", "concurrent", "multiprocessing", "_thread"}


def concurrency_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of every import of a threading or process-pool library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name.split(".")[0] in CONCURRENCY)
    return found


def public_names(tree: ast.Module) -> list[str]:
    """The names in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the code reads, bare or as an attribute.  Definitions,
    imports, ``__all__``'s strings, docstrings and comments read none."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


CONFIG_CLASSES = {"DatasetConfig", "ModelConfig", "ExperimentConfig", "TrainConfig"}


def post_inits(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The ``__post_init__`` of each config dataclass the module defines."""
    return {
        cls.name: fn
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
    }


ARRAY_FACTS = {"dtype", "divisor"}
DESCRIPTIONS = {"ModelSpec", "Dataset"}


def class_fields(tree: ast.Module, names) -> dict[str, list[str]]:
    """The annotated fields of each class in ``names`` the module defines."""
    return {
        cls.name: [
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in names
    }


def raises(fn: ast.FunctionDef) -> list[tuple[int, str]]:
    """(line, exception) of every raise in ``fn``, the exception as written
    without its arguments ('' for a bare re-raise)."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, ast.unparse(exc) if exc else ""))
    return sorted(found)


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


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported_across_modules(module):
    private = [f"{module}.py:{line} imports {name}" for line, name in private_imports(parse(module))]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_no_threading_or_process_pool(module):
    found = [f"{module}.py:{line} imports {name}" for line, name in concurrency_imports(parse(module))]
    assert found == []


def test_every_public_name_is_used_by_the_package():
    used = set().union(*(referenced_names(parse(m)) for m in MODULES))
    unused = [f"{m}.{name}" for m in MODULES for name in public_names(parse(m)) if name not in used]
    assert unused == []


def test_config_rules_raise_only_field_errors():
    found = {}
    for m in MODULES:
        found.update(post_inits(parse(m)))
    assert set(found) == CONFIG_CLASSES
    other = [
        f"{cls}.__post_init__:{line} raises {exc or 'bare'}"
        for cls, fn in sorted(found.items())
        for line, exc in raises(fn)
        if exc != "FieldError"
    ]
    assert other == []


def test_model_and_data_descriptions_store_no_array_facts():
    found = {}
    for m in MODULES:
        found.update(class_fields(parse(m), DESCRIPTIONS))
    assert set(found) == DESCRIPTIONS
    stored = [f"{cls}.{name}" for cls, fields in sorted(found.items()) for name in fields if name in ARRAY_FACTS]
    assert stored == []


def test_checker_sees_the_violations_it_forbids():
    tree = ast.parse(
        "from .experiment import run_cell\n"
        "import allab.cli\n"
        "from allab import config\n"
        "from .layers import relu, _affine_forward\n"
        "def f():\n"
        "    from .acquisition import acquire\n"
        "__all__ = ['f', 'relu', 'unused']\n"
        "def unused():\n"
        "    'calls unused() and relu()'\n"
        "    return f  # and unused\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import threading, multiprocessing.pool\n"
        "class TrainConfig:\n"
        "    def __post_init__(self):\n"
        "        if self.epochs < 2:\n"
        "            raise FieldError('epochs', 'must be >= 2')\n"
        "        raise ValueError('epochs must be even')\n"
        "class ModelSpec:\n"
        "    layer_sizes: tuple\n"
        "    dtype: object = None\n"
    )
    assert [t for _, t in package_imports(tree)] == [
        "experiment", "cli", "config", "layers", "acquisition"
    ]
    assert lazy_imports(tree) == [(6, "f")]
    assert private_imports(tree) == [(4, "_affine_forward")]
    assert [n for n in public_names(tree) if n not in referenced_names(tree)] == ["relu", "unused"]
    assert concurrency_imports(tree) == [
        (11, "concurrent.futures"), (12, "threading"), (12, "multiprocessing.pool")
    ]
    assert list(post_inits(tree)) == ["TrainConfig"]
    assert raises(post_inits(tree)["TrainConfig"]) == [(16, "FieldError"), (17, "ValueError")]
    assert class_fields(tree, DESCRIPTIONS) == {"ModelSpec": ["layer_sizes", "dtype"]}
