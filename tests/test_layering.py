"""Module layering: each package module imports only the modules below it.

The table is the package's import graph, read with ``ast`` from the source,
so an import added inside a function counts as well.  ``_linalg`` serves the
oracle alone; the crystal layer reaches linear algebra only through it.

The same reading finds nested functions that call themselves: such a
function refers to itself through its closure cell, so every call of the
function around it leaves a reference cycle for the collector.  It also
finds reads of the process environment, which no package module makes: an
environment variable would be an input that no flag or config shows.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "loopcrystal"

#: the package modules each module may import
ALLOWED = {
    "starlattice": set(),
    "_linalg": set(),
    "ktheory": {"starlattice"},
    "catalog": {"ktheory", "starlattice"},
    "components": {"catalog", "ktheory", "starlattice"},
    "oracle": {"_linalg", "ktheory", "components", "starlattice"},
    "crystal": {"catalog", "components", "ktheory", "oracle", "starlattice"},
    "cli": {"catalog", "components", "crystal", "ktheory", "oracle", "starlattice"},
    "__init__": {"starlattice"},
    "__main__": {"cli"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, relatively
    (``from . import x``, ``from .x import y``) or by the package name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "loopcrystal":
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "loopcrystal" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_table_names_every_module():
    assert {path.stem for path in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_layers(module):
    extra = package_imports(SRC / f"{module}.py") - ALLOWED[module]
    assert not extra, f"{module} imports {sorted(extra)}"


def test_reader_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import os\n"
        "import loopcrystal.oracle\n"
        "from loopcrystal import crystal as cr\n"
        "from loopcrystal.ktheory import KClass\n"
        "from . import _linalg, catalog as cat\n"
        "from .components import Multisegment\n"
        "from collections import deque\n"
        "def late():\n"
        "    from .cli import main\n"
    )
    assert package_imports(path) == {
        "oracle", "crystal", "ktheory", "_linalg", "catalog", "components", "cli",
    }


def self_naming_closures(path: Path) -> list[str]:
    """``module.outer.inner`` for each nested function in the module at
    ``path`` whose body names the function itself."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    owner = {}
    for outer in ast.walk(ast.parse(path.read_text())):
        if isinstance(outer, functions):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, functions):
                    owner.setdefault(inner, outer)
    return [
        f"{path.stem}.{outer.name}.{inner.name}"
        for inner, outer in owner.items()
        if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
    ]


def test_no_nested_function_names_itself():
    found = [name for path in sorted(SRC.glob("*.py")) for name in self_naming_closures(path)]
    assert not found, f"recursive closures leave reference cycles: {found}"


def test_closure_reader_sees_nested_self_reference(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def outer():\n"
        "    def walk(n):\n"
        "        return walk(n - 1) if n else 0\n"
        "    def flat(n):\n"
        "        return n\n"
        "    return walk(3) + flat(1)\n"
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
    )
    assert self_naming_closures(path) == ["m.outer.walk"]


def environment_reads(path: Path) -> list[str]:
    """``module:line`` for each ``environ`` or ``getenv`` that the module at
    ``path`` names, as an attribute (``os.environ``) or imported by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("environ", "environb", "getenv", "getenvb"):
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in environment_reads(path)]
    assert not found, f"package modules read the environment: {found}"


def test_environment_reader_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import os\n"
        "from os import environ, getenv as ge\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "c = os.devnull\n"
    )
    assert sorted(environment_reads(path)) == ["m:2", "m:2", "m:3", "m:4"]
