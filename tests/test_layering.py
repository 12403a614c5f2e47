"""Module layering: each package module imports only the modules below it.

The table is the package's import graph, read with ``ast`` from the source,
so an import added inside a function counts as well.  ``_linalg`` serves the
oracle alone; the crystal layer reaches linear algebra only through it.

The same reading finds nested functions that call themselves: such a
function refers to itself through its closure cell, so every call of the
function around it leaves a reference cycle for the collector.  It also
finds reads of the process environment, which no package module makes: an
environment variable would be an input that no flag or config shows.  And
it finds every place where ``cli`` turns text into an ``int`` other than
its one reader, which takes ASCII digits after at most one sign.
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


def int_readings(path: Path) -> list[str]:
    """``module:line`` for each place in the module at ``path`` that can turn
    text into an ``int`` without the CLI's one reader, ``integer``: a call
    of ``int``, a ``type=int`` keyword, and a string holding ``\\d``, which
    matches every Unicode digit, unless the pattern is ASCII-only (an inline
    ``(?a)`` flag, or ``re.ASCII``/``re.A`` among the call's arguments)."""
    tree = ast.parse(path.read_text())
    ascii_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Attribute) and arg.attr in ("ASCII", "A")
            for arg in [*node.args, *(kw.value for kw in node.keywords)]
        ):
            ascii_only.update(id(arg) for arg in node.args)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            hit = node.func.id == "int"
        elif isinstance(node, ast.keyword):
            hit = node.arg == "type" and isinstance(node.value, ast.Name) and node.value.id == "int"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hit = "\\d" in node.value and not (
                node.value.startswith("(?a") or id(node) in ascii_only
            )
        else:
            continue
        if hit:
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_cli_reads_integers_through_one_reader():
    found = int_readings(SRC / "cli.py")
    assert not found, f"cli reads integers outside cli.integer: {found}"


def test_int_reading_finder_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import argparse, re\n"
        "a = int('3')\n"
        "argparse.ArgumentParser().add_argument('--n', type=int)\n"
        "b = re.fullmatch(r'\\d+', '3')\n"
        "c = re.fullmatch(r'(?a)\\d+', '3')\n"
        "d = re.compile(r'\\d+', re.ASCII)\n"
        "e = re.fullmatch(r'[0-9]+', '3', flags=re.A)\n"
        "f = type(a) is int\n"
    )
    assert sorted(int_readings(path)) == ["m:2", "m:3", "m:4"]
