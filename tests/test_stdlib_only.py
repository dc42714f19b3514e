"""The library imports nothing outside itself and the standard library, and
no library module but the package's `__init__` imports a name it never uses."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "courantalg").glob("*.py"))


def _foreign_imports(path: Path) -> list[str]:
    """The top-level names of the imports in path outside courantalg and the standard library."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import stays inside the package
        out += [name for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"courantalg"}]
    return out


def _unused_imports(path: Path) -> list[str]:
    """The names bound by the imports in path that no expression of path reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_library_module_is_checked():
    assert len(SOURCES) > 5 and any(p.name == "poly.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_a_foreign_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import poly\nimport numpy as np\nfrom hypothesis import given\n")
    assert _foreign_imports(probe) == ["numpy", "hypothesis"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=[p.name for p in SOURCES if p.name != "__init__.py"])
def test_library_modules_use_every_name_they_import(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\n"
                     "from . import poly as p\n\n\ndef f(a: p.Poly):\n    return gcd(a, os.sep)\n")
    assert _unused_imports(probe) == ["lcm"]
