"""The library imports nothing outside itself and the standard library."""

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


def test_every_library_module_is_checked():
    assert len(SOURCES) > 5 and any(p.name == "poly.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_imports_only_the_standard_library(path):
    assert _foreign_imports(path) == []


def test_a_foreign_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import poly\nimport numpy as np\nfrom hypothesis import given\n")
    assert _foreign_imports(probe) == ["numpy", "hypothesis"]
