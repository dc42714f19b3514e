"""Fresh imports of the library under test, and the facts recorded with a run."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "courantalg"
SUBMODULES = ("poly", "modules", "rothstein", "cmaps", "symbol_map", "linalg",
              "deform", "textforms", "cli")


def library_modules() -> dict:
    """The imported modules of the package, by name."""
    return {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}


def unload_library():
    """Forget every imported module of the package."""
    for name in library_modules():
        del sys.modules[name]


def load_library() -> SimpleNamespace:
    """Import the package from scratch.

    The bracket and wedge caches in `cmaps` are module globals and are never
    evicted, so every setup drops the previous import and starts cold.
    """
    unload_library()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError("library source not found under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    mods = {name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in SUBMODULES}
    return SimpleNamespace(package=package, all_modules=[package, *mods.values()], **mods)


def _git_commit() -> str:
    """HEAD of the enclosing git checkout, read from files; 'none' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_facts(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
