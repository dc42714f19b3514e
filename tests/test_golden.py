"""Byte-for-byte golden outputs of the shipped documents and demos.

`tests/golden.json` holds, for each `docs/documents/*.json`, the exit code
and the stdout of the CLI in both report formats, and the stdout of each
`demos/*.py`.  A refactor that keeps verdicts and reports keeps this file.
After an intended change of output, regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from courantalg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DOCUMENTS = sorted((ROOT / "docs" / "documents").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _document_output(path: Path, fmt: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(path), "--format", fmt])
    return {"exit": code, "stdout": out.getvalue()}


def _demo_output(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def current_outputs() -> dict:
    return {
        "documents": {p.name: {fmt: _document_output(p, fmt) for fmt in ("json", "human")}
                      for p in DOCUMENTS},
        "demos": {p.name: _demo_output(p) for p in DEMOS},
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_document_and_demo():
    golden = _golden()
    assert sorted(golden["documents"]) == [p.name for p in DOCUMENTS]
    assert sorted(golden["demos"]) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
@pytest.mark.parametrize("fmt", ["json", "human"])
def test_document_report_is_unchanged(path, fmt):
    assert _document_output(path, fmt) == _golden()["documents"][path.name][fmt]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(path):
    assert _demo_output(path) == _golden()["demos"][path.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(current_outputs(), indent=1, sort_keys=True) + "\n")
