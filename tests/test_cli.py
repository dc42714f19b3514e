import itertools
import json
from pathlib import Path

import pytest

from courantalg import deform
from courantalg.cli import SCHEMA, DocumentError, ProblemDocument, run_document

DOCUMENTS = Path(__file__).resolve().parent.parent / "docs" / "documents"


def so3_document(commands):
    return {
        "schema": SCHEMA,
        "backend": {"kind": "freepoly", "vars": []},
        "module": {
            "rank": 3,
            "basis": ["e1", "e2", "e3"],
            "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        },
        "connection": {"kind": "flat"},
        "elements": {
            "m": {
                "type": "cmap",
                "degree": 3,
                "values": {
                    "e1,e2": ["0", "0", "1"], "e2,e1": ["0", "0", "-1"],
                    "e2,e3": ["1", "0", "0"], "e3,e2": ["-1", "0", "0"],
                    "e3,e1": ["0", "1", "0"], "e1,e3": ["0", "-1", "0"],
                },
            }
        },
        "commands": commands,
    }


def test_verify_courant_command():
    report, code = run_document(so3_document([{"op": "verify-courant", "element": "m"}]))
    assert code == 0
    assert report["commands"][0]["verdict"] is True


def test_bracket_command_self_vanishes():
    report, code = run_document(so3_document([{"op": "bracket", "lhs": "m", "rhs": "m"}]))
    assert code == 0
    assert report["commands"][0]["zero"] is True


def test_j_invert_round_trip():
    report, code = run_document(so3_document([{"op": "j-invert", "element": "m", "degree": 3}]))
    assert code == 0
    rec = report["commands"][0]
    assert rec["round_trip"] is True
    assert "e1∧e2∧e3" in rec["preimage"]


def test_cohomology_command():
    report, code = run_document(
        so3_document([{"op": "cohomology", "element": "m", "r": [0, 1], "d": [0, 0]}])
    )
    assert code == 0
    table = {(row["r"], row["d"]): row["dim"] for row in report["commands"][0]["table"]}
    assert table[(0, 0)] == 1 and table[(1, 0)] == 0


def test_cohomology_command_builds_each_block_once(monkeypatch):
    calls = []

    def counting_block(cs, r, d):
        calls.append((r, d))
        return real_block(cs, r, d)

    real_block = deform.delta_block
    monkeypatch.setattr(deform, "delta_block", counting_block)
    report, code = run_document(json.loads((DOCUMENTS / "cohomology_standard.json").read_text()))
    assert code == 0 and report["commands"][0]["delta_squared_zero"] is True
    # r 0..3, d -1..1: each block is built by cohomology_dims alone, once
    assert sorted(calls) == sorted(itertools.product(range(0, 4), range(-1, 2)))


def test_cohomology_of_a_dual_number_der_generator_is_rejected():
    # over the dual numbers {Theta, .} leaves the internal-degree block when
    # Theta has a Der factor, so the window has no table: exit 2, no traceback
    doc = {
        "schema": SCHEMA,
        "backend": {"kind": "dualnum", "var": "eps"},
        "module": {"basis": ["e", "f", "g"], "internal_degrees": [-1, 1, 0],
                   "gram": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]},
        "connection": {"kind": "flat"},
        "elements": {"theta": {"type": "roth", "terms": ["-1 * d(eps) (x) f", "1 * 1 (x) e^f^g"]}},
        "commands": [{"op": "cohomology", "element": "theta", "r": [0, 1], "d": [0, 1]}],
    }
    report, code = run_document(doc)
    assert code == 2
    assert "leaves the internal-degree block" in report["error"]


def test_standard_module_document():
    doc = {
        "schema": SCHEMA,
        "module": {"standard": 1},
        "commands": [
            {"op": "verify-courant"},
            {"op": "cohomology", "r": [0, 2], "d": [0, 0]},
        ],
    }
    report, code = run_document(doc)
    assert code == 0
    assert report["commands"][0]["verdict"] is True


def test_counterexample_command():
    doc = {
        "schema": SCHEMA,
        "backend": {"kind": "dualnum"},
        "module": {"rank": 1, "basis": ["e1"], "gram": [["1"]]},
        "commands": [{"op": "counterexample-sder"}],
    }
    report, code = run_document(doc, seed=3)
    assert code == 0
    rec = report["commands"][0]
    assert rec["in_complex_degree4"] is True
    assert rec["image_member_degree4"] is False
    assert rec["certificate"]


def test_wedge_both_modes():
    doc = so3_document([])
    doc["elements"]["x"] = {"type": "module", "coeffs": ["1", "0", "0"]}
    doc["elements"]["y"] = {"type": "module", "coeffs": ["0", "1", "0"]}
    doc["commands"] = [{"op": "wedge", "lhs": "x", "rhs": "y", "mode": "both"}]
    report, code = run_document(doc)
    assert code == 0
    assert report["commands"][0]["modes_agree"] is True


def test_roth_elements_and_j_map():
    doc = {
        "schema": SCHEMA,
        "module": {"standard": 1},
        "elements": {"theta": {"type": "roth", "terms": ["(-1) * d(x) (x) f1"]}},
        "commands": [{"op": "j-map", "element": "theta", "name": "m"},
                     {"op": "verify-courant", "element": "m"}],
    }
    report, code = run_document(doc)
    assert code == 0
    assert report["commands"][1]["verdict"] is True


def test_failed_verification_exit_code():
    doc = so3_document([{"op": "verify-courant", "element": "m"}])
    doc["elements"]["m"]["values"]["e1,e2"] = ["0", "0", "2"]  # break the table
    report, code = run_document(doc)
    assert code == 1
    assert report["ok"] is False
    assert report["commands"][0]["verdict"] is False


def test_malformed_gram_rejected_before_compute():
    doc = so3_document([{"op": "verify-courant", "element": "m"}])
    doc["module"]["gram"][0][1] = "1"  # not symmetric
    report, code = run_document(doc)
    assert code == 2
    assert "symmetric" in report["error"]


def test_unresolved_reference():
    report, code = run_document(so3_document([{"op": "bracket", "lhs": "m", "rhs": "ghost"}]))
    assert code == 2
    assert "ghost" in report["error"]


def test_unknown_op_and_schema():
    report, code = run_document(so3_document([{"op": "frobnicate"}]))
    assert code == 2
    report, code = run_document({"schema": "nope/9"})
    assert code == 2


def test_reports_are_deterministic():
    doc = so3_document([
        {"op": "verify-courant", "element": "m"},
        {"op": "bracket", "lhs": "m", "rhs": "m"},
        {"op": "cohomology", "element": "m", "r": [0, 1], "d": [0, 0]},
    ])
    a, _ = run_document(doc, seed=7)
    b, _ = run_document(doc, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _standard(module=None, **fields):
    return dict({"schema": SCHEMA, "module": module or {"standard": 1}}, **fields)


def _so3(**fields):
    doc = so3_document([])
    doc.update(fields)
    return doc


def _so3_rank(rank):
    return _so3(module=dict(so3_document([])["module"], rank=rank))


@pytest.mark.parametrize("doc", [
    pytest.param(_standard({"standard": "abc"}), id="standard-text"),
    pytest.param(_standard({"standard": -1}), id="standard-negative"),
    pytest.param(_standard({"standard": 1, "rank": 7, "gram": 5}), id="standard-extra-keys"),
    pytest.param(_standard(backend={"kind": "dualnum"}), id="standard-backend"),
    pytest.param(_standard(connection={"kind": "bogus"}), id="standard-connection"),
    pytest.param(_so3(connection=[1]), id="connection-list"),
    pytest.param(_so3(module={"gram": 5}), id="gram-int"),
    pytest.param(_so3(elements=[1]), id="elements-list"),
    pytest.param(_so3(backend={"kind": "freepoly", "vars": 5}), id="vars-int"),
    pytest.param(_so3(backend={"kind": "freepoly", "vars": ["x", "x"]}), id="vars-repeated"),
    pytest.param(_so3(elements={"a": {"type": "cmap", "degree": 3, "values": [1]}}), id="cmap-values-list"),
    pytest.param(_so3(commands=[{"op": 3}]), id="op-int"),
    pytest.param(_so3(commands=[{"op": "bracket", "rhs": "m"}]), id="bracket-no-lhs"),
    pytest.param(_so3(commands=[{"op": "wedge", "lhs": "m", "rhs": "m", "mode": "zzz"}]), id="wedge-mode"),
    pytest.param(_so3(commands=[{"op": "verify-courant"}]), id="verify-no-element"),
    pytest.param(_so3(commands=[{"op": "verify-courant", "element": "m", "depth": -1}]),
                 id="verify-negative-depth"),
    pytest.param(_so3(commands=[{"op": "cohomology", "element": "m", "r": "ab"}]), id="window-text"),
    pytest.param(_so3_rank(7), id="rank-mismatch"),
    pytest.param(_so3_rank("3"), id="rank-text"),
])
def test_malformed_documents_rejected(doc):
    report, code = run_document(doc)
    assert code == 2
    assert report["ok"] is False and report["error"]
