import io
import itertools
import json
import runpy
import time
from pathlib import Path

import pytest

from courantalg import Backend, MetricModule, Poly, cli, deform
from courantalg.cli import (
    COHOMOLOGY_CAP,
    EXPONENT_CAP,
    MC_ORDER_CAP,
    PROBE_CAP,
    RANK_CAP,
    SCHEMA,
    STANDARD_CAP,
    TRIALS_CAP,
    VARS_CAP,
    DocumentError,
    ProblemDocument,
    run_document,
)
from courantalg.cmaps import DEGREE_CAP, probe_elements
from courantalg.textforms import parse_roth, parse_roth_term

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


def test_j_invert_round_trip_is_checked_by_the_inversion_alone(monkeypatch):
    # invert_J_deg3 compares J(phi) with the table and raises on a mismatch,
    # so the command maps no second image of its own
    def no_second_image(*args):
        raise AssertionError("cmd_j_invert applied J again")

    monkeypatch.setattr(cli, "apply_J", no_second_image)
    report, code = run_document(so3_document([{"op": "j-invert", "element": "m", "degree": 3}]))
    assert code == 0 and report["commands"][0]["round_trip"] is True


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


def test_cohomology_of_a_dual_courant_structure_that_leaves_the_blocks_is_rejected():
    # -D (x) f over the dual numbers is Courant, but Q(eps) = eps f leaves its
    # internal degree; eps f = delta(eps) is exact, so no H^{1,2} may be reported
    doc = {
        "schema": SCHEMA,
        "backend": {"kind": "dualnum", "var": "eps"},
        "module": {"basis": ["e", "f"], "internal_degrees": [-1, 1], "gram": [["0", "1"], ["1", "0"]]},
        "connection": {"kind": "flat"},
        "elements": {"theta": {"type": "roth", "terms": ["-1 * d(eps) (x) f"]}},
        "commands": [{"op": "verify-courant", "element": "theta"},
                     {"op": "cohomology", "element": "theta", "r": [0, 2], "d": [2, 2]}],
    }
    report, code = run_document(doc)
    assert code == 2
    assert "leaves the internal-degree block: ((1,), (), (1,))" in report["error"]
    report, code = run_document(dict(doc, commands=doc["commands"][:1]))
    assert code == 0 and report["commands"][0]["verdict"] is True


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
    pytest.param(_standard({"standard": STANDARD_CAP + 1}), id="standard-above-cap"),
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
    pytest.param(_so3(elements={"m": {"type": "cmap", "degree": 2, "values": {"e1": ["0", "0", "0"]}}},
                      commands=[{"op": "verify-courant", "element": "m"}]), id="verify-degree-2"),
    pytest.param(_standard(elements={"t": {"type": "roth", "terms": ["1 * d(x)vd(x)vd(x) (x) e1^f1"]}},
                           commands=[{"op": "bracket", "lhs": "t", "rhs": "t"}]), id="bracket-above-degree-cap"),
    pytest.param(_standard(elements={"m": {"type": "cmap", "degree": 3, "values": {"e1,f1": ["1", "-2"]}}},
                           commands=[{"op": "j-map", "element": "m"}]), id="j-map-no-preimage"),
    pytest.param(_standard(elements={"m": {"type": "cmap", "degree": 3, "values": {"e1,f1": ["1", "-2"]}}},
                           commands=[{"op": "j-invert", "element": "m"}]), id="j-invert-no-preimage"),
    pytest.param(_standard(elements={"m": {"type": "cmap", "degree": 3, "values": {"e1,f1": ["1", "-2"]}}},
                           commands=[{"op": "chat-membership", "element": "m"}]),
                 id="chat-membership-no-preimage"),
    pytest.param(_so3_rank(7), id="rank-mismatch"),
    pytest.param(_so3_rank("3"), id="rank-text"),
])
def test_malformed_documents_rejected(doc):
    report, code = run_document(doc)
    assert code == 2
    assert report["ok"] is False and report["error"]


def _j_map(terms):
    return _standard(elements={"t": {"type": "roth", "terms": terms}}, commands=[{"op": "j-map", "element": "t"}])


@pytest.mark.parametrize("doc, words", [
    (_j_map(["1 * 1 (x) e1", "1 * 1 (x) e1^f1"]), ["'t' is inhomogeneous", "degrees 1, 2"]),
    (_j_map(["1 * d(x)vd(x)vd(x)vd(x)vd(x) (x) e1"]), ["'t' has degree 11", "DEGREE_CAP"]),
    (_so3(elements={"m": {"type": "cmap", "degree": 2, "values": {"e1": ["0", "0", "0"]}}},
          commands=[{"op": "verify-courant", "element": "m"}]), ["verify-courant", "degree 2"]),
])
def test_degree_checks_name_the_degree_before_tabulating(monkeypatch, doc, words):
    def refuse(*args):
        raise AssertionError("apply_J reached")

    monkeypatch.setattr(cli, "apply_J", refuse)
    report, code = run_document(doc)
    assert code == 2
    assert all(w in report["error"] for w in words)


def test_standard_above_the_cap_is_rejected_before_building():
    doc = _standard({"standard": 12}, commands=[{"op": "cohomology", "r": [0, 0], "d": [0, 0]}])
    start = time.monotonic()
    report, code = run_document(doc)
    assert time.monotonic() - start < 1
    assert code == 2
    assert "STANDARD_CAP" in report["error"] and "12" in report["error"]


def _dense_module(rank):
    """A document over Q[x] with gram 2 on the diagonal and 1 elsewhere (det rank + 1), no commands."""
    return {"schema": SCHEMA, "backend": {"kind": "freepoly", "vars": ["x"]},
            "module": {"gram": [["2" if i == j else "1" for j in range(rank)] for i in range(rank)]}}


def test_a_module_above_the_rank_cap_is_rejected_before_building(monkeypatch):
    assert run_document(_dense_module(RANK_CAP))[1] == 0
    monkeypatch.setattr(cli, "MetricModule", None)  # building one now would raise a TypeError
    start = time.monotonic()
    report, code = run_document(_dense_module(RANK_CAP + 3))  # towers of up to 9^degree entries if built
    assert time.monotonic() - start < 1
    assert code == 2
    assert "RANK_CAP" in report["error"] and str(RANK_CAP + 3) in report["error"]


def test_a_backend_above_the_vars_cap_is_rejected_before_building(monkeypatch):
    names = ["v%d" % i for i in range(100000)]
    doc = dict(_dense_module(1), backend={"kind": "freepoly", "vars": names[:VARS_CAP]})
    assert run_document(doc)[1] == 0
    monkeypatch.setattr(cli, "Backend", None)  # building one now would raise an AttributeError
    start = time.monotonic()
    report, code = run_document(dict(doc, backend={"kind": "freepoly", "vars": names}))
    assert time.monotonic() - start < 1
    assert code == 2
    assert "VARS_CAP" in report["error"] and "100000" in report["error"]


def test_every_cap_is_documented_with_its_value():
    schema = " ".join((DOCUMENTS.parent / "cli_schema.md").read_text().split())
    caps = {name: value for name, value in vars(cli).items() if name.endswith("_CAP")}
    caps["DEGREE_CAP"] = DEGREE_CAP
    assert len(caps) >= 9
    for name, value in caps.items():
        assert "`%s` = %d" % (name, value) in schema, name


def test_the_probe_count_is_the_size_of_the_probe_set():
    for module in (deform.standard_module(1), deform.standard_module(2), ProblemDocument(_so3()).module):
        for depth in range(4):
            assert cli._probe_count(module, depth) == len(probe_elements(module, depth))
    dual = MetricModule(Backend.dual(), [[Poly.one(Backend.dual())]])
    assert [cli._probe_count(dual, depth) for depth in range(3)] == [1, 2, 2]
    assert cli._probe_count(deform.standard_module(4), 1) == PROBE_CAP


@pytest.mark.parametrize("command", [
    {"op": "verify-courant", "depth": 4},
    {"op": "symbol-tower", "element": "t", "depth": 4},
    {"op": "verify-courant", "depth": 10 ** 6},
])
def test_probe_sets_above_the_cap_are_rejected_before_any_probe(monkeypatch, command):
    # {"standard": 2}: rank 4 times the monomials of degree <= depth in two variables
    doc = _standard({"standard": 2}, elements={"t": {"type": "roth", "terms": ["1 * 1 (x) e1^f1"]}},
                    commands=[command])
    monkeypatch.setattr(cli, "verify_courant", None)
    monkeypatch.setattr(cli, "symbol_tower", None)
    start = time.monotonic()
    report, code = run_document(doc)
    assert time.monotonic() - start < 1
    assert code == 2
    assert "PROBE_CAP" in report["error"] and command["op"] in report["error"]


def test_a_probe_set_at_the_cap_is_accepted():
    # 4 x 10 monomials of degree <= 3 in two variables
    doc = _standard({"standard": 2}, elements={"t": {"type": "roth", "terms": ["1 * 1 (x) e1^f1"]}},
                    commands=[{"op": "symbol-tower", "element": "t", "depth": 3}])
    report, code = run_document(doc)
    assert code == 0 and report["commands"][0]["probe_bound"] == 3


def test_sder_trials_above_the_cap_are_rejected_before_any_trial(monkeypatch):
    def document(trials):
        return _standard(commands=[{"op": "counterexample-sder", "degree3_trials": trials}])

    assert run_document(document(TRIALS_CAP))[1] == 0
    monkeypatch.setattr(cli, "chat_membership", None)
    report, code = run_document(document(TRIALS_CAP + 1))
    assert code == 2
    assert "TRIALS_CAP" in report["error"] and str(TRIALS_CAP + 1) in report["error"]


def _half_so3(commands):
    """so(3) with the single value C(e1, e2) = e3: its table is not alternating."""
    return _so3(elements={"m": {"type": "cmap", "degree": 3, "values": {"e1,e2": ["0", "0", "1"]}}},
                commands=commands)


@pytest.mark.parametrize("command", [
    {"op": "bracket", "lhs": "m", "rhs": "m"},
    {"op": "bracket", "lhs": "m", "rhs": "x"},
    {"op": "wedge", "lhs": "m", "rhs": "m", "mode": "both"},
    {"op": "wedge", "lhs": "x", "rhs": "m", "mode": "recursive"},
])
def test_bracket_and_wedge_reject_a_table_outside_the_complex(command):
    doc = _half_so3([command])
    doc["elements"]["x"] = {"type": "module", "coeffs": ["1", "0", "0"]}
    report, code = run_document(doc)
    assert code == 2
    assert report["error"] == ("commands: element 'm' is not an element of the complex: "
                               "swap identity fails at position 1 on ['e1', 'e2', 'e3']")


def test_symbol_tower_rejects_a_table_alternating_only_in_its_first_slots():
    # C(e1, e2) = e3 = -C(e2, e1) fails the swap identity at position 2 only
    values = {"e1,e2": ["0", "0", "1"], "e2,e1": ["0", "0", "-1"]}
    report, code = run_document(_so3(elements=_cmap(3, values), commands=[{"op": "symbol-tower", "element": "m"}]))
    assert code == 1 and report["commands"][0]["verdict"] is False
    assert report["commands"][0]["detail"].endswith("at position 2")


def test_a_table_outside_the_complex_is_read_and_fails_verification():
    report, code = run_document(_half_so3([{"op": "verify-courant", "element": "m"}]))
    assert code == 1 and report["commands"][0]["verdict"] is False
    doc = _standard(elements={"m": {"type": "cmap", "degree": 3, "values": {"e1,f1": ["1", "-2"]}}},
                    commands=[{"op": "symbol-tower", "element": "m"}])
    report, code = run_document(doc)
    assert code == 1 and report["commands"][0]["verdict"] is False


def test_a_computed_result_bound_over_a_table_name_is_not_checked_again():
    # m is rebound to [m, m] of a valid table: later operands named m are results
    doc = so3_document([{"op": "bracket", "lhs": "m", "rhs": "m", "name": "m"},
                        {"op": "wedge", "lhs": "m", "rhs": "m", "mode": "both"}])
    report, code = run_document(doc)
    assert code == 0


@pytest.mark.parametrize("window", [
    {"r": [0, COHOMOLOGY_CAP + 1]},
    {"r": [-COHOMOLOGY_CAP - 1, 0]},
    {"d": [-COHOMOLOGY_CAP - 1, 0]},
    {"d": [0, 10 ** 9]},
])
def test_cohomology_windows_above_the_cap_are_rejected_before_any_block(monkeypatch, window):
    def refuse(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(cli, "cohomology_dims", refuse)
    monkeypatch.setattr(cli, "delta_squared_is_zero", refuse)
    command = dict({"op": "cohomology", "r": [0, 1], "d": [0, 0]}, **window)
    report, code = run_document(_standard(commands=[command]))
    assert code == 2
    assert "COHOMOLOGY_CAP" in report["error"] and str(COHOMOLOGY_CAP) in report["error"]


def test_committed_cohomology_windows_are_within_the_cap():
    for path in DOCUMENTS.glob("*.json"):
        for command in json.loads(path.read_text()).get("commands", []):
            if command.get("op") == "cohomology":
                assert max(abs(v) for v in command.get("r", [0, 5]) + command.get("d", [-3, 3])) <= COHOMOLOGY_CAP


def test_symbol_tower_checks_level_zero_without_derivation_generators():
    # freepoly with no variables has no Der generator, yet level 0 must still
    # satisfy the swap identity against the (zero) symbol
    report, code = run_document(_half_so3([{"op": "symbol-tower", "element": "m"}]))
    assert code == 1 and report["commands"][0]["verdict"] is False
    report, code = run_document(so3_document([{"op": "symbol-tower", "element": "m"}]))
    assert code == 0 and report["commands"][0]["verdict"] is True


@pytest.mark.parametrize("element", [
    {"type": "scalar", "value": "x^%d"},
    {"type": "module", "coeffs": ["1", "x^%d"]},
    {"type": "roth", "terms": ["(x^%d) * d(x) (x) e1"]},
])
def test_exponents_above_the_cap_are_rejected(element):
    def at(power):
        spec = json.loads(json.dumps(element).replace("%d", str(power)))
        return run_document(_standard(elements={"a": spec}, commands=[{"op": "j-map", "element": "a"}]
                                      if element["type"] == "roth" else []))

    report, code = at(EXPONENT_CAP)
    assert code == 0, report
    report, code = at(EXPONENT_CAP + 1)
    assert code == 2
    assert "EXPONENT_CAP" in report["error"] and str(EXPONENT_CAP + 1) in report["error"]


def test_an_exponent_summed_over_factors_is_capped():
    report, code = run_document(_standard(elements={"a": {"type": "scalar", "value": "x^%d*x" % EXPONENT_CAP}}))
    assert code == 2 and "EXPONENT_CAP" in report["error"]


def _one_variable(**fields):
    doc = {"schema": SCHEMA, "backend": {"kind": "freepoly", "vars": ["x"]},
           "module": {"rank": 2, "basis": ["e1", "e2"], "gram": [["1", "0"], ["0", "1"]]}}
    doc.update(fields)
    return doc


def _quartic_over_xy(p_table):
    return {"schema": SCHEMA, "backend": {"kind": "freepoly", "vars": ["x", "y"]},
            "module": {"rank": 1, "basis": ["e1"], "gram": [["1"]]},
            "elements": {"p": {"type": "sder-quartic", "p_table": p_table}, "s": {"type": "scalar", "value": "1"}},
            "commands": [{"op": "wedge", "lhs": "p", "rhs": "s"}]}


def test_sder_quartic_table_keys_are_variable_pairs():
    # p ^ 1 = p, so the wedge reports the quartic's tower: level 2 on sorted generator pairs
    report, code = run_document(_quartic_over_xy({"x,x": "1", "y,y": "2"}))
    assert code == 0
    assert report["commands"][0]["result"]["levels"] == {"2": {"0,0 | ": "1", "1,1 | ": "2"}}
    report, code = run_document(_quartic_over_xy({"y, x": "3"}))
    assert code == 0
    assert report["commands"][0]["result"]["levels"] == {"2": {"0,1 | ": "3"}}


@pytest.mark.parametrize("key", ["foo,bar", "x", "x,y,x", "x,eps", ""])
def test_sder_quartic_rejects_a_bad_table_key(key):
    report, code = run_document(_quartic_over_xy({key: "1"}))
    assert code == 2
    assert "p_table key %r" % key in report["error"], report["error"]


def test_sder_quartic_rejects_one_pair_named_twice():
    report, code = run_document(_quartic_over_xy({"x,y": "1", "y,x": "2"}))
    assert code == 2
    assert "'x,y' and 'y,x' name the same pair" in report["error"], report["error"]


HUGE = "x^40000"  # past poly.EXPONENT_LIMIT as well as EXPONENT_CAP


@pytest.mark.parametrize("doc", [
    _one_variable(elements={"a": {"type": "scalar", "value": HUGE}}),
    _one_variable(elements={"a": {"type": "module", "coeffs": ["1", HUGE]}}),
    _one_variable(module={"rank": 2, "basis": ["e1", "e2"], "gram": [["1", "0"], ["0", HUGE]]}),
    _one_variable(connection={"kind": "christoffel", "gamma": [[[HUGE, "0"], ["0", "0"]]]}),
    _one_variable(elements={"a": {"type": "cmap", "degree": 2, "values": {"e1": [HUGE, "0"]}}}),
    _one_variable(elements={"a": {"type": "cmap", "degree": 2, "values": {}, "symbol": {"": [HUGE]}}}),
    _one_variable(elements={"a": {"type": "roth", "terms": ["(%s) * 1 (x) e1" % HUGE]}}),
    _one_variable(elements={"a": {"type": "sder-quartic", "p_table": {"x,x": HUGE}}}),
], ids=["scalar", "module", "gram", "christoffel", "cmap-value", "symbol", "roth", "sder-quartic"])
def test_a_huge_exponent_names_the_cap_in_every_section(doc):
    # the cap is checked on the parsed exponent tuples, before a Poly could refuse its packed field
    report, code = run_document(doc)
    assert code == 2
    assert "EXPONENT_CAP" in report["error"] and "40000" in report["error"], report["error"]
    assert "EXPONENT_LIMIT" not in report["error"]


def test_the_truncation_flag_is_gone():
    # membership needs no cap, so --truncation is an unknown argument (argparse exits 2)
    with pytest.raises(SystemExit) as ex:
        cli.main([str(DOCUMENTS / "chat_membership_quartic.json"), "--truncation", "1"])
    assert ex.value.code == 2
    report, code = run_document(json.loads((DOCUMENTS / "chat_membership_quartic.json").read_text()))
    record = report["commands"][0]
    assert code == 0 and record["member"] is False
    assert record["truncation_cap"] is None and record["conclusive"] is True


@pytest.mark.parametrize("truncation", [-1, 5])
def test_truncation_outside_the_cap_is_rejected(monkeypatch, truncation):
    # the values the old cap refused are refused still, as an unknown argument, before any membership solve
    def refuse(*args, **kwargs):
        raise AssertionError("a membership solve ran")

    monkeypatch.setattr(cli, "chat_membership", refuse)
    with pytest.raises(SystemExit) as ex:
        cli.main([str(DOCUMENTS / "chat_membership_quartic.json"), "--truncation", str(truncation)])
    assert ex.value.code == 2


@pytest.mark.parametrize("k",[8, EXPONENT_CAP])
def test_membership_work_does_not_grow_with_the_coefficient_degree(k):
    doc = _standard({"standard": 3}, elements={"t": {"type": "roth", "terms": ["(x^%d) * d(x) (x) e1^f1" % k]}},
                    commands=[{"op": "chat-membership", "element": "t"}])
    start = time.monotonic()
    report, code = run_document(doc)
    seconds = time.monotonic() - start
    assert code == 0 and report["commands"][0]["member"] is True
    assert report["commands"][0]["preimage"] == "(x^%d) * d(x) ⊗ e1∧f1" % k
    assert seconds < 2, seconds


def _dual_rank1(**fields):
    return dict({"schema": SCHEMA, "backend": {"kind": "dualnum", "var": "eps"},
                 "module": {"rank": 1, "basis": ["e1"], "gram": [["1"]]}}, **fields)


def _cmap(degree, values, symbol=None):
    spec = {"type": "cmap", "degree": degree, "values": values}
    if symbol is not None:
        spec["symbol"] = symbol
    return {"m": spec}


@pytest.mark.parametrize("doc, words", [
    pytest.param(_dual_rank1(elements=_cmap(2, {"e1": ["0"]}, {"": []})), "list of 1 coefficients",
                 id="dual-symbol-empty"),
    pytest.param(dict(_dual_rank1(elements=_cmap(2, {"e1": ["0"]}, {"": "xy"})),
                      backend={"kind": "freepoly", "vars": ["x", "y"]}), "list of 2 coefficients",
                 id="free-symbol-string"),
    pytest.param(_so3(elements=_cmap(2.9, {"e1": ["0", "0", "0"]})), "degree must be an integer",
                 id="degree-float"),
    pytest.param(_so3(elements=_cmap("3", {"e1,e2": ["0", "0", "1"]})), "degree must be an integer",
                 id="degree-text"),
])
def test_cmap_degrees_and_symbol_entries_are_checked(doc, words):
    report, code = run_document(doc)
    assert code == 2 and words in report["error"], report


@pytest.mark.parametrize("doc, error", [
    pytest.param(so3_document([{"op": "j-invert", "element": "m", "degree": 2}]),
                 "commands: element degree 3 does not match requested 2", id="j-invert-degree-mismatch"),
    pytest.param(_so3(elements={"x": {"type": "module", "coeffs": ["1", "0", "0"]}},
                      commands=[{"op": "j-invert", "element": "x"}]),
                 "commands: j-invert supports degrees 2 and 3", id="j-invert-degree-1"),
    pytest.param(_so3(elements={"x": {"type": "module", "coeffs": ["1", "0"]}}),
                 "elements: element 'x': module element needs 3 coefficients", id="module-coefficients"),
    pytest.param(_so3(elements=_cmap(2, {"e1": ["0", "1"]})),
                 "elements: element 'm': module element needs 3 coefficients", id="cmap-value-coefficients"),
    pytest.param(_so3(elements=_cmap(2, {"e9": ["0", "0", "1"]})),
                 "elements: element 'm': unknown basis name 'e9'", id="cmap-basis-name"),
    pytest.param(_so3(connection={"kind": "christoffel", "gamma": [[["0"]]]}),
                 "connection: module element needs 3 coefficients", id="connection-coefficients"),
])
def test_every_rejection_names_its_position(doc, error):
    report, code = run_document(doc)
    assert code == 2 and report["error"] == error, report


def test_a_dual_symbol_entry_is_the_coordinate_on_epsd():
    # the document gives a symbol by its coordinates: "3" over dualnum is
    # 3*epsd, whose value on eps, the level-1 entry, is 3*eps
    elements = dict(_cmap(2, {"e1": ["0"]}, {"": ["3"]}), one={"type": "scalar", "value": "1"})
    report, code = run_document(_dual_rank1(
        elements=elements, commands=[{"op": "wedge", "lhs": "one", "rhs": "m", "mode": "recursive"}]))
    assert code == 0
    assert report["commands"][0]["result"] == {"degree": 2, "levels": {"1": {"0 | ": "3*eps"}}}


def _mc_document(series, candidate=None):
    command = {"op": "mc-extend", "series": series}
    if candidate is not None:
        command["candidate"] = candidate
    return _standard(elements={"zero3": {"type": "roth", "terms": []},
                               "xi": {"type": "roth", "terms": ["(x) * 1 (x) e1^f1"]}},
                     commands=[command])


def test_a_series_above_the_order_cap_is_rejected_before_any_bracket(monkeypatch):
    deform.make_standard_courant(1)  # the document's structure exists before the count starts
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    from courantalg import rothstein, symbol_map
    for module in (rothstein, deform, symbol_map):
        monkeypatch.setattr(module, "_hamiltonian", counted(rothstein._hamiltonian))
    monkeypatch.setattr(deform, "_apply_derivation", counted(rothstein._apply_derivation))
    report, code = run_document(_mc_document(["zero3"] * (MC_ORDER_CAP + 1), "zero3"))
    assert code == 2 and calls == []
    assert "MC_ORDER_CAP" in report["error"] and str(MC_ORDER_CAP) in report["error"]
    report, code = run_document(_mc_document(["zero3"] * MC_ORDER_CAP))
    assert code == 0 and len(report["commands"][0]["relations"]) == MC_ORDER_CAP


def test_mc_extend_takes_each_bracket_and_differential_once(monkeypatch):
    counts = {"roth_bracket": 0, "deformation_differential": 0}

    def counted(name):
        real = getattr(deform, name)

        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for name in counts:
        monkeypatch.setattr(deform, name, counted(name))
    k = 3
    report, code = run_document(_mc_document(["zero3"] * k, "xi"))
    assert code == 0 and report["commands"][0]["accepted"] is False
    # k(k - 1)/2 brackets in the relations and k in the obstruction; a differential
    # per relation, one for the cocycle flag and one for the candidate
    assert counts == {"roth_bracket": k * (k - 1) // 2 + k, "deformation_differential": k + 2}


@pytest.mark.parametrize("op", ["cohomology", "mc-extend"])
def test_a_structure_element_without_a_preimage_is_rejected(op):
    command = {"op": op, "element": "m", "r": [0, 1], "d": [0, 0], "series": []}
    report, code = run_document(_half_so3([command]))
    assert code == 2 and "no preimage under J" in report["error"]
    report, code = run_document(_mc_document([], None) | {"commands": [dict(command, element="xi")]})
    assert code == 2 and "needs an element of degree 3, got degree 2" in report["error"]


def test_a_series_failing_its_relation_is_rejected_with_its_first_nonzero_term():
    # m1 = (x^2 + x^3) D (x) e1 is no cocycle, so the series fails its order-1
    # relation 2 delta(m1) = 0; the first group of the residual has two monomials
    doc = _mc_document(["m1"])
    doc["elements"]["m1"] = {"type": "roth", "terms": ["(x^2 + x^3) * d(x) (x) e1"]}
    report, code = run_document(doc)
    assert code == 2
    prefix = "input series fails its relation at order 1, first nonzero term "
    assert prefix in report["error"]
    cs = deform.make_standard_courant(1)
    coeff, sym, ext = parse_roth_term(report["error"].split(prefix)[1], cs.module)
    m1 = parse_roth(doc["elements"]["m1"]["terms"], cs.module)
    terms = deform.mc_residuals(deform.DeformationSeries(cs, [m1]))[0].terms
    assert (sym, ext) == min(terms)
    [(exp, value)] = coeff.terms.items()
    assert exp == min(terms[sym, ext].terms) and value == terms[sym, ext].terms[exp]
    assert len(terms[sym, ext].terms) == 2


def test_a_series_coefficient_of_another_degree_is_rejected():
    report, code = run_document(_mc_document(["xi"], "zero3"))
    assert code == 2 and "homogeneous of degree 3" in report["error"]


def _graded_hyperbolic(degrees):
    """Q[x]^2 with basis e, f, the hyperbolic gram and the given internal
    degrees: m = {e^f, -D (x) f} as a structure, whose cohomology window is
    graded only when deg e + deg f = 0."""
    return {
        "schema": SCHEMA,
        "backend": {"kind": "freepoly", "vars": ["x"]},
        "module": {"basis": ["e", "f"], "gram": [["0", "1"], ["1", "0"]], "internal_degrees": degrees},
        "connection": {"kind": "flat"},
        "elements": {"a": {"type": "roth", "terms": ["1 * 1 (x) e^f"]},
                     "b": {"type": "roth", "terms": ["-1 * d(x) (x) f"]}},
        "commands": [{"op": "bracket", "lhs": "a", "rhs": "b", "name": "m"},
                     {"op": "cohomology", "element": "m", "r": [0, 2], "d": [-1, 1]}],
    }


def test_a_report_does_not_depend_on_an_earlier_document_with_other_internal_degrees():
    # the bracket memo is keyed by the module, which now includes its internal degrees
    fresh = "cohomology: differential leaves the internal-degree block: ((0,), (), (1,))"
    report, code = run_document(_graded_hyperbolic([-1, 1]))
    assert code == 0, report
    report, code = run_document(_graded_hyperbolic([0, 0]))
    assert code == 2 and report["error"] == fresh


def test_basis_names_must_be_distinct():
    doc = _graded_hyperbolic([0, 0])
    doc["module"]["basis"] = ["e", "e"]
    report, code = run_document(doc)
    assert code == 2 and report["error"].startswith("module: basis names must be 2 distinct names")


@pytest.mark.parametrize("source", ["stdin", "malformed", "missing"])
def test_main_rejects_an_unreadable_document(source, tmp_path, monkeypatch, capsys):
    path = tmp_path / "document.json"
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO("{"))
        path = "-"
    elif source == "malformed":
        path.write_text('{"schema": ')
    assert cli.main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read document") and captured.out == ""


def test_main_reads_a_document_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((DOCUMENTS / "verify_courant_so3.json").read_text()))
    assert cli.main(["-", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["courantalg", str(DOCUMENTS / "verify_courant_so3.json")])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("courantalg", run_name="__main__")
    assert exit_.value.code == 0 and "overall: ok" in capsys.readouterr().out
