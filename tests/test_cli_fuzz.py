"""Seeded fuzz of the CLI contract on mutated committed documents.

Each example takes one `docs/documents/*.json`, replaces or adds elements
(cmaps of degree 0-4, roth elements with homogeneous or inhomogeneous terms,
element names old, new and empty) and replaces its commands by a list of
`verify-courant`, `j-map`, `j-invert`, `bracket`, `symbol-tower`,
`chat-membership`, `cohomology` and `mc-extend` commands on those names.
A cmap symbol entry has any number of coefficients from none to one more
than the backend has generators, or is no list; rarely a cmap degree is no
integer.  Cohomology windows are small, or have an end just outside
COHOMOLOGY_CAP; an mc-extend series has up to three of the document's names,
with or without a candidate, or MC_ORDER_CAP + 1 of them.
Whatever the document, `run_document` must return exit code 0, 1 or 2
without raising, and the same report, in both formats, on a second run.
One example in four is well formed instead: it `j-map`s a homogeneous roth
element of degree 2-5 to a name and runs `chat-membership` on that name,
which must run (exit 0) and report a member.
The examples are derandomized, so every run checks the same documents.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from courantalg.cli import COHOMOLOGY_CAP, MC_ORDER_CAP, format_human, run_document
from courantalg.deform import standard_module

DOCUMENTS = {p.stem: json.loads(p.read_text())
             for p in sorted((Path(__file__).resolve().parent.parent / "docs" / "documents").glob("*.json"))}
NAMES = ["m", "theta", "xi", "x", "fresh", ""]
COEFFICIENTS = ["1", "-2", "1/2", "0"]
IMAGE = "image"  # the name the well-formed examples bind J(phi) to


def _alphabet(doc: dict) -> tuple[list[str], list[str]]:
    """(variable names, module basis names) of a document."""
    module = doc["module"]
    if "standard" in module:
        std = standard_module(module["standard"])
        return list(std.backend.names), list(std.names)
    backend = doc["backend"]
    variables = [backend.get("var", "eps")] if backend["kind"] in ("dualnum", "dual") else backend["vars"]
    return variables, module["basis"]


@st.composite
def _roth(draw, variables, basis):
    """A roth element; when homogeneous, terms off the first term's degree are dropped."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        sym = draw(st.lists(st.sampled_from(variables), max_size=5 if draw(st.booleans()) else 2)) if variables else []
        ext = sorted(draw(st.sets(st.sampled_from(basis), max_size=3)), key=basis.index)
        coef = draw(st.sampled_from(COEFFICIENTS + ["(%s)" % v for v in variables]))
        text = "%s * %s (x) %s" % (coef, "v".join("d(%s)" % v for v in sym) or "1", "^".join(ext) or "1")
        terms.append((2 * len(sym) + len(ext), text))
    if draw(st.booleans()):
        terms = [t for t in terms if t[0] == terms[0][0]]
    return {"type": "roth", "terms": [text for _, text in terms]}


def _splits(degree, variables, basis) -> list[tuple[int, int]]:
    """(Der factors, basis factors) of the terms of one degree that the alphabet spans."""
    return [(p, degree - 2 * p) for p in range(degree // 2 + 1)
            if degree - 2 * p <= len(basis) and (variables or not p)]


@st.composite
def _homogeneous_roth(draw, variables, basis):
    """A roth element of one degree in 2-5 (of those the alphabet spans), one to three terms."""
    degree = draw(st.sampled_from([r for r in range(2, 6) if _splits(r, variables, basis)]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        p, k = draw(st.sampled_from(_splits(degree, variables, basis)))
        sym = draw(st.lists(st.sampled_from(variables), min_size=p, max_size=p)) if p else []
        ext = sorted(draw(st.sets(st.sampled_from(basis), min_size=k, max_size=k)), key=basis.index)
        coef = draw(st.sampled_from(COEFFICIENTS + ["(%s)" % v for v in variables]))
        terms.append("%s * %s (x) %s" % (coef, "v".join("d(%s)" % v for v in sym) or "1", "^".join(ext) or "1"))
    return {"type": "roth", "terms": terms}


def _rarely(draw) -> bool:
    """True about one time in eight: most mutations stay well formed, so the commands run."""
    return draw(st.integers(0, 7)) == 0


@st.composite
def _cmap(draw, variables, basis):
    degree = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 3, 4]))  # the table constructor takes 2 and 3
    rank = len(basis)
    arity = max(degree - 1, 0) + _rarely(draw)

    def coefficients(n, pool):
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    values = {}
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.lists(st.sampled_from(basis), min_size=arity, max_size=arity))
        values[",".join(key)] = coefficients(rank + _rarely(draw), COEFFICIENTS + variables)
    spec = {"type": "cmap", "degree": degree, "values": values}
    if draw(st.booleans()):
        key = draw(st.lists(st.sampled_from(basis), min_size=max(degree - 2, 0), max_size=max(degree - 2, 0)))
        entry = coefficients(draw(st.integers(0, len(variables) + 1)), COEFFICIENTS)
        if _rarely(draw):
            entry = "".join(variables) or "1"  # not a list
        spec["symbol"] = {",".join(key): entry}
    if _rarely(draw):
        spec["degree"] = draw(st.sampled_from([degree + 0.5, str(degree)]))
    return spec


def _command(draw, names, roths, standard):
    def name(pool=names):
        return draw(st.sampled_from(NAMES if _rarely(draw) else pool))

    op = draw(st.sampled_from(["verify-courant", "j-map", "j-invert", "bracket", "symbol-tower",
                               "chat-membership", "cohomology", "mc-extend"]))
    if op == "bracket":
        cmd = {"op": op, "lhs": name(), "rhs": name()}
    elif op in ("cohomology", "mc-extend"):
        cmd = {"op": op}  # on the standard structure, where the document has one
        if not standard or _rarely(draw):
            cmd["element"] = name()
    else:
        cmd = {"op": op, "element": name()}
    if op == "cohomology":
        for key in ("r", "d"):
            lo = draw(st.integers(-1, 1))
            window = [lo, draw(st.integers(lo - 1, lo + 1))]
            if _rarely(draw):
                window[draw(st.integers(0, 1))] = draw(st.sampled_from([-1, 1])) * (COHOMOLOGY_CAP + 1)
            cmd[key] = window
    if op == "mc-extend":
        size = MC_ORDER_CAP + 1 if _rarely(draw) else draw(st.integers(0, 3))
        cmd["series"] = [name(roths or names) for _ in range(size)]
        if draw(st.booleans()):
            cmd["candidate"] = name(roths or names)
    if op in ("verify-courant", "symbol-tower") and draw(st.booleans()):
        cmd["depth"] = draw(st.integers(0, 1))
    if op == "j-invert" and draw(st.booleans()):
        cmd["degree"] = draw(st.integers(1, 4))
    if op in ("j-map", "bracket") and draw(st.booleans()):
        cmd["name"] = draw(st.sampled_from(NAMES))
    return cmd


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))]))
    variables, basis = _alphabet(doc)
    elements = doc.setdefault("elements", {})
    if draw(st.integers(0, 3)) == 0:
        elements["phi"] = draw(_homogeneous_roth(variables, basis))
        doc["commands"] = [{"op": "j-map", "element": "phi", "name": IMAGE},
                           {"op": "chat-membership", "element": IMAGE}]
        return doc
    for _ in range(draw(st.integers(0, 3))):
        shape = _roth(variables, basis) if draw(st.booleans()) else _cmap(variables, basis)
        elements[draw(st.sampled_from(NAMES))] = draw(shape)
    names = sorted(elements) or NAMES
    roths = sorted(n for n, spec in elements.items() if spec.get("type") == "roth")
    standard = "standard" in doc["module"]
    doc["commands"] = [_command(draw, names, roths, standard) for _ in range(draw(st.integers(1, 3)))]
    return doc


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_run_document_keeps_the_cli_contract(doc):
    first, code = run_document(doc)
    again, code_again = run_document(doc)
    assert code in (0, 1, 2) and code_again == code
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert format_human(first) == format_human(again)
    if doc["commands"][-1:] == [{"op": "chat-membership", "element": IMAGE}]:
        assert code == 0 and first["commands"][-1]["member"] is True, first
