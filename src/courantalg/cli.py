"""Batch front end: structured problem documents in, reports out.

A document is a single JSON object with a versioned schema field declaring a
coefficient backend, one metric module, a connection, named elements, and a
command list.  Exit code 0 means every verification command passed, 1 means
a mathematical verification failed, 2 means the document was rejected before
computation.  Reports are byte-identical across runs of the same document
and seed; neither output format carries wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .cmaps import (
    DEGREE_CAP,
    Cochain,
    cbracket,
    cmap_verify,
    cmap_wedge,
    quartic_from_biderivation,
    symbol_tower,
)
from .deform import (
    CourantStructure,
    DeformationSeries,
    cohomology_dims,
    delta_squared_is_zero,
    failing_relation,
    make_standard_courant,
    mc_accepts,
    mc_obstruction,
    mc_residuals,
    verify_courant,
)
from .modules import Connection, MetricModule, ModuleElement, ModuleError, metrize
from .poly import Backend, Derivation, MultiDerivation, Poly, num_der_generators
from .rothstein import RothElement
from .symbol_map import apply_J, chat_membership, invert_J
from .textforms import parse_terms, roth_to_text, split_roth_term

SCHEMA = "courantalg/1"
REPORT_SCHEMA = "courantalg-report/1"
# {"standard": n} is verified on (2n(n+1))^3 probe triples: about 3 s of CPU at n = 4
STANDARD_CAP = 4
# each end of a cohomology window, r and d, lies in [-COHOMOLOGY_CAP, COHOMOLOGY_CAP]:
# block sizes grow without bound in both
COHOMOLOGY_CAP = 8
# the largest exponent a parsed polynomial may carry: products of document inputs
# stay far below the packed field limit (poly.EXPONENT_LIMIT), and probe depths small
EXPONENT_CAP = 32
# the most coefficients an mc-extend series may have: its relations take k(k - 1)/2 brackets
MC_ORDER_CAP = 8
# the largest explicit module: its towers hold up to rank^degree entries per level, degrees up to
# cmaps.DEGREE_CAP
RANK_CAP = 6
# the most variables of an explicit freepoly backend, twice those of {"standard": STANDARD_CAP}: a
# tower level p has C(vars + p - 1, p) generator tuples, a probe set C(vars + depth, depth) monomials
VARS_CAP = 8
# the most probes of verify-courant and symbol-tower, those of {"standard": 4} at depth 1 (probes^3 triples)
PROBE_CAP = 40
# the most degree-3 membership trials of counterexample-sder, about 60 us each
TRIALS_CAP = 1000


class DocumentError(ValueError):
    """Raised for any validation failure before computation starts."""


def _fail(msg: str, where: str = "") -> "DocumentError":
    return DocumentError(("%s: %s" % (where, msg)) if where else msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _parse_poly(text: str, backend: Backend) -> Poly:
    """The polynomial of text; an exponent above EXPONENT_CAP is refused (ValueError)
    on the parsed exponent tuples, before a Poly is built."""
    terms = parse_terms(text, backend)
    top = max((e for exp in terms for e in exp), default=0)
    if top > EXPONENT_CAP:
        raise ValueError("exponent %d exceeds the %d cap (EXPONENT_CAP)" % (top, EXPONENT_CAP))
    return Poly(backend, terms)


def _probe_count(module: MetricModule, depth: int) -> int:
    """The size of `cmaps.probe_elements(module, depth)`: rank x the monomials of degree <= depth."""
    backend = module.backend
    monomials = min(depth, 1) + 1 if backend.is_dual else math.comb(backend.nvars + depth, depth)
    return module.rank * monomials


class ProblemDocument:
    """Parsed and validated problem document."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise _fail("document must be a JSON object")
        if raw.get("schema") != SCHEMA:
            raise _fail("unsupported schema %r (want %r)" % (raw.get("schema"), SCHEMA))
        self.raw = raw
        self.standard_n = None
        module_spec = raw.get("module")
        if isinstance(module_spec, dict) and "standard" in module_spec:
            self.standard_n = module_spec["standard"]
            if not _is_int(self.standard_n) or self.standard_n < 1:
                raise _fail("standard needs a positive integer", "module")
            extra = (set(module_spec) - {"standard"}) | ({"backend", "connection"} & set(raw))
            if extra:
                raise _fail("a standard module takes no other key or section, got %s"
                            % ", ".join(map(repr, sorted(extra))), "module")
            if self.standard_n > STANDARD_CAP:
                raise _fail("standard n = %d exceeds the %d cap (STANDARD_CAP)"
                            % (self.standard_n, STANDARD_CAP), "module")
            cs = make_standard_courant(self.standard_n)
            self.backend = cs.module.backend
            self.module = cs.module
            self.connection = cs.connection
            self.structure = cs
        else:
            self.backend = self._parse_backend(raw.get("backend"))
            self.module = self._parse_module(module_spec)
            self.connection = self._parse_connection(raw.get("connection"))
            self.structure = None
        self.elements: dict[str, object] = {}
        self.tables: set[str] = set()  # names of the cmap elements read from their tables
        elements = raw.get("elements") or {}
        if not isinstance(elements, dict):
            raise _fail("elements must be an object", "elements")
        for name, spec in elements.items():
            self.elements[name] = self._parse_element(name, spec)
            if spec["type"] == "cmap":
                self.tables.add(name)
        self.commands = raw.get("commands") or []
        if not isinstance(self.commands, list):
            raise _fail("commands must be a list")

    # -- sections ------------------------------------------------------

    def _parse_backend(self, spec) -> Backend:
        if not isinstance(spec, dict):
            raise _fail("missing backend section")
        kind = spec.get("kind")
        if kind in ("freepoly", "poly", "free"):
            names = spec.get("vars")
            if not _is_list_of(names, str) or len(set(names)) != len(names):
                raise _fail("freepoly backend needs a list of distinct vars", "backend")
            if len(names) > VARS_CAP:
                raise _fail("%d vars exceed the %d cap (VARS_CAP)" % (len(names), VARS_CAP), "backend")
            return Backend.free(len(names), tuple(names))
        if kind in ("dualnum", "dual"):
            return Backend.dual(spec.get("var", "eps"))
        raise _fail("unknown backend kind %r" % kind, "backend")

    def _parse_module(self, spec) -> MetricModule:
        if not isinstance(spec, dict):
            raise _fail("missing module section")
        gram_rows = spec.get("gram")
        if not _is_list_of(gram_rows, list):
            raise _fail("module needs a gram matrix (a list of rows)", "module")
        if len(gram_rows) > RANK_CAP:
            raise _fail("rank %d exceeds the %d cap (RANK_CAP)" % (len(gram_rows), RANK_CAP), "module")
        rank = spec.get("rank")
        if rank is not None and (not _is_int(rank) or rank != len(gram_rows)):
            raise _fail("rank must be an integer equal to the number of gram rows", "module")
        for key, kind in (("basis", str), ("internal_degrees", int)):
            if spec.get(key) is not None and not (_is_list_of(spec[key], kind) and len(spec[key]) == len(gram_rows)):
                raise _fail("%s must list one entry per gram row" % key, "module")
        try:
            gram = [[_parse_poly(str(v), self.backend) for v in row] for row in gram_rows]
            return MetricModule(
                self.backend,
                gram,
                names=spec.get("basis"),
                internal_degrees=spec.get("internal_degrees"),
            )
        except ValueError as ex:
            raise _fail(str(ex), "module")

    def _parse_connection(self, spec) -> Connection:
        if spec is not None and not isinstance(spec, dict):
            raise _fail("connection must be an object", "connection")
        if spec is None or spec.get("kind") == "flat":
            return Connection.flat(self.module)
        kind = spec.get("kind")
        if kind in ("christoffel", "metrize", "metrize-of"):
            gamma_raw = spec.get("gamma")
            if not _is_list_of(gamma_raw, list):
                raise _fail("connection needs a gamma table", "connection")
            try:
                gamma = [
                    [self._parse_module_element(entry) for entry in row]
                    for row in gamma_raw
                ]
                conn = Connection(self.module, gamma)
            except ValueError as ex:
                raise _fail(str(ex), "connection")
            if kind in ("metrize", "metrize-of"):
                return metrize(conn)
            if not conn.is_metric():
                raise _fail("christoffel table is not metric (use kind metrize-of)", "connection")
            return conn
        raise _fail("unknown connection kind %r" % kind, "connection")

    def _parse_module_element(self, coeffs) -> ModuleElement:
        if not isinstance(coeffs, list) or len(coeffs) != self.module.rank:
            raise ValueError("module element needs %d coefficients" % self.module.rank)
        return ModuleElement(self.module, [_parse_poly(str(c), self.backend) for c in coeffs])

    def _parse_derivation(self, coeffs) -> Derivation:
        ngen = num_der_generators(self.backend)
        if not isinstance(coeffs, list) or len(coeffs) != ngen:
            raise ValueError("a symbol entry needs a list of %d coefficients, got %r" % (ngen, coeffs))
        if self.backend.is_dual:  # a dualnum entry is a rational, the coordinate on epsd
            return Derivation(self.backend, Fraction(str(coeffs[0])))
        return Derivation(self.backend, tuple(_parse_poly(str(c), self.backend) for c in coeffs))

    def _basis_key(self, key: str) -> tuple[int, ...]:
        key = key.strip()
        if not key:
            return ()
        idx = []
        for piece in key.split(","):
            piece = piece.strip()
            if piece not in self.module.names:
                raise ValueError("unknown basis name %r" % piece)
            idx.append(self.module.names.index(piece))
        return tuple(idx)

    def _generator_pair(self, key: str) -> tuple[int, int]:
        """A `p_table` key: two comma-separated variable names of the backend,
        as the sorted pair of their generator indices."""
        names = [piece.strip() for piece in key.split(",")]
        if len(names) != 2 or any(v not in self.backend.names for v in names):
            raise ValueError("p_table key %r must be two comma-separated variables of %s"
                             % (key, ", ".join(self.backend.names)))
        return tuple(sorted(self.backend.names.index(v) for v in names))

    def _parse_element(self, name: str, spec):
        if not isinstance(spec, dict) or "type" not in spec:
            raise _fail("element %r needs a type" % name, "elements")
        kind = spec["type"]
        try:
            if kind == "scalar":
                return Cochain.scalar(self.module, _parse_poly(spec["value"], self.backend))
            if kind == "module":
                return Cochain.from_module_element(self._parse_module_element(spec["coeffs"]))
            if kind == "roth":
                phi = RothElement.zero(self.module)
                for term in spec["terms"]:
                    coeftxt, sym, ext = split_roth_term(term, self.module)
                    phi = phi + RothElement(self.module, {(sym, ext): _parse_poly(coeftxt, self.backend)})
                return phi
            if kind == "cmap":
                degree = spec["degree"]
                if not _is_int(degree):
                    raise ValueError("degree must be an integer, got %r" % (degree,))
                values = {
                    self._basis_key(k): self._parse_module_element(v)
                    for k, v in (spec.get("values") or {}).items()
                }
                symbol = None
                if spec.get("symbol") is not None:
                    symbol = {
                        self._basis_key(k): self._parse_derivation(v)
                        for k, v in spec["symbol"].items()
                    }
                return Cochain.from_tables(self.module, degree, values, symbol)
            if kind == "sder-quartic":
                table, keys = {}, {}
                for k, v in spec["p_table"].items():
                    pair = self._generator_pair(k)
                    if pair in keys:
                        raise ValueError("p_table keys %r and %r name the same pair" % (keys[pair], k))
                    keys[pair] = k
                    table[pair] = _parse_poly(str(v), self.backend)
                P = MultiDerivation(self.backend, 2, table)
                return quartic_from_biderivation(self.module, P)
        except DocumentError:
            raise
        except (KeyError, ValueError, TypeError, AttributeError) as ex:
            raise _fail("element %r: %s" % (name, ex), "elements")
        raise _fail("unknown element type %r" % kind, "elements")

    def lookup(self, name: str):
        if not isinstance(name, str) or name not in self.elements:
            raise _fail("unresolved element reference %r" % name, "commands")
        return self.elements[name]

    def lookup_cochain(self, name: str) -> Cochain:
        el = self.lookup(name)
        if isinstance(el, RothElement):
            return self.j_image(name, el)
        if isinstance(el, Cochain):
            return el
        raise _fail("element %r is not a graded map" % name, "commands")

    def j_image(self, name: str, phi: RothElement) -> Cochain:
        """J(phi), once phi has one degree within DEGREE_CAP: the tower has rank^degree entries."""
        degrees = sorted(phi.degrees())
        if len(degrees) > 1:
            raise _fail("element %r is inhomogeneous (degrees %s); J maps one degree at a time"
                        % (name, ", ".join(map(str, degrees))), "commands")
        if degrees and degrees[0] > DEGREE_CAP:
            raise _fail("element %r has degree %d, above the %d cap (DEGREE_CAP)"
                        % (name, degrees[0], DEGREE_CAP), "commands")
        return apply_J(phi, self.connection)

    def lookup_roth(self, name: str) -> RothElement:
        el = self.lookup(name)
        if isinstance(el, RothElement):
            return el
        if isinstance(el, Cochain) and el.degree <= 3:
            return self.preimage(name, el)
        raise _fail("element %r has no connection-side form" % name, "commands")

    def preimage(self, name: str, c: Cochain) -> RothElement:
        """The preimage of c (degree <= 3); a table that is no element of the complex is rejected."""
        try:
            return invert_J(c, self.connection)
        except ValueError as ex:
            raise _fail("element %r: %s" % (name, ex), "commands")


def _describe(obj) -> object:
    if isinstance(obj, RothElement):
        return roth_to_text(obj)
    if isinstance(obj, Cochain):
        return {
            "degree": obj.degree,
            "levels": {
                str(p): {
                    "%s | %s" % (",".join(map(str, gens)), ",".join(map(str, args))): str(v)
                    for (gens, args), v in sorted(table.items())
                }
                for p, table in sorted(obj.levels.items())
            },
        }
    return str(obj)


class CommandRunner:
    """Executes the command list; collects one record per command."""

    def __init__(self, doc: ProblemDocument, seed: int):
        self.doc = doc
        self.seed = seed
        self.records: list[dict] = []
        self.failed_verification = False

    def run(self) -> dict:
        for i, cmd in enumerate(self.doc.commands):
            if not isinstance(cmd, dict) or not isinstance(cmd.get("op"), str):
                raise _fail("command %d needs an op" % i, "commands")
            op = cmd["op"].replace("_", "-")
            handler = getattr(self, "cmd_" + op.replace("-", "_"), None)
            if handler is None:
                raise _fail("unknown command op %r" % cmd["op"], "commands")
            record = handler(cmd)
            record["op"] = op
            self.records.append(record)
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "ok": not self.failed_verification,
            "commands": self.records,
        }

    def _structure(self, cmd) -> CourantStructure:
        if "element" in cmd:
            m = self._element(cmd)
            if m.degree != 3:
                raise _fail("%s needs an element of degree 3, got degree %d" % (cmd["op"], m.degree), "commands")
            try:
                return CourantStructure.from_cochain(m, self.doc.connection, check=False)
            except ValueError as ex:  # a table outside the complex has no preimage
                raise _fail("element %r: %s" % (cmd["element"], ex), "commands")
        if self.doc.structure is not None:
            return self.doc.structure
        raise _fail("command needs an element or a standard module", "commands")

    @staticmethod
    def _arg(cmd, key, default=None, valid=None):
        """cmd[key] (or the default when given), rejected unless valid(value) holds."""
        if key not in cmd and default is None:
            raise _fail("%s needs %r" % (cmd["op"], key), "commands")
        value = cmd.get(key, default)
        if valid is not None and not valid(value):
            raise _fail("%s: bad %r value %r" % (cmd["op"], key, value), "commands")
        return value

    def _element(self, cmd, key="element") -> Cochain:
        return self.doc.lookup_cochain(self._arg(cmd, key))

    def _bind(self, cmd, value):
        """Name the result for later commands when the command asks for it."""
        name = self._arg(cmd, "name", "", lambda v: isinstance(v, str))
        if name:
            self.doc.elements[name] = value
            self.doc.tables.discard(name)

    def _mark(self, ok: bool):
        if not ok:
            self.failed_verification = True

    # -- command handlers ------------------------------------------------

    @staticmethod
    def _within_probe_cap(cmd, module: MetricModule, depth: int):
        """Reject a probe set above PROBE_CAP before any probe is read."""
        count = _probe_count(module, depth)
        if count > PROBE_CAP:
            raise _fail("%s: %d probes at depth %d exceed the %d cap (PROBE_CAP)"
                        % (cmd["op"], count, depth, PROBE_CAP), "commands")

    def cmd_verify_courant(self, cmd) -> dict:
        depth = self._arg(cmd, "depth", 1, _is_count)
        m = self._element(cmd) if "element" in cmd else self._structure(cmd).cochain
        if m.degree != 3:
            raise _fail("verify-courant needs an element of degree 3, got degree %d" % m.degree, "commands")
        self._within_probe_cap(cmd, m.module, depth)
        ok, report = verify_courant(m, depth=depth)
        self._mark(ok)
        return {
            "status": "ok",
            "verdict": ok,
            "axiom_route": report["axiom_route"],
            "bracket_route": report["bracket_route"],
            "probe_bound": report["probe_bound"],
        }

    @staticmethod
    def _within_cap(cmd, lhs: Cochain, rhs: Cochain, degree: int):
        """Reject a product of two nonzero elements above DEGREE_CAP before it is tabulated."""
        if degree > DEGREE_CAP and not (lhs.is_zero() or rhs.is_zero()):
            raise _fail("%s: result degree %d exceeds the %d cap (DEGREE_CAP)"
                        % (cmd["op"], degree, DEGREE_CAP), "commands")

    def _operand(self, cmd, key) -> Cochain:
        """A bracket or wedge operand; a cmap table must pass the swap
        identities on basis tuples, or the document is rejected."""
        name = self._arg(cmd, key)
        c = self.doc.lookup_cochain(name)
        if name in self.doc.tables:
            ok, report = cmap_verify(c, depth=0)
            if not ok:
                raise _fail("element %r is not an element of the complex: %s"
                            % (name, report["violation"]), "commands")
        return c

    def cmd_bracket(self, cmd) -> dict:
        lhs, rhs = self._operand(cmd, "lhs"), self._operand(cmd, "rhs")
        self._within_cap(cmd, lhs, rhs, lhs.degree + rhs.degree - 2)
        out = cbracket(lhs, rhs)
        self._bind(cmd, out)
        return {"status": "ok", "zero": out.is_zero(), "result": _describe(out)}

    def cmd_wedge(self, cmd) -> dict:
        mode = self._arg(cmd, "mode", "both", lambda v: v in ("both", "recursive", "shuffle"))
        lhs, rhs = self._operand(cmd, "lhs"), self._operand(cmd, "rhs")
        self._within_cap(cmd, lhs, rhs, lhs.degree + rhs.degree)
        if mode == "both":
            rec = cmap_wedge(lhs, rhs, "recursive")
            shu = cmap_wedge(lhs, rhs, "shuffle")
            agree = rec == shu
            self._mark(agree)
            out = rec
        else:
            out = cmap_wedge(lhs, rhs, mode)
            agree = None
        self._bind(cmd, out)
        record = {"status": "ok", "result": _describe(out)}
        if agree is not None:
            record["modes_agree"] = agree
        return record

    def cmd_symbol_tower(self, cmd) -> dict:
        depth = self._arg(cmd, "depth", 1, _is_count)
        c = self._element(cmd)
        self._within_probe_cap(cmd, c.module, depth)
        try:
            levels = symbol_tower(c, depth=depth)
        except ValueError as ex:
            self._mark(False)
            return {"status": "inconsistent", "verdict": False, "detail": str(ex)}
        sizes = {str(p): len(levels.get(p, {})) for p in range(c.degree // 2 + 1)}
        return {"status": "ok", "verdict": True, "level_sizes": sizes, "probe_bound": depth}

    def cmd_j_map(self, cmd) -> dict:
        name = self._arg(cmd, "element")
        image = self.doc.j_image(name, self.doc.lookup_roth(name))
        self._bind(cmd, image)
        return {"status": "ok", "result": _describe(image)}

    def cmd_j_invert(self, cmd) -> dict:
        name = self._arg(cmd, "element")
        c = self.doc.lookup_cochain(name)
        degree = self._arg(cmd, "degree", c.degree, _is_int)
        if degree != c.degree:
            raise _fail("element degree %d does not match requested %d" % (c.degree, degree), "commands")
        if degree not in (2, 3):
            raise _fail("j-invert supports degrees 2 and 3", "commands")
        # the peel leaves no remainder only when J(phi) = c; a table with no preimage is a rejected document
        phi = self.doc.preimage(name, c)
        self._bind(cmd, phi)
        return {"status": "ok", "round_trip": True, "preimage": roth_to_text(phi)}

    def cmd_chat_membership(self, cmd) -> dict:
        name = self._arg(cmd, "element")
        c = self.doc.lookup_cochain(name)
        res = chat_membership(c, self.doc.connection)
        if not res["member"] and c.degree <= 3:
            # J is onto the complex in degrees <= 3: a table outside the image there is outside the complex
            raise _fail("element %r: no preimage under J: %s, residual %s"
                        % (name, res["certificate"]["coordinate"], res["certificate"]["residual"]), "commands")
        record = {
            "status": "ok",
            "member": res["member"],
            "truncation_cap": None,
            "conclusive": res["conclusive"],
        }
        if res["member"]:
            record["preimage"] = roth_to_text(res["preimage"])
        else:
            record["certificate"] = res["certificate"]
        return record

    def cmd_cohomology(self, cmd) -> dict:
        def is_window(v):
            return _is_list_of(v, int) and len(v) == 2

        r_lo, r_hi = self._arg(cmd, "r", [0, 5], is_window)
        d_lo, d_hi = self._arg(cmd, "d", [-3, 3], is_window)
        for key, window in (("r", [r_lo, r_hi]), ("d", [d_lo, d_hi])):
            if max(map(abs, window)) > COHOMOLOGY_CAP:
                raise _fail("%s window %s exceeds the %d cap (COHOMOLOGY_CAP)"
                            % (key, window, COHOMOLOGY_CAP), "cohomology")
        cs = self._structure(cmd)
        try:
            dims = cohomology_dims(cs, range(r_lo, r_hi + 1), range(d_lo, d_hi + 1))
        except ModuleError as ex:  # Q leaves the bidegree of a generator: no blocks
            raise _fail(str(ex), "cohomology")
        table = [
            {
                "r": r,
                "d": d,
                "dim": rec["dim"],
                "chain_dim": rec["chain_dim"],
                "rank_out": rec["rank_out"],
                "rank_in": rec["rank_in"],
            }
            for (r, d), rec in sorted(dims.items())
        ]
        squares = all(
            delta_squared_is_zero(cs, r, d)
            for r in range(r_lo, r_hi)
            for d in range(d_lo, d_hi + 1)
        )
        self._mark(squares)
        return {"status": "ok", "delta_squared_zero": squares, "table": table}

    def cmd_mc_extend(self, cmd) -> dict:
        names = self._arg(cmd, "series", [], lambda v: isinstance(v, list))
        if len(names) > MC_ORDER_CAP:
            raise _fail("series of %d coefficients exceeds the %d cap (MC_ORDER_CAP)"
                        % (len(names), MC_ORDER_CAP), "mc-extend")
        cs = self._structure(cmd)
        coefficients = [self.doc.lookup_roth(n) for n in names]
        try:
            series = DeformationSeries(cs, coefficients)
        except ValueError as ex:  # a coefficient not of degree 3
            raise _fail(str(ex), "mc-extend")
        residuals = mc_residuals(series)
        failure = failing_relation(residuals)
        if failure is not None:
            raise _fail("input series fails its relation " + failure, "mc-extend")
        obs, cocycle = mc_obstruction(series)
        self._mark(cocycle)
        record = {
            "status": "ok",
            "order": series.order,
            "relations": [
                {"order": j, "residual": roth_to_text(res)}
                for j, res in enumerate(residuals, start=1)
            ],
            "obstruction": roth_to_text(obs),
            "obstruction_is_cocycle": cocycle,
        }
        if "candidate" in cmd:
            record["accepted"] = mc_accepts(series, obs, self.doc.lookup_roth(cmd["candidate"]))
        return record

    def cmd_counterexample_sder(self, cmd) -> dict:
        """The dual-number quartic: in the complex, outside the symbol image."""
        import random

        trials = self._arg(cmd, "degree3_trials", 5, _is_count)
        if trials > TRIALS_CAP:
            raise _fail("degree3_trials %d exceeds the %d cap (TRIALS_CAP)" % (trials, TRIALS_CAP), "commands")
        backend = Backend.dual()
        eps = Poly.var(backend, 0)
        module = MetricModule(backend, [[Poly.one(backend)]])
        conn = Connection.flat(module)
        P = MultiDerivation(backend, 2, {(0, 0): eps})
        bad = quartic_from_biderivation(module, P)
        in_complex, _ = cmap_verify(bad)
        membership = chat_membership(bad, conn)
        rng = random.Random(self.seed)
        degree3_members = 0
        for _ in range(trials):
            sym = () if rng.random() < 0.5 else (0,)
            coeff = Poly(backend, {(0,): Fraction(rng.randint(-3, 3)),
                                   (1,): Fraction(rng.randint(-3, 3))})
            if sym:
                phi = RothElement(module, {((0,), (0,)): coeff})
            else:
                phi = RothElement.zero(module)
            c3 = apply_J(phi, conn)
            res3 = chat_membership(c3, conn) if not c3.is_zero() else {"member": True}
            degree3_members += 1 if res3["member"] else 0
        ok = in_complex and not membership["member"] and degree3_members == trials
        self._mark(ok)
        return {
            "status": "ok",
            "verdict": ok,
            "in_complex_degree4": in_complex,
            "image_member_degree4": membership["member"],
            "certificate": membership.get("certificate"),
            "degree3_members": "%d/%d" % (degree3_members, trials),
        }


def run_document(raw: dict, seed: int = 0) -> tuple[dict, int]:
    try:
        doc = ProblemDocument(raw)
        runner = CommandRunner(doc, seed)
        report = runner.run()
    except DocumentError as ex:
        return {"schema": REPORT_SCHEMA, "ok": False, "error": str(ex)}, 2
    return report, (0 if report["ok"] else 1)


def format_human(report: dict) -> str:
    lines = []
    if "error" in report:
        return "document rejected: %s" % report["error"]
    for i, rec in enumerate(report["commands"]):
        head = "[%d] %s: %s" % (i, rec["op"], rec.get("status"))
        if "verdict" in rec:
            head += "  verdict=%s" % rec["verdict"]
        lines.append(head)
        for k, v in sorted(rec.items()):
            if k in ("op", "status", "verdict"):
                continue
            lines.append("      %s: %s" % (k, v))
    lines.append("overall: %s" % ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="courantalg",
        description="Run a structured problem document against the library.",
    )
    ap.add_argument("document", help="path to the JSON problem document ('-' for stdin)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized probe commands")
    ap.add_argument("--format", choices=("human", "json"), default="human")
    args = ap.parse_args(argv)
    try:
        text = sys.stdin.read() if args.document == "-" else open(args.document).read()
        raw = json.loads(text)
    except (OSError, json.JSONDecodeError) as ex:
        print("cannot read document: %s" % ex, file=sys.stderr)
        return 2
    report, code = run_document(raw, seed=args.seed)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(format_human(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
