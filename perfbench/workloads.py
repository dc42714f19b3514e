"""The four benchmark workloads.

A workload is built from a freshly loaded library and a seed (its set-up),
then hands out its ops one cycle at a time.  Every cycle has the same mix of
op shapes; the seed and the cycle number choose the numbers inside them, so
inputs repeat only where a workload repeats them on purpose (`cli_batch`).
Cycle inputs are built before the cycle's ops are timed; building cycle 0 is
part of the set-up.

An op is one answered question.  `Op.run` is the timed call into the library;
`Op.check` decides, outside the timing, whether its outcome is the expected
verdict.  Outcomes are plain values, so a traced and an untraced pass can be
compared for identical results.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

from load import ROOT

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
NONZERO = tuple(v for v in range(-31, 32) if v)


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    key: tuple = ()


def _is_true(outcome) -> bool:
    return outcome is True


def _cycle_rng(seed: int, k: int, salt: str) -> random.Random:
    return random.Random("%s:%d:%d" % (salt, seed, k))


def _cycle_scale(seed: int, k: int) -> int:
    """A nonzero integer that differs between the cycles of a run.

    Small integers keep coefficient sizes, and so op costs, alike across seeds.
    """
    return (-1) ** (k + seed) * (2 + k + seed % 7)


class Workload:
    name = ""

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def close_cycle(self, ops: list[Op], outcomes: list) -> set[int]:
        """Indices of ops that fail a check spanning the whole cycle."""
        return set()


# -- jacobi ---------------------------------------------------------------------


def _context(lib, nvars: int, rank: int, conn_seed: int):
    """Hyperbolic module (plus a unit line for odd rank), curved metric connection."""
    poly, modules = lib.poly, lib.modules
    backend = poly.Backend.free(nvars)
    zero, one = poly.Poly.zero(backend), poly.Poly.one(backend)
    gram = [[zero] * rank for _ in range(rank)]
    for i in range(rank // 2):
        gram[i][rank // 2 + i] = one
        gram[rank // 2 + i][i] = one
    if rank % 2:
        gram[rank - 1][rank - 1] = one
    module = modules.MetricModule(backend, gram)
    if nvars == 0:
        return module, modules.Connection.flat(module)
    rng = random.Random(conn_seed)
    gamma = [
        [modules.ModuleElement(module, [_random_poly(lib, rng, backend, 1) for _ in range(rank)])
         for _ in range(rank)]
        for _ in range(nvars)
    ]
    return module, modules.metrize(modules.Connection(module, gamma))


def _random_poly(lib, rng, backend, deg: int):
    terms = {}
    for exp in itertools.product(range(deg + 1), repeat=backend.nvars):
        if sum(exp) <= deg and rng.random() < 0.5:
            terms[exp] = Fraction(rng.choice(NONZERO))
    return lib.poly.Poly(backend, terms)


def _roth_support(rng, module, degree: int, coeff_deg: int):
    """Term keys and coefficient monomials of a homogeneous element (never empty)."""
    nvars = module.backend.nvars
    keys = [(sym, ext)
            for p in range(degree // 2 + 1)
            if degree - 2 * p <= module.rank and (p == 0 or nvars)
            for sym in itertools.combinations_with_replacement(range(nvars), p)
            for ext in itertools.combinations(range(module.rank), degree - 2 * p)]
    support = []
    for key in keys:
        exps = [e for e in itertools.product(range(coeff_deg + 1), repeat=nvars)
                if sum(e) <= coeff_deg and rng.random() < 0.5]
        if exps and rng.random() < 0.6:
            support.append((key, exps))
    return support or [(keys[0], [(0,) * nvars])]


def _roth(lib, module, support, rng):
    Poly = lib.poly.Poly
    terms = {key: Poly(module.backend, {e: Fraction(rng.choice(NONZERO)) for e in exps})
             for key, exps in support}
    return lib.rothstein.RothElement(module, terms)


class Jacobi(Workload):
    """Exact Jacobiators of both brackets on the acceptance-criterion-1 family.

    The shapes (context, degrees, term support) are fixed, so each op costs the
    same on every seed; the seed picks the nonzero coefficients, so no two
    cycles share inputs and the bracket cache mostly misses.
    """

    name = "jacobi"
    # connection side: rank 4 over two variables, total degree <= 6
    CONNECTION = [(1, 2, 3), (2, 2, 2), (1, 1, 4)]
    # complex side: (nvars, rank) -> degree triples, degrees <= 4
    COMPLEX = {
        (0, 2): [(1, 2, 2), (2, 2, 2)],
        (0, 3): [(1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 3), (1, 3, 3)],
        (1, 2): [(1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 3, 3), (2, 2, 3)],
        (1, 3): [(1, 1, 2), (1, 2, 2), (2, 2, 2)],
        (2, 2): [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)],
        (0, 4): [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 4)],
    }

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        self.shapes = []
        shape_rng = random.Random("jacobi-shapes")
        module, conn = _context(lib, 2, 4, conn_seed=1)
        for degs in self.CONNECTION:
            supports = [_roth_support(shape_rng, module, d, 2) for d in degs]
            self.shapes.append(("connection", module, conn, degs, supports))
        for (nvars, rank), triples in self.COMPLEX.items():
            module, conn = _context(lib, nvars, rank, conn_seed=1 + nvars + 10 * rank)
            for degs in triples:
                supports = [_roth_support(shape_rng, module, d, 2) for d in degs]
                self.shapes.append(("complex", module, conn, degs, supports))

    def cycle(self, k: int) -> list[Op]:
        rng = _cycle_rng(self.seed, k, self.name)
        ops = []
        for side, module, conn, degs, supports in self.shapes:
            triple = [_roth(self.lib, module, s, rng) for s in supports]
            run = self._connection_op if side == "connection" else self._complex_op
            label = "%s nvars=%d rank=%d degrees=%s" % (side, module.backend.nvars, module.rank, degs)
            ops.append(Op(label, partial(run, triple, conn, degs), _is_true))
        return ops

    def _connection_op(self, triple, conn, degs) -> bool:
        rb = self.lib.rothstein.roth_bracket
        a, b, c = triple
        lhs = rb(a, rb(b, c, conn), conn)
        rhs = rb(rb(a, b, conn), c, conn)
        t2 = rb(b, rb(a, c, conn), conn)
        if (degs[0] * degs[1]) % 2:
            t2 = -t2
        return (lhs - rhs - t2).is_zero()

    def _complex_op(self, triple, conn, degs) -> bool:
        apply_J, cb = self.lib.symbol_map.apply_J, self.lib.cmaps.cbracket
        a, b, c = (apply_J(x, conn) for x in triple)
        lhs = cb(a, cb(b, c))
        rhs = cb(cb(a, b), c)
        t2 = cb(b, cb(a, c))
        if (degs[0] * degs[1]) % 2:
            t2 = -t2
        return lhs == rhs + t2


# -- cohomology -------------------------------------------------------------------


def _theta(lib, module, n: int, scale=1):
    """The Dorfman generator -sum_i D_i ^ f_i of the standard structure, scaled."""
    Poly = lib.poly.Poly
    return lib.rothstein.RothElement(
        module, {((i,), (n + i,)): Poly.const(module.backend, -scale) for i in range(n)}
    )


def _standard(lib, n: int):
    deform = lib.deform
    module = deform.standard_module(n)
    conn = lib.modules.Connection.flat(module)
    return deform.CourantStructure.from_theta(_theta(lib, module, n), conn, check=False)


def chain_count(module, r: int, d: int) -> int:
    """Dimension of the (r, d) chain block, counted without enumerating it."""
    nvars = module.backend.nvars
    total = 0
    for p in range(r // 2 + 1):
        k = r - 2 * p
        if k > module.rank or (p > 0 and nvars == 0):
            continue
        n_sym = comb(nvars + p - 1, p) if p else 1
        for ext in itertools.combinations(range(module.rank), k):
            need = d + p - sum(module.internal_degrees[a] for a in ext)
            if need >= 0:
                total += n_sym * (comb(nvars + need - 1, need) if nvars else int(need == 0))
    return total


class Cohomology(Workload):
    """Blocks of the deformation complex of the standard structure on Q[x1..xn]^(2n).

    An op is one (r, d) block: delta_block, its exact rank, then the delta^2
    check against the next block.  The windows are fixed; the seed orders the
    blocks within each cycle.  Cohomology dims are assembled from the ranks at
    the end of a cycle and compared with reference.json.
    """

    name = "cohomology"
    BLOCKS = {int(n): [tuple(b) for b in blocks]
              for n, blocks in REFERENCE["cohomology"]["blocks"].items()}

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        self.structures = {n: _standard(lib, n) for n in self.BLOCKS}
        self.expected_dims = {
            (int(n), r, d): dim for n, rows in REFERENCE["cohomology"]["dims"].items()
            for r, d, dim in rows
        }

    def cycle(self, k: int) -> list[Op]:
        jobs = [(n, r, d) for n, blocks in self.BLOCKS.items() for r, d in blocks]
        _cycle_rng(self.seed, k, self.name).shuffle(jobs)
        ops = []
        for n, r, d in jobs:
            cs = self.structures[n]
            expected = chain_count(cs.module, r, d)
            ops.append(Op("n=%d r=%d d=%d" % (n, r, d), partial(self._block, cs, r, d),
                          partial(_block_ok, expected=expected), key=(n, r, d)))
        return ops

    def _block(self, cs, r, d):
        deform, linalg = self.lib.deform, self.lib.linalg
        block = deform.delta_block(cs, r, d)
        rank = linalg.rank(block.matrix) if block.matrix and block.source_basis else 0
        return len(block.source_basis), rank, deform.delta_squared_is_zero(cs, r, d)

    def close_cycle(self, ops, outcomes) -> set[int]:
        ranks = {op.key: out for op, out in zip(ops, outcomes) if isinstance(out, tuple)}
        bad = set()
        for i, (n, r, d) in enumerate(op.key for op in ops):
            if (n, r, d) not in ranks or ((n, r - 1, d) not in ranks and r > 0):
                continue  # a block that raised is already a failed op
            nsrc, rank_out, _ = ranks[(n, r, d)]
            rank_in = ranks[(n, r - 1, d)][1] if r > 0 else 0
            if nsrc - rank_out - rank_in != self.expected_dims[(n, r, d)]:
                bad.add(i)
        return bad


def _block_ok(outcome, expected) -> bool:
    return outcome[0] == expected and outcome[2] is True


# -- verify -------------------------------------------------------------------------

SO3 = {(0, 1): 2, (1, 2): 0, (2, 0): 1}  # e_i x e_j = e_k


class Verify(Workload):
    """Courant verification through both routes, and derived = Dorfman brackets.

    Each cycle scales so(3) and the standard structures by its own integer c
    (a scaled structure is again one, and its derived bracket is c times
    Dorfman's), so no two cycles share inputs.
    """

    name = "verify"
    # A cycle sorted by cost: 4 mutants, 18 derived-bracket rows, then three
    # ops of two closed-form rows, so3 and standard n = 1, whose costs run on
    # from those of the rows, then standard n = 2.  The median falls in the
    # middle of the rows and the 90th percentile among the five ops above
    # them, not between op kinds of very different cost.
    MUTATIONS = 4
    CLOSED_ROWS_PER_OP = 2
    VERIFY_STANDARD = (1, 2)
    # n -> probe depth for the derived-bracket rows
    DORFMAN = {3: 1}

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        poly = lib.poly
        backend = poly.Backend.free(0)
        one, zero = poly.Poly.one(backend), poly.Poly.zero(backend)
        self.so3_module = lib.modules.MetricModule(
            backend, [[one if i == j else zero for j in range(3)] for i in range(3)])
        self.standard = {}
        for n in sorted(set(self.VERIFY_STANDARD) | set(self.DORFMAN)):
            module = lib.deform.standard_module(n)
            self.standard[n] = (module, lib.modules.Connection.flat(module))
        self.probes = {n: lib.cmaps.probe_elements(self.standard[n][0], depth)
                       for n, depth in self.DORFMAN.items()}
        # a row is one u against every probe v; rows of a closed 1-form u, whose
        # brackets all vanish, cost half as much and run several to an op
        self.rows = {}
        for n, probes in self.probes.items():
            closed = [u for u in probes if _closed_form(u, n)]
            self.rows[n] = [[u] for u in probes if not _closed_form(u, n)] + [
                closed[i:i + self.CLOSED_ROWS_PER_OP]
                for i in range(0, len(closed), self.CLOSED_ROWS_PER_OP)]

    def _so3(self, c):
        lib, module = self.lib, self.so3_module
        table = {}
        for (i, j), k in SO3.items():
            vec = [Fraction(0)] * 3
            vec[k] = c
            table[(i, j)] = lib.modules.ModuleElement(
                module, [lib.poly.Poly.const(module.backend, v) for v in vec])
            table[(j, i)] = -table[(i, j)]
        return lib.cmaps.Cochain.from_tables(module, 3, table)

    def _mutant(self, m, rng):
        lib = self.lib
        levels = {p: dict(t) for p, t in m.levels.items()}
        key = ((), tuple(rng.randrange(3) for _ in range(3)))
        delta = lib.poly.Poly.const(m.module.backend, rng.choice([1, -1, 2, Fraction(1, 2)]))
        levels[0][key] = levels[0].get(key, lib.poly.Poly.zero(m.module.backend)) + delta
        return lib.cmaps.Cochain(m.module, 3, levels)

    def cycle(self, k: int) -> list[Op]:
        lib = self.lib
        rng = _cycle_rng(self.seed, k, self.name)
        c = _cycle_scale(self.seed, k)
        so3 = self._so3(c)
        ops = [Op("verify so3", partial(self._verify, so3), partial(_verdict_is, expected=True))]
        for _ in range(self.MUTATIONS):
            ops.append(Op("verify so3 mutant", partial(self._verify, self._mutant(so3, rng)),
                          partial(_verdict_is, expected=False)))
        structures = {}
        for n, (module, conn) in self.standard.items():
            structures[n] = lib.deform.CourantStructure.from_theta(
                _theta(lib, module, n, c), conn, check=False)
        for n in self.VERIFY_STANDARD:
            ops.append(Op("verify standard n=%d" % n, partial(self._verify, structures[n].cochain),
                          partial(_verdict_is, expected=True)))
        for n, rows in self.rows.items():
            for us in rows:
                label = "dorfman n=%d" % n + (" closed forms" if _closed_form(us[0], n) else "")
                ops.append(Op(label, partial(self._dorfman_rows, structures[n], n, c, us), _is_true))
        return ops

    def _verify(self, m):
        ok, report = self.lib.deform.verify_courant(m)
        return ok, report["agree"]

    def _dorfman_rows(self, cs, n, c, us) -> bool:
        deform = self.lib.deform
        return all(deform.derived_bracket(cs, u, v) == deform.dorfman_bracket(cs.module, n, u, v).scale(c)
                   for u in us for v in self.probes[n])


def _closed_form(u, n: int) -> bool:
    """u = X + xi has X = 0 and d(xi) = 0."""
    X, xi = u.coeffs[:n], u.coeffs[n:]
    return (all(a.is_zero() for a in X)
            and all(xi[i].partial(j) == xi[j].partial(i) for i in range(n) for j in range(i)))


def _verdict_is(outcome, expected) -> bool:
    verdict, agree = outcome
    return verdict is expected and agree is True


# -- cli_batch ----------------------------------------------------------------------


def _poly_text(rng, names, deg: int) -> str:
    """Every monomial of degree <= deg, with seeded nonzero coefficients."""
    parts = []
    for exp in itertools.product(range(deg + 1), repeat=len(names)):
        if sum(exp) <= deg:
            c = rng.choice(NONZERO)
            factors = [str(abs(c))] + ["%s^%d" % (v, e) if e > 1 else v for v, e in zip(names, exp) if e]
            parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(parts).lstrip("+ ")


def _so3_values(c: int) -> dict:
    names = ("e1", "e2", "e3")
    values = {}
    for (i, j), k in SO3.items():
        vec = ["0"] * 3
        vec[k] = str(c)
        values["%s,%s" % (names[i], names[j])] = vec
        values["%s,%s" % (names[j], names[i])] = ["0"] * 3
        values["%s,%s" % (names[j], names[i])][k] = str(-c)
    return values


SO3_HEADER = {
    "schema": "courantalg/1",
    "backend": {"kind": "freepoly", "vars": []},
    "module": {"rank": 3, "basis": ["e1", "e2", "e3"],
               "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    "connection": {"kind": "flat"},
}


def _doc_so3(rng, c, commands, mutate=False) -> dict:
    values = _so3_values(c)
    if mutate:
        key = rng.choice(sorted(values))
        slot = rng.randrange(3)
        values[key][slot] = str(Fraction(values[key][slot]) + rng.choice((1, -1, 2)))
    return dict(SO3_HEADER, elements={"m": {"type": "cmap", "degree": 3, "values": values}},
                commands=commands)


def _roth_terms(rng, degree: int, basis=("e1", "f1")) -> list[str]:
    """Every term of a homogeneous element over the standard module with n = 1."""
    terms = []
    for p in range(degree // 2 + 1):
        sym = "v".join(["d(x)"] * p) or "1"
        for ext in itertools.combinations(basis, degree - 2 * p):
            terms.append("(%s) * %s (x) %s" % (_poly_text(rng, ("x",), 2), sym, "^".join(ext) or "1"))
    return terms


def _gen_documents(rng, c) -> list[tuple[dict, int]]:
    """One document of each generated kind, with the exit code it must give."""
    docs = [
        (_doc_so3(rng, c, [{"op": "verify-courant", "element": "m"}]), 0),
        (_doc_so3(rng, c, [{"op": "verify-courant", "element": "m"}], mutate=True), 1),
        (_doc_so3(rng, -c, [{"op": "bracket", "lhs": "m", "rhs": "m"},
                            {"op": "symbol-tower", "element": "m"}]), 0),
    ]
    for degree in (2, 3):
        docs.append(({
            "schema": "courantalg/1", "module": {"standard": 1},
            "elements": {"phi": {"type": "roth", "terms": _roth_terms(rng, degree)}},
            "commands": [{"op": "j-map", "element": "phi", "name": "m"},
                         {"op": "j-invert", "element": "m", "degree": degree}],
        }, 0))
    coeffs = [[_poly_text(rng, (), 0) for _ in range(3)] for _ in range(2)]
    docs.append((dict(SO3_HEADER, elements={
        "x": {"type": "module", "coeffs": coeffs[0]},
        "y": {"type": "module", "coeffs": coeffs[1]},
        "m": {"type": "cmap", "degree": 3, "values": _so3_values(2 * c)}},
        commands=[{"op": "wedge", "lhs": "x", "rhs": "y", "mode": "both", "name": "xy"},
                  {"op": "wedge", "lhs": "xy", "rhs": "x", "mode": "both"}]), 0))
    a, b = rng.choice(NONZERO), rng.choice(NONZERO)
    docs.append(({
        "schema": "courantalg/1",
        "backend": {"kind": "dualnum", "var": "eps"},
        "module": {"rank": 1, "basis": ["e1"], "gram": [["1"]]},
        "connection": {"kind": "flat"},
        "elements": {"q": {"type": "roth", "terms": ["(%d + %d*eps) * d(eps)vd(eps) (x) 1" % (a, b)]}},
        "commands": [{"op": "chat-membership", "element": "q"}],
    }, 0))
    docs.append(({
        "schema": "courantalg/1", "module": {"standard": 1},
        "elements": {"zero3": {"type": "roth", "terms": []},
                     "cand": {"type": "roth", "terms": _roth_terms(rng, 3)}},
        "commands": [{"op": "mc-extend", "series": ["zero3"], "candidate": "cand"}],
    }, 0))
    docs.append((dict(SO3_HEADER, elements={}, commands=[{"op": "no-such-op"}]), 2))
    return docs


class CliBatch(Workload):
    """A seeded stream of problem documents through cli.run_document, in one process.

    Each cycle runs the committed example documents, one fresh document of
    each generated kind, and exact repeats of earlier generated documents.  A
    repeat must reproduce the first report byte for byte.
    """

    name = "cli_batch"
    # generated kinds (positions in _gen_documents) repeated in every cycle:
    # bracket + symbol tower, wedges and chat membership, which cost little
    # once the caches hold them, and so(3) verification and mc-extend, which
    # stay dear.  The fixed choice keeps the mix of costs the same on every
    # seed, with as many documents below the two ~10 ms first runs of bracket
    # + symbol tower and wedges as above them, so those two hold the median.
    REPEATED_KINDS = (2, 5, 6, 0, 7)

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        expected = REFERENCE["cli_batch"]["committed_exit_codes"]
        self.committed = []
        for path in sorted((ROOT / "docs" / "documents").glob("*.json")):
            self.committed.append((path.name, path.read_text(), expected[path.name]))
        self.generated: list[list[tuple[str, str, int]]] = []  # one list per cycle
        self.first_report: dict[str, str] = {}

    def cycle(self, k: int) -> list[Op]:
        rng = _cycle_rng(self.seed, k, self.name)
        fresh = [("generated", json.dumps(doc, sort_keys=True), code)
                 for doc, code in _gen_documents(rng, _cycle_scale(self.seed, k))]
        self.generated.append(fresh)
        repeats = [self.generated[rng.randrange(k + 1)][kind] for kind in self.REPEATED_KINDS]
        return [Op(label, partial(self._run, text), partial(self._check, expected=(text, code)))
                for label, text, code in self.committed + fresh + repeats]

    def _run(self, text: str):
        report, code = self.lib.cli.run_document(json.loads(text))
        return code, json.dumps(report, sort_keys=True, separators=(",", ":"))

    def _check(self, outcome, expected) -> bool:
        text, code = expected
        got_code, report = outcome
        first = self.first_report.setdefault(text, report)
        return got_code == code and report == first


WORKLOADS = {w.name: w for w in (Jacobi, Cohomology, Verify, CliBatch)}
