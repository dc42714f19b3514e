"""Text grammars for polynomials and graded elements.

Polynomials: sums of `c*x^2*y` style monomials with rational coefficients
`p/q`.  Graded Rothstein terms: `coef * d(x)vd(y) (x) e1^e2` with the unicode
forms v=∨, (x)=⊗, ^=∧ accepted and produced on output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Backend, Poly

WEDGE = "∧"
VEE = "∨"
OTIMES = "⊗"

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-|/|\(|\))")


def parse_poly(text: str, backend: Backend) -> Poly:
    """Parse `3/2*x^2*y - 1` into a Poly over the given backend."""
    return Poly(backend, parse_terms(text, backend))


def parse_terms(text: str, backend: Backend) -> dict[tuple[int, ...], Fraction]:
    """Parse `3/2*x^2*y - 1` into its terms {exponent tuple: Fraction}, like
    terms added and the ones that cancel dropped; no exponent is checked."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError("bad polynomial syntax at position %d: %r" % (pos, text[pos:pos + 10]))
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial")
    name_to_idx = {n: i for i, n in enumerate(backend.names)}

    out: dict = {}
    i = 0
    sign = 1
    while i < len(tokens):
        if tokens[i] == "+":
            sign = 1
            i += 1
            continue
        if tokens[i] == "-":
            sign = -sign
            i += 1
            continue
        coeff = Fraction(sign)
        exp = [0] * backend.nvars
        sign = 1
        saw_factor = False
        expect_factor = True
        while i < len(tokens) and tokens[i] not in ("+", "-"):
            tok = tokens[i]
            if tok == "*":
                i += 1
                continue
            if tok.isdigit():
                num = int(tok)
                if i + 2 < len(tokens) and tokens[i + 1] == "/" and tokens[i + 2].isdigit():
                    coeff *= Fraction(num, int(tokens[i + 2]))
                    i += 3
                else:
                    coeff *= num
                    i += 1
                saw_factor = True
                continue
            if tok in name_to_idx:
                idx = name_to_idx[tok]
                power = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == "^" and tokens[i + 1].isdigit():
                    power = int(tokens[i + 1])
                    i += 2
                exp[idx] += power
                saw_factor = True
                continue
            raise ValueError("unexpected token %r in polynomial" % tok)
        if not saw_factor:
            raise ValueError("dangling sign in polynomial")
        exp = tuple(exp)
        coeff += out.pop(exp, 0)
        if coeff:
            out[exp] = coeff
    return out


def roth_to_text(phi) -> str:
    """Canonical text form of a Rothstein element."""
    terms = phi.terms
    if not terms:
        return "0"
    module = phi.module
    names = module.backend.names
    parts = []
    for (sym, ext), c in sorted(terms.items()):
        symtxt = VEE.join(
            "d(%s)" % (names[0] if module.backend.is_dual else names[i]) for i in sym
        ) or "1"
        exttxt = WEDGE.join(module.names[a] for a in ext) or "1"
        parts.append("(%s) * %s %s %s" % (c, symtxt, OTIMES, exttxt))
    return "  +  ".join(parts)


def parse_roth_term(text: str, module) -> tuple[Poly, tuple[int, ...], tuple[int, ...]]:
    """Parse one `coef * d(x)vd(y) (x) e1^e2` term; returns (coef, sym, ext)."""
    coeftxt, sym, ext = split_roth_term(text, module)
    return parse_poly(coeftxt, module.backend), sym, ext


def split_roth_term(text: str, module) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Split one `coef * d(x)vd(y) (x) e1^e2` term into (coefficient text, sym, ext)."""
    backend = module.backend
    body = text.replace(OTIMES, "@")
    # ASCII alias for the tensor sign: only after the symmetric part, which
    # ends in ')' or the placeholder '1' (a leading '(x)' is a coefficient)
    body = re.sub(r"(?<=[)1])\s+\(x\)(\s|$)", r" @\1", body)
    if "@" not in body:
        raise ValueError("term needs the tensor separator: %r" % text)
    left, _, exttxt = body.partition("@")
    # split the coefficient from the symmetric factors
    left = left.strip()
    m = re.search(r"(d\(|\b1\s*$)", left)
    if m is None:
        raise ValueError("term needs a symmetric part (use 1 for none): %r" % text)
    coeftxt = left[: m.start()].rstrip().rstrip("*").strip()
    if coeftxt.startswith("(") and coeftxt.endswith(")"):
        coeftxt = coeftxt[1:-1].strip()
    symtxt = left[m.start():].strip()
    sym = []
    if symtxt != "1":
        for piece in re.split(r"%s|v" % VEE, symtxt):
            piece = piece.strip()
            mm = re.fullmatch(r"d\(([A-Za-z_0-9]+)\)", piece)
            if not mm:
                raise ValueError("bad symmetric factor %r" % piece)
            name = mm.group(1)
            if backend.is_dual:
                if name != backend.names[0]:
                    raise ValueError("unknown derivation generator d(%s)" % name)
                sym.append(0)
            else:
                sym.append(backend.names.index(name))
    ext = []
    exttxt = exttxt.strip()
    if exttxt != "1":
        for piece in re.split(r"%s|\^" % WEDGE, exttxt):
            piece = piece.strip()
            if piece not in module.names:
                raise ValueError("unknown module basis name %r" % piece)
            ext.append(module.names.index(piece))
    if any(ext[i] >= ext[i + 1] for i in range(len(ext) - 1)):
        raise ValueError("exterior factors must be strictly increasing: %r" % text)
    return coeftxt or "1", tuple(sorted(sym)), tuple(ext)


def parse_roth(terms, module):
    """Build a RothElement from a list of term strings."""
    from .rothstein import RothElement

    out = RothElement.zero(module)
    for t in terms:
        coef, sym, ext = parse_roth_term(t, module)
        out = out + RothElement(module, {(sym, ext): coef})
    return out
