"""Input text to polynomials and line arrangements.

Polynomial grammar (explicit ``*`` everywhere, ``^`` for powers):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | base ('^' INT)?
    base    := NUMBER | 'x' | 'y' | 'z' | '(' expr ')'
    NUMBER  := INT ('/' INT)?

The expression is expanded to a sparse polynomial and then checked: it
must be nonzero and homogeneous (the check runs on the expanded result,
so mixed-degree intermediates inside parentheses are fine as long as
they cancel).

Arrangement files contain one linear form per line; ``#`` starts a
comment, blank lines are skipped, the file is UTF-8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import (InconsistentCombinatoricsError, NotHomogeneousError,
                     NotLinearError, ParseError, PolySyntaxError,
                     ProportionalLinesError, ZeroPolynomialError)
from .exactla import clear_row
from .poly import HomogeneousPoly, Monomial

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|([()+\-*/^]))")

_VARS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        stripped = text[pos:].lstrip()
        if not stripped:
            break
        m = _TOKEN.match(text, pos)
        if not m:
            at = len(text) - len(stripped)
            raise PolySyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; values are sparse dicts
    mapping exponent triples to Fractions (not necessarily homogeneous
    until the final check)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise PolySyntaxError(f"expected {op!r}", pos)

    def parse(self):
        result = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolySyntaxError(f"unexpected {val!r}", pos)
        return result

    def expr(self):
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = _add(acc, rhs if val == "+" else _neg(rhs))
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = _mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _neg(self.factor())
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise PolySyntaxError("exponent must be a non-negative integer",
                                      pos)
            return _pow(base, val)
        return base

    def base(self):
        kind, val, pos = self.take()
        if kind == "int":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "/":
                self.take()
                dkind, dval, dpos = self.take()
                if dkind != "int":
                    raise PolySyntaxError("expected integer denominator", dpos)
                if dval == 0:
                    raise PolySyntaxError("zero denominator", dpos)
                return {(0, 0, 0): Fraction(val, dval)}
            return {(0, 0, 0): Fraction(val)}
        if kind == "var":
            return {_VARS[val]: Fraction(1)}
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolySyntaxError(
            "expected a number, variable or parenthesized expression", pos)


def _add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _neg(a):
    return {e: -c for e, c in a.items()}


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pow(a, n):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = _mul(out, a)
    return out


def parse_poly(text: str) -> HomogeneousPoly:
    """Parse a homogeneous polynomial in x, y, z."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise PolySyntaxError("empty input", 0)
    expanded = _Parser(tokens).parse()
    if not expanded:
        raise ZeroPolynomialError("expression expands to the zero polynomial")
    degrees = {sum(e) for e in expanded}
    if len(degrees) > 1:
        raise NotHomogeneousError(
            f"mixed degrees {sorted(degrees)} after expansion")
    (degree,) = degrees
    return HomogeneousPoly(degree,
                           {Monomial(*e): c for e, c in expanded.items()})


@dataclass(frozen=True)
class Arrangement:
    """A reduced arrangement of distinct projective lines."""

    forms: tuple          # HomogeneousPoly, degree 1 each
    form_texts: tuple     # cleaned source line per form
    source_text: str

    @property
    def degree(self) -> int:
        return len(self.forms)

    def product(self) -> HomogeneousPoly:
        out = HomogeneousPoly(0, [(Monomial(0, 0, 0), 1)])
        for form in self.forms:
            out = out * form
        return out

    def coefficient_rows(self) -> list[list[int]]:
        """Primitive integer (cx, cy, cz) per line, sign of first nonzero > 0."""
        out = []
        for form in self.forms:
            row = clear_row([
                form.terms.get(Monomial(1, 0, 0), Fraction(0)),
                form.terms.get(Monomial(0, 1, 0), Fraction(0)),
                form.terms.get(Monomial(0, 0, 1), Fraction(0)),
            ])
            g = gcd(gcd(abs(row[0]), abs(row[1])), abs(row[2]))
            row = [v // g for v in row]
            lead = next(v for v in row if v)
            if lead < 0:
                row = [-v for v in row]
            out.append(row)
        return out


def parse_arrangement(text: str) -> Arrangement:
    """Parse an arrangement file: one linear form per line, # comments."""
    forms = []
    texts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            form = parse_poly(line)
        except ParseError as exc:
            raise type(exc)(f"line {lineno}: {exc.args[0]}") from None
        if form.degree != 1:
            raise NotLinearError(
                f"line {lineno}: {line!r} has degree {form.degree}, expected 1")
        forms.append(form)
        texts.append(line)
    if not forms:
        raise ZeroPolynomialError("arrangement file contains no forms")
    arr = Arrangement(tuple(forms), tuple(texts), text)
    rows = arr.coefficient_rows()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] == rows[j]:
                raise ProportionalLinesError(
                    f"forms {texts[i]!r} and {texts[j]!r} define the same line")
    return arr


@dataclass(frozen=True)
class ArrangementCombinatorics:
    """Intersection lattice data of a line arrangement."""

    points: tuple                  # ((point triple, line index tuple), ...)
    multiplicity_counts: dict      # multiplicity -> number of points
    tau: int                       # sum of (multiplicity - 1)^2

    @property
    def point_count(self) -> int:
        return len(self.points)


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def combinatorics(arr: Arrangement) -> ArrangementCombinatorics:
    """Intersection points with their incident lines, computed exactly.

    Each pair of lines meets in one projective point; points are
    normalized to primitive integer triples with positive leading entry
    so coincident intersections merge exactly.
    """
    rows = arr.coefficient_rows()
    d = len(rows)
    seen = {}
    for i in range(d):
        for j in range(i + 1, d):
            p = _cross(rows[i], rows[j])
            g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
            p = [v // g for v in p]
            lead = next(v for v in p if v)
            if lead < 0:
                p = [-v for v in p]
            key = tuple(p)
            if key in seen:
                continue
            incident = tuple(k for k in range(d)
                             if rows[k][0] * p[0] + rows[k][1] * p[1]
                             + rows[k][2] * p[2] == 0)
            seen[key] = incident
    counts: dict[int, int] = {}
    tau = 0
    for incident in seen.values():
        m = len(incident)
        counts[m] = counts.get(m, 0) + 1
        tau += (m - 1) * (m - 1)
    # every pair of lines is accounted for by exactly one point
    pairs = sum(comb(m, 2) * c for m, c in counts.items())
    if pairs != comb(d, 2):
        raise InconsistentCombinatoricsError(
            f"intersection points account for {pairs} pairs of lines, "
            f"expected {comb(d, 2)}")
    pts = tuple(sorted(seen.items()))
    return ArrangementCombinatorics(pts, counts, tau)
