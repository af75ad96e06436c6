"""Input text to polynomials and line arrangements.

Polynomial grammar (explicit ``*`` everywhere, ``^`` for powers):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | base ('^' INT)?
    base    := NUMBER | 'x' | 'y' | 'z' | '(' expr ')'
    NUMBER  := INT ('/' INT)?

No exponent and no product may exceed degree ``MAX_DEGREE`` (64); the
check runs before each ``^`` or ``*`` is expanded, so input like
``x^99999999`` is rejected at once instead of being multiplied out.
The degree cap does not bound the term counts, so a product of a
terms by b terms is also refused, before it is expanded, when a * b
exceeds ``MAX_TERM_PAIRS``; ``^`` expands by repeated squaring, at most
two products per binary digit of the exponent.
No more than ``MAX_NESTING`` (100) parentheses and unary minuses may
be open at once; the one past it is refused at its offset, so the
accepted depth is fixed and never depends on the interpreter's stack.
The expression is expanded to a sparse polynomial, with the sum and
product of ``poly.add_terms`` and ``poly.mul_terms``, and then checked:
it must be nonzero and homogeneous (the check runs on the expanded
result, so mixed-degree intermediates inside parentheses are fine as
long as they cancel).

Arrangement files contain one linear form per line; ``#`` starts a
comment, blank lines are skipped, the file is UTF-8.  A file may hold
at most ``MAX_DEGREE`` forms, the degree cap of their product; the form
past it is refused before it is parsed, and before any product is
formed.  Lines and intersection points are normalized by
``poly.primitivize``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (InconsistentCombinatoricsError, NotHomogeneousError,
                     NotLinearError, ParseError, PolySyntaxError,
                     ProportionalLinesError, ZeroPolynomialError)
from .poly import (HomogeneousPoly, Monomial, add_terms, mul_terms,
                   primitivize)

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|([()+\-*/^]))")

_VARS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}

# The largest exponent and the largest degree of any product the parser
# expands; every catalog curve has degree at most 10.
MAX_DEGREE = 64

# The most term pairs one product may multiply, about a second of
# Fraction arithmetic: any two forms of degree at most 24 (325 terms
# each).  The catalog, the tests and the benchmark workloads multiply at
# most 289 pairs at once; (x+y+z+1)^32 needs 969^2.
MAX_TERM_PAIRS = 125_000

# The most '(' and unary '-' open at once.  Each one nests a few frames
# of the recursive descent, so this keeps every accepted input well
# inside the interpreter's default recursion limit, whatever the caller.
MAX_NESTING = 100


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
        self.depth = 0      # '(' and unary '-' open at the current token

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

    def enter(self, pos):
        """Enter the '(' or unary '-' at offset pos; the caller leaves
        it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PolySyntaxError(
                f"nesting exceeds the cap {MAX_NESTING}", pos)

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
                acc = add_terms(acc, rhs if val == "+" else _neg(rhs))
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                _, _, pos = self.take()
                rhs = self.factor()
                _check_degree(_degree(acc) + _degree(rhs), pos)
                acc = _mul(acc, rhs, pos)
            else:
                return acc

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            self.enter(pos)
            inner = _neg(self.factor())
            self.depth -= 1
            return inner
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                raise PolySyntaxError("exponent must be a non-negative integer",
                                      pos)
            if val > MAX_DEGREE:
                raise PolySyntaxError(
                    f"exponent {val} exceeds the cap {MAX_DEGREE}", pos)
            _check_degree(_degree(base) * val, pos)
            return _pow(base, val, pos)
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
            self.enter(pos)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise PolySyntaxError(
            "expected a number, variable or parenthesized expression", pos)


def _degree(a) -> int:
    """Largest total degree of a term of a (0 for the zero dict)."""
    return max((sum(e) for e in a), default=0)


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise PolySyntaxError(
            f"degree {degree} exceeds the cap {MAX_DEGREE}", pos)


def _neg(a):
    return {e: -c for e, c in a.items()}


def _mul(a, b, pos):
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise PolySyntaxError(
            f"product of {len(a)} by {len(b)} terms exceeds the cap of "
            f"{MAX_TERM_PAIRS} term pairs", pos)
    return mul_terms(a, b)


def _pow(a, n, pos):
    """a^n by repeated squaring, over the bits of n from the top."""
    out = {(0, 0, 0): Fraction(1)}
    for bit in bin(n)[2:]:
        out = _mul(out, out, pos)
        if bit == "1":
            out = _mul(out, a, pos)
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
    return HomogeneousPoly(degree, expanded)


@dataclass(frozen=True)
class Arrangement:
    """A reduced arrangement of distinct projective lines."""

    forms: tuple          # HomogeneousPoly, degree 1 each

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
        return [primitivize(f).int_vector() for f in self.forms]


def parse_arrangement(text: str) -> Arrangement:
    """Parse an arrangement file: one linear form per line, # comments."""
    forms = []
    texts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(forms) == MAX_DEGREE:
            raise ParseError(
                f"line {lineno}: more than {MAX_DEGREE} forms, so the "
                f"product would exceed the degree cap {MAX_DEGREE}")
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
    arr = Arrangement(tuple(forms))
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
            p = primitivize(HomogeneousPoly.from_vector(
                1, _cross(rows[i], rows[j]))).int_vector()
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
