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
No coefficient may exceed ``poly.MAX_COEFF_BITS`` (2048) bits: a
literal longer than ``MAX_LITERAL_DIGITS`` is refused before it is
read, and every ``*``, ``^`` and ``+`` or ``-`` step checks the
coefficients it made, so no step works on numbers of more than about
twice the cap, and every coefficient prints within the smallest
int-to-str limit the interpreter can be set to.
No more than ``MAX_NESTING`` (100) parentheses and unary minuses may
be open at once; the one past it is refused at its offset, so the
accepted depth is fixed and never depends on the interpreter's stack.
The expression is expanded to a sparse polynomial, a sum accumulated
in place (``poly.add_into``, so a long sum parses in linear time) and
each product by ``poly.mul_terms``, and then checked:
it must be nonzero and homogeneous (the check runs on the expanded
result, so mixed-degree intermediates inside parentheses are fine as
long as they cancel).

Arrangement files contain one linear form per line; ``#`` starts a
comment, blank lines are skipped, the file is UTF-8.  A file may hold
at most ``MAX_DEGREE`` forms, the degree cap of their product; the form
past it is refused before it is parsed, and before any product is
formed.  Lines are normalized by ``poly.primitivize`` once per
arrangement (``Arrangement.coefficient_rows``), intersection points by
``exactla.primitive`` and a sign flip.  ``Arrangement.product``
multiplies those integer rows out with ``poly.mul_terms`` and applies
the forms' ratios to them as one rational scalar, so no polynomial is
multiplied in ``Fraction``s between the parser and the curve data.
``Arrangement.normalized`` changes coordinates so that the first
independent triple of lines, in input order, becomes +-x, +-y and +-z;
``analysis`` analyzes an arrangement in those coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .errors import (InconsistentCombinatoricsError, NotHomogeneousError,
                     NotLinearError, ParseError, PolySyntaxError,
                     ProportionalLinesError, ZeroPolynomialError)
from .exactla import primitive
from .poly import (MAX_COEFF_BITS, HomogeneousPoly, add_into,
                   coefficient_bits, monomial_basis, mul_terms, primitivize)

_TOKEN = re.compile(r"([0-9]+)|([xyz])|([()+\-*/^])")
_SPACE = re.compile(r"\s*")

_VARS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}

# The largest exponent and the largest degree of any product the parser
# expands; every catalog curve has degree at most 10.
MAX_DEGREE = 64

# The most term pairs one product may multiply, about a second of
# Fraction arithmetic: any two forms of degree at most 24 (325 terms
# each).  The catalog, the tests and the benchmark workloads multiply at
# most 289 pairs at once; (x+y+z+1)^32 needs 969^2.
MAX_TERM_PAIRS = 125_000

# The most digits of an integer literal: 10^616 < 2^2047, so every
# literal within it has at most MAX_COEFF_BITS bits.
MAX_LITERAL_DIGITS = 616

# The most '(' and unary '-' open at once.  Each one nests a few frames
# of the recursive descent, so this keeps every accepted input well
# inside the interpreter's default recursion limit, whatever the caller.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            if len(m.group(1)) > MAX_LITERAL_DIGITS:
                raise PolySyntaxError(
                    f"literal of {len(m.group(1))} digits exceeds the cap "
                    f"of {MAX_LITERAL_DIGITS} digits", pos)
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = _SPACE.match(text, m.end()).end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; values are sparse dicts
    mapping exponent triples to coefficients, ints until a ``/`` brings
    in a Fraction (not necessarily homogeneous until the final
    check)."""

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
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                add_into(acc, rhs if val == "+" else _neg(rhs))
                _check_bits([acc[e] for e in rhs if e in acc], pos)
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
                return _constant(Fraction(val, dval))
            return _constant(val)
        if kind == "var":
            return {_VARS[val]: 1}
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


def _check_bits(coeffs, pos: int) -> None:
    bits = coefficient_bits(coeffs)
    if bits > MAX_COEFF_BITS:
        raise PolySyntaxError(
            f"coefficient of {bits} bits exceeds the cap of "
            f"{MAX_COEFF_BITS} bits", pos)


def _constant(c):
    """The term dict of the constant c: no terms when c = 0."""
    return {(0, 0, 0): c} if c else {}


def _neg(a):
    return {e: -c for e, c in a.items()}


def _mul(a, b, pos):
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise PolySyntaxError(
            f"product of {len(a)} by {len(b)} terms exceeds the cap of "
            f"{MAX_TERM_PAIRS} term pairs", pos)
    out = mul_terms(a, b)
    _check_bits(out.values(), pos)
    return out


def _pow(a, n, pos):
    """a^n: in closed form for a single term, {e: c}^n = {n e: c^n},
    else by repeated squaring over the bits of n from the top."""
    if len(a) == 1:
        ((e, c),) = a.items()
        out = {tuple(n * v for v in e): c ** n}
        _check_bits(out.values(), pos)
        return out
    out = {(0, 0, 0): 1}
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
        """The product of the forms as given: the product of their
        ``coefficient_rows``, multiplied out in integers, times the
        product of each form's ratio to its row."""
        out = {(0, 0, 0): 1}
        scale = Fraction(1)
        for form, row in zip(self.forms, self.coefficient_rows()):
            line = {m: c for m, c in zip(monomial_basis(1), row) if c}
            out = mul_terms(out, line)
            lead, c = next(iter(line.items()))   # nonzero in form and row
            scale *= form.terms[lead] / c
        return HomogeneousPoly(self.degree,
                               {e: scale * c for e, c in out.items()})

    def coefficient_rows(self) -> list[list[int]]:
        """Primitive integer (cx, cy, cz) per line, sign of first nonzero
        > 0; computed once, and shared, so callers must not write to it."""
        return self._rows

    @cached_property
    def _rows(self) -> list[list[int]]:
        return [primitivize(f).int_vector() for f in self.forms]

    def normalized(self) -> "Arrangement":
        """The same arrangement in coordinates where its first three
        independent lines, in input order, are +-x, +-y and +-z.

        With a, b, c those lines' rows, each row r maps to
        ``primitive(r . adj(A))`` for A the matrix of rows a, b, c,
        whose columns of adj(A) are b x c, c x a and a x b.  The lines
        are distinct, so the triple is the first two lines and the first
        line off their common point; ``self`` when there is none (the
        lines are concurrent).
        """
        rows = self.coefficient_rows()
        if len(rows) < 3:
            return self
        a, b = rows[0], rows[1]
        p = _cross(a, b)
        c = next((r for r in rows[2:] if _dot(r, p)), None)
        if c is None:
            return self
        adj = (_cross(b, c), _cross(c, a), p)
        return Arrangement(tuple(
            HomogeneousPoly.from_vector(1, primitive([_dot(r, col)
                                                      for col in adj]))
            for r in rows))


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


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


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
            p = primitive(_cross(rows[i], rows[j]))
            if next((v for v in p if v), 0) < 0:
                p = [-v for v in p]
            key = tuple(p)
            if key in seen:
                continue
            incident = tuple(k for k in range(d) if _dot(rows[k], p) == 0)
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
