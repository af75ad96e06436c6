"""Homogeneous polynomials in Q[x, y, z] with exact coefficients.

A degree-k slice of the ring is identified with Q^((k+1)(k+2)/2) through
the graded lexicographic monomial order with x > y > z: monomials of
equal degree are listed by decreasing x-exponent, then decreasing
y-exponent.  All matrices built here index rows and columns against
those slice bases, so every downstream computation is coordinatized the
same way.  In these coordinates a product with a monomial is a
re-indexing: ``shift_maps`` for the three variables, and
``mono_multiples`` for every monomial of a degree, which builds the
multiplication maps of ``jacobian``.

A polynomial carries an explicit degree tag so that the zero polynomial
of each degree is a distinct, well-typed element of its slice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Sequence, Union

from .errors import WrongShapeError

Coeff = Union[int, Fraction]

# The most bits of a numerator or denominator the parser builds and of a
# coefficient of the integer representative of a curve: it bounds
# parsing and printing, not the analysis.  At most 2126 bits (640
# digits, the smallest int-to-str limit Python can be set to), so the
# printed report never depends on the interpreter's setting.
MAX_COEFF_BITS = 2048


class Monomial(NamedTuple):
    ex: int
    ey: int
    ez: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ex + other.ex, self.ey + other.ey,
                        self.ez + other.ez)

    def __str__(self) -> str:
        parts = []
        for name, e in (("x", self.ex), ("y", self.ey), ("z", self.ez)):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def slice_dim(k: int) -> int:
    """Dimension (k+1)(k+2)/2 of the degree-k slice; 0 for negative k."""
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def twists_dim(twists, k: int) -> int:
    """dim (S/M)_k read off the twists of a graded free resolution of
    S/M: dim S_k plus, over positions p = 1, 2, ..., (-1)^p times the
    sum of dim S_(k-t) over the twists t of position p."""
    total = slice_dim(k)
    sign = -1
    for position in twists:
        total += sign * sum(slice_dim(k - t) for t in position)
        sign = -sign
    return total


@lru_cache(maxsize=None)
def monomial_basis(k: int) -> tuple[Monomial, ...]:
    """Degree-k monomials in graded lex order (x > y > z)."""
    if k < 0:
        return ()
    return tuple(Monomial(a, b, k - a - b)
                 for a in range(k, -1, -1)
                 for b in range(k - a, -1, -1))


def monomial_index(m: Monomial) -> int:
    """Position of m in monomial_basis(m.degree)."""
    n = m.ey + m.ez
    return n * (n + 1) // 2 + m.ez


@lru_cache(maxsize=None)
def shift_maps(k: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index maps of multiplication by x, y, z from slice k to slice k+1.

    Multiplication by a variable permutes monomials into the larger
    basis, so these maps turn vector shifts into pure re-indexing.
    """
    xs, ys, zs = [], [], []
    for m in monomial_basis(k):
        n = m.ey + m.ez
        base = n * (n + 1) // 2
        xs.append(base + m.ez)
        ys.append(base + n + 1 + m.ez)
        zs.append(base + n + 1 + m.ez + 1)
    return tuple(xs), tuple(ys), tuple(zs)


def mono_multiples(vec, k_from: int, k_to: int, block_shifts) -> list:
    """The multiples of a block vector of degree k_from by every monomial
    of degree k_to - k_from, in ``monomial_basis`` order.

    The vector lives in ⊕_b S(-t_b), t_b the block shifts, each block a
    slice of the ring; the multiples are coordinate vectors of degree
    k_to.  A polynomial's vector is one block, shift 0.
    """
    terms = []                    # (block offset at k_to, monomial, value)
    off_in = 0
    off_out = 0
    for t in block_shifts:
        basis_in = monomial_basis(k_from - t)
        for i, v in enumerate(vec[off_in:off_in + len(basis_in)]):
            if v:
                terms.append((off_out, basis_in[i], v))
        off_in += len(basis_in)
        off_out += slice_dim(k_to - t)
    out = []
    for mu in monomial_basis(k_to - k_from):
        col = [0] * off_out
        for off, mono, v in terms:
            col[off + monomial_index(mono * mu)] = v
        out.append(col)
    return out


def coefficient_bits(coeffs) -> int:
    """Most bits of a numerator or denominator among coeffs, ints or
    Fractions (0 when there is none)."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)


def add_terms(a: dict, b: dict) -> dict:
    """Sum of two sparse term dicts, exponent triple -> Fraction, with
    cancelled terms dropped; neither need be homogeneous."""
    return add_into(dict(a), b)


def add_into(out: dict, b: dict) -> dict:
    """Add the term dict b into out in place, as in ``add_terms``, and
    return out: a long sum accumulated this way costs the size of each
    summand, not that of the sum so far."""
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul_terms(a: dict, b: dict) -> dict:
    """Product of two sparse term dicts, as in ``add_terms``."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class HomogeneousPoly:
    """Homogeneous polynomial with a degree tag and Fraction coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        if degree < 0:
            raise WrongShapeError("negative degree")
        self.degree = degree
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict)
                                else terms):
                if not isinstance(mono, Monomial):
                    mono = Monomial(*mono)
                if mono.degree != degree:
                    raise WrongShapeError(
                        f"term of degree {mono.degree} in a degree-{degree} "
                        "polynomial")
                c = Fraction(coeff)
                if c:
                    prev = clean.get(mono)
                    c = c if prev is None else prev + c
                    if c:
                        clean[mono] = c
                    else:
                        del clean[mono]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_vector(cls, degree: int, coords: Sequence[Coeff]) -> "HomogeneousPoly":
        basis = monomial_basis(degree)
        if len(coords) != len(basis):
            raise WrongShapeError("coordinate vector has the wrong length")
        return cls(degree, zip(basis, coords))

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def int_vector(self) -> list[int]:
        """Coordinate vector for integer-coefficient polynomials."""
        vec = [0] * slice_dim(self.degree)
        for mono, coeff in self.terms.items():
            if coeff.denominator != 1:
                raise WrongShapeError("polynomial has non-integer coefficients")
            vec[monomial_index(mono)] = int(coeff)
        return vec

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(),
                      key=lambda t: monomial_index(t[0]))

    # -- arithmetic -----------------------------------------------------

    def _check_degree(self, other: "HomogeneousPoly"):
        if self.degree != other.degree:
            raise WrongShapeError(
                f"degree {self.degree} vs {other.degree} in graded addition")

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_degree(other)
        return HomogeneousPoly(self.degree, add_terms(self.terms, other.terms))

    def __neg__(self) -> "HomogeneousPoly":
        return self.scale(-1)

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def __mul__(self, other) -> "HomogeneousPoly":
        if isinstance(other, HomogeneousPoly):
            return HomogeneousPoly(self.degree + other.degree,
                                   mul_terms(self.terms, other.terms))
        return self.scale(other)

    def scale(self, c: Coeff) -> "HomogeneousPoly":
        c = Fraction(c)
        return HomogeneousPoly(self.degree,
                               {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousPoly)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    # -- calculus and evaluation ---------------------------------------

    def partial(self, var: int) -> "HomogeneousPoly":
        """d/dx, d/dy or d/dz for var 0, 1, 2."""
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            if e:
                lowered = list(mono)
                lowered[var] = e - 1
                terms[Monomial(*lowered)] = coeff * e
        return HomogeneousPoly(max(self.degree - 1, 0), terms)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        px, py, pz = (Fraction(v) for v in point)
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            total += coeff * px**mono.ex * py**mono.ey * pz**mono.ez
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            mtxt = str(mono)
            if mtxt == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mtxt
            else:
                body = f"{abs(coeff)}*{mtxt}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"HomogeneousPoly({self.degree}, {str(self)!r})"


X = HomogeneousPoly(1, [(Monomial(1, 0, 0), 1)])
Y = HomogeneousPoly(1, [(Monomial(0, 1, 0), 1)])
Z = HomogeneousPoly(1, [(Monomial(0, 0, 1), 1)])


def partials(f: HomogeneousPoly) -> tuple[HomogeneousPoly, HomogeneousPoly,
                                          HomogeneousPoly]:
    return f.partial(0), f.partial(1), f.partial(2)


def primitivize(f: HomogeneousPoly) -> HomogeneousPoly:
    """Canonical integer representative of the line Q*f.

    Denominators cleared, content removed, leading (graded lex)
    coefficient positive.  Every invariant computed downstream depends
    on f only through this representative.  f itself when it is that
    representative already, so no caller may write to the terms of a
    polynomial it was handed.
    """
    if not f.terms:
        return f
    den = lcm(*(c.denominator for c in f.terms.values()))
    num = gcd(*(c.numerator * (den // c.denominator)
                for c in f.terms.values()))
    if f.terms[min(f.terms, key=monomial_index)] < 0:
        num = -num
    if den == 1 and num == 1:
        return f
    return f.scale(Fraction(den, num))


def poly_columns_int(g: HomogeneousPoly, m: int) -> list[list[int]]:
    """Integer coordinate vectors of mono*g over monomial_basis(m), as
    ``mono_multiples`` gives them; g must have integer coefficients.
    No module of the package calls it: ``jacobian`` keeps it bound for
    the benchmark's tracer."""
    return mono_multiples(g.int_vector(), g.degree, g.degree + m, (0,))
