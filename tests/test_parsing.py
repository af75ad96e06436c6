"""Input grammar, arrangement files, and intersection combinatorics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvesat import parsing
from curvesat.catalog import entry
from curvesat.cli import EXIT_INTERNAL, main
from curvesat.errors import (
    InconsistentCombinatoricsError,
    NotHomogeneousError,
    NotLinearError,
    ParseError,
    PolySyntaxError,
    ProportionalLinesError,
    ZeroPolynomialError,
)
from curvesat.parsing import combinatorics, parse_arrangement, parse_poly
from curvesat.poly import HomogeneousPoly, Monomial, monomial_basis


def test_parse_simple_polynomial():
    f = parse_poly("x^3 + y^3 + z^3")
    assert f.degree == 3
    assert f.terms[Monomial(3, 0, 0)] == 1
    assert len(f.terms) == 3


def test_parse_expands_products_and_powers():
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("x*(y + z) - x*y") == parse_poly("x*z")
    assert parse_poly("-(x - y)") == parse_poly("y - x")


def test_degree_cap_rejects_before_expanding():
    # up to the cap a power or product expands; one past it is refused
    # at the offending operator, whatever the base
    assert parse_poly("x^64").degree == parsing.MAX_DEGREE == 64
    assert parse_poly("x^32*y^32").degree == 64
    cases = [("x^65", 2), ("(x + y)^33*(x - y)^32", 10), ("x^40*y^30", 4),
             ("1^65", 2), ("(x^2 + y)^40", 10)]
    for text, pos in cases:
        with pytest.raises(PolySyntaxError, match="exceeds the cap 64") as exc:
            parse_poly(text)
        assert exc.value.position == pos


def test_term_pair_cap_rejects_before_multiplying():
    # (x+y+z+1)^16 has 969 terms, squared from 165; squaring it once
    # more is refused at the exponent
    assert 969 ** 2 > parsing.MAX_TERM_PAIRS > 165 ** 2
    assert parse_poly("(x+y+z+1)^16 - (x+y+z+1)^16 + x^16") == \
        parse_poly("x^16")
    with pytest.raises(PolySyntaxError, match="969 by 969 terms") as exc:
        parse_poly("(x+y+z+1)^32 - (x+y+z+1)^32 + x^32")
    assert exc.value.position == 10


def test_nesting_cap_rejects_at_the_offending_token():
    # up to the cap, parentheses and unary minuses nest, in any mix; the
    # one past it is refused at its offset, before the recursion deepens
    assert parsing.MAX_NESTING == 100
    xy = parse_poly("x*y")
    assert parse_poly("(" * 100 + "x*y" + ")" * 100) == xy
    assert parse_poly("-" * 100 + "x*y") == xy
    assert parse_poly("-(" * 50 + "x*y" + ")" * 50) == xy
    for text in ("(" * 101 + "x*y" + ")" * 101, "-" * 101 + "x*y",
                 "(" * 50 + "-" * 51 + "x*y" + ")" * 50):
        with pytest.raises(PolySyntaxError,
                           match="nesting exceeds the cap 100") as exc:
            parse_poly(text)
        assert exc.value.position == 100


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def forms(draw):
    d = draw(st.integers(min_value=0, max_value=4))
    basis = monomial_basis(d)
    vec = draw(st.lists(fractions, min_size=len(basis), max_size=len(basis)))
    return HomogeneousPoly(d, zip(basis, vec))


@given(forms().filter(lambda f: not f.is_zero()),
       forms().filter(lambda f: not f.is_zero()))
def test_parser_and_poly_share_one_arithmetic(a, b):
    # the printed forms parse back, and the parser's product, sum and
    # difference are those of HomogeneousPoly
    assert parse_poly(f"({a})*({b})") == a * b
    if a.degree != b.degree:
        return
    for text, want in ((f"({a}) + ({b})", a + b), (f"({a}) - ({b})", a - b)):
        if want.is_zero():
            with pytest.raises(ZeroPolynomialError):
                parse_poly(text)
        else:
            assert parse_poly(text) == want


def test_parse_fraction_coefficients():
    f = parse_poly("2/3 * x^2 + y^2 - z^2")
    assert f.terms[Monomial(2, 0, 0)] == Fraction(2, 3)
    assert str(f) == "2/3*x^2 + y^2 - z^2"


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError, match=r"mixed degrees \[1, 2\]"):
        parse_poly("x + y^2")
    # homogeneous only after expansion is fine
    parse_poly("(x + y)*(x - y) + y^2")


def test_parse_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        parse_poly("x*y - y*x")


def test_syntax_error_carries_offset():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x + * y")
    assert exc.value.position == 4
    with pytest.raises(PolySyntaxError):
        parse_poly("x + y)")
    with pytest.raises(PolySyntaxError):
        parse_poly("w + x")


def test_parse_arrangement_basic():
    arr = parse_arrangement("x\ny\nx + y\n")
    assert arr.degree == 3
    assert [str(g) for g in arr.forms] == ["x", "y", "x + y"]
    assert str(arr.product()) == "x^2*y + x*y^2"
    assert arr.coefficient_rows() == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]


def test_parse_arrangement_comments_and_blanks():
    arr = parse_arrangement("# triangle\nx\n\ny   # second line\nz\n")
    assert arr.degree == 3
    assert [str(g) for g in arr.forms] == ["x", "y", "z"]


def test_parse_arrangement_rejects_nonlinear():
    with pytest.raises(NotLinearError, match="line 2"):
        parse_arrangement("x\nx^2\n")


def test_parse_arrangement_rejects_empty():
    with pytest.raises(ZeroPolynomialError):
        parse_arrangement("")
    with pytest.raises(ZeroPolynomialError):
        parse_arrangement("# only comments\n\n")


def test_parse_arrangement_rejects_proportional_lines():
    with pytest.raises(ProportionalLinesError):
        parse_arrangement("x\n2*x\ny\n")
    with pytest.raises(ProportionalLinesError):
        parse_arrangement("x - y\n-1/2*x + 1/2*y\n")


def test_parse_arrangement_caps_the_line_count():
    # 65 distinct lines would multiply to a curve above the degree cap;
    # the 65th form is refused before it is parsed
    lines = [f"x + {i}*y + {i * i}*z" for i in range(65)]
    assert parse_arrangement("\n".join(lines[:64])).degree == 64
    with pytest.raises(ParseError, match="line 65: more than 64 forms"):
        parse_arrangement("\n".join(lines))


def test_parse_arrangement_line_prefix_on_syntax_error():
    with pytest.raises(PolySyntaxError, match="line 2"):
        parse_arrangement("x\ny +\n")


def test_combinatorics_concurrent_triple():
    c = combinatorics(parse_arrangement("x\ny\nx + y\n"))
    assert len(c.points) == 1
    assert dict(c.multiplicity_counts) == {3: 1}
    assert c.tau == 4


def test_combinatorics_triangle():
    c = combinatorics(parse_arrangement("x\ny\nz\n"))
    assert len(c.points) == 3
    assert dict(c.multiplicity_counts) == {2: 3}
    assert c.tau == 3


def test_combinatorics_ziegler_fixtures():
    # both members of the pair share this intersection lattice size
    for name in ("ziegler-A", "ziegler-Aprime"):
        c = combinatorics(parse_arrangement(entry(name).text))
        assert len(c.points) == 24
        assert dict(c.multiplicity_counts) == {2: 18, 3: 6}
        assert c.tau == 42


def test_combinatorics_rejects_an_inconsistent_pair_count(monkeypatch):
    # a point on none of the lines accounts for no pair: the invariant
    # sum C(m,2) * n_m = C(d,2) must fail loudly, also under python -O
    monkeypatch.setattr(parsing, "_cross", lambda a, b: [1, 1, 1])
    with pytest.raises(InconsistentCombinatoricsError):
        combinatorics(parse_arrangement("x\ny\nz\n"))
    assert main(["analyze", "--catalog", "triangle"]) == EXIT_INTERNAL


coeff = st.integers(min_value=-4, max_value=4)


@given(st.lists(st.tuples(coeff, coeff, coeff), min_size=3, max_size=7))
def test_combinatorics_pair_count(rows):
    lines = []
    for u in rows:
        if u == (0, 0, 0):
            continue
        if any(a[0] * u[1] == a[1] * u[0] and a[0] * u[2] == a[2] * u[0]
               and a[1] * u[2] == a[2] * u[1] for a in lines):
            continue
        lines.append(u)
    if len(lines) < 2:
        return
    text = "\n".join(
        " + ".join(f"{c}*{v}" for c, v in zip(row, "xyz")) for row in lines)
    arr = parse_arrangement(text)
    c = combinatorics(arr)
    # every pair of lines meets in exactly one point
    d = len(lines)
    pairs = sum(m * (m - 1) // 2 * cnt
                for m, cnt in c.multiplicity_counts.items())
    assert pairs == d * (d - 1) // 2
