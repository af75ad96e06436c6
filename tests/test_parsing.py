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
    PolySyntaxError,
    ProportionalLinesError,
    ZeroPolynomialError,
)
from curvesat.parsing import combinatorics, parse_arrangement, parse_poly
from curvesat.poly import Monomial


def test_parse_simple_polynomial():
    f = parse_poly("x^3 + y^3 + z^3")
    assert f.degree == 3
    assert f.terms[Monomial(3, 0, 0)] == 1
    assert len(f.terms) == 3


def test_parse_expands_products_and_powers():
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("x*(y + z) - x*y") == parse_poly("x*z")
    assert parse_poly("-(x - y)") == parse_poly("y - x")


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
    assert arr.form_texts == ("x", "y", "x + y")
    assert str(arr.product()) == "x^2*y + x*y^2"
    assert arr.coefficient_rows() == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]


def test_parse_arrangement_comments_and_blanks():
    arr = parse_arrangement("# triangle\nx\n\ny   # second line\nz\n")
    assert arr.degree == 3
    assert arr.form_texts == ("x", "y", "z")


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


def test_parse_arrangement_line_prefix_on_syntax_error():
    with pytest.raises(PolySyntaxError, match="line 2"):
        parse_arrangement("x\ny +\n")


def test_combinatorics_concurrent_triple():
    c = combinatorics(parse_arrangement("x\ny\nx + y\n"))
    assert c.point_count == 1
    assert dict(c.multiplicity_counts) == {3: 1}
    assert c.tau == 4


def test_combinatorics_triangle():
    c = combinatorics(parse_arrangement("x\ny\nz\n"))
    assert c.point_count == 3
    assert dict(c.multiplicity_counts) == {2: 3}
    assert c.tau == 3


def test_combinatorics_ziegler_fixtures():
    # both members of the pair share this intersection lattice size
    for name in ("ziegler-A", "ziegler-Aprime"):
        c = combinatorics(parse_arrangement(entry(name).text))
        assert c.point_count == 24
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
