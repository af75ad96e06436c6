"""Input grammar, arrangement files, and intersection combinatorics."""

import time
from fractions import Fraction
from functools import reduce

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
from curvesat.poly import (MAX_COEFF_BITS, HomogeneousPoly, Monomial,
                           add_terms, monomial_basis)


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


@pytest.mark.parametrize("text", ["0", "0/7", "-0"])
def test_zero_literal_is_the_zero_polynomial(text):
    with pytest.raises(ZeroPolynomialError):
        parse_poly(text)


@pytest.mark.parametrize("text", ["0 + x*y", "x*y + 0", "-0 + x*y"])
def test_zero_literal_adds_no_term(text):
    assert parse_poly(text) == parse_poly("x*y")


def test_tokenizing_is_linear_in_the_input_length():
    # 640 KB; copying the rest of the input per token took 9.8 s
    text = "x" + " + x" * 160_000
    start = time.perf_counter()
    assert parse_poly(text) == HomogeneousPoly(1, {Monomial(1, 0, 0): 160_001})
    assert time.perf_counter() - start < 4


def test_digits_are_ascii():
    # the grammar's INT is 0-9; an Arabic-Indic three is no exponent
    with pytest.raises(PolySyntaxError, match="unexpected character") as exc:
        parse_poly("x^\u0663")
    assert exc.value.position == 2


def test_a_long_sum_parses_to_the_terms_of_a_pairwise_fold():
    # every monomial of degree at most 20, with coefficient k + 1 in
    # degree k, minus every one below degree 20: 3311 summands that
    # leave the 231 of degree 20, with the same terms in the same order
    # as a fold of add_terms over the summands
    summands = [(k + 1, m) for k in range(21) for m in monomial_basis(k)]
    summands += [(-k - 1, m) for k in range(20) for m in monomial_basis(k)]
    assert len(summands) == 3311
    text = " + ".join(f"{c}*x^{m.ex}*y^{m.ey}*z^{m.ez}"
                      for c, m in summands).replace("+ -", "- ")
    fold = reduce(add_terms, ({tuple(m): Fraction(c)} for c, m in summands))
    f = parse_poly(text)
    assert f.degree == 20 and len(f.terms) == 231
    assert list(f.terms.items()) == [(Monomial(*e), c)
                                     for e, c in fold.items()]


def test_literal_length_is_capped_before_it_is_read():
    digits = "7" * parsing.MAX_LITERAL_DIGITS
    assert parse_poly(digits + "*x").terms[Monomial(1, 0, 0)] == int(digits)
    with pytest.raises(PolySyntaxError, match="617 digits exceeds") as exc:
        parse_poly("x + 1/" + digits + "7*y")
    assert exc.value.position == 6
    assert 10 ** parsing.MAX_LITERAL_DIGITS < 2 ** MAX_COEFF_BITS


@pytest.mark.parametrize("text, at", [
    ("(2^32)^64*x", "64*"),                  # 2^2048, at the exponent
    ("(2^32)^32*(2^32)^32*x", "*("),         # at the '*'
    ("((1/3)^64)^20*x + ((1/2)^64)^20*x", "+"),  # a sum of fractions
])
def test_coefficient_bits_are_capped_as_they_grow(text, at):
    with pytest.raises(PolySyntaxError,
                       match="exceeds the cap of 2048 bits") as exc:
        parse_poly(text)
    assert exc.value.position == text.index(at)
    assert parse_poly("(2^32)^63*2^31*x") == HomogeneousPoly(
        1, {Monomial(1, 0, 0): 2 ** 2047})


def _power_by_multiplication(a, n, pos):
    # n - 1 products of a, each checked against the bit cap as the
    # parser checks a product
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = parsing._mul(out, a, pos)
    return out


@given(st.tuples(*[st.integers(0, 3)] * 3),
       st.fractions(max_denominator=50).filter(bool)
       | st.sampled_from([Fraction(-1), Fraction(-7, 3), Fraction(2 ** 40)]),
       st.integers(0, 64))
def test_a_one_term_power_is_repeated_multiplication(e, c, n):
    # a single term is raised in closed form, {e: c}^n = {n e: c^n}; it
    # must give what n multiplications give, and raise at the same
    # position where a product passes the bit cap
    try:
        expected = _power_by_multiplication({e: c}, n, 5)
    except PolySyntaxError as exc:
        with pytest.raises(PolySyntaxError,
                           match="exceeds the cap of 2048 bits") as got:
            parsing._pow({e: c}, n, 5)
        assert got.value.position == exc.position == 5
    else:
        assert parsing._pow({e: c}, n, 5) == expected


def test_one_term_powers_parse_as_their_products():
    assert parse_poly("(-2/3*x*y^2)^5") == parse_poly(
        " * ".join(["(-2/3*x*y^2)"] * 5))
    assert parse_poly("0^0*x") == parse_poly("x")
    text = "(2^40*x)^52"
    with pytest.raises(PolySyntaxError, match="2081 bits") as exc:
        parse_poly(text)
    assert exc.value.position == text.index("52")


def test_syntax_error_carries_offset():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x + * y")
    assert exc.value.position == 4
    with pytest.raises(PolySyntaxError, match="character '@'") as exc:
        parse_poly("x +     @ y")
    assert exc.value.position == 8
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
