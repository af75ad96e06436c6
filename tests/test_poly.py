"""Monomial bookkeeping and homogeneous polynomial arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvesat.errors import WrongShapeError
from curvesat.exactla import rank_int
from curvesat.parsing import parse_poly
from curvesat.poly import (
    X,
    Y,
    Z,
    HomogeneousPoly,
    Monomial,
    monomial_basis,
    monomial_index,
    mono_multiples,
    partials,
    poly_columns_int,
    primitivize,
    shift_maps,
    slice_dim,
)


def test_slice_dim_matches_basis_length():
    for k in range(8):
        assert slice_dim(k) == len(monomial_basis(k))
    assert [slice_dim(k) for k in range(5)] == [1, 3, 6, 10, 15]


def test_basis_order_degree_one():
    assert monomial_basis(0) == (Monomial(0, 0, 0),)
    assert monomial_basis(1) == (Monomial(1, 0, 0), Monomial(0, 1, 0),
                                 Monomial(0, 0, 1))


def test_monomial_index_inverts_basis():
    for k in range(7):
        for i, mono in enumerate(monomial_basis(k)):
            assert monomial_index(mono) == i


def test_shift_maps_x_is_identity():
    # the x shift preserves the (ey + ez, ez) key, so indices are fixed;
    # the slice chain in FormsIdeal relies on this
    for k in range(7):
        xs, ys, zs = shift_maps(k)
        assert list(xs) == list(range(slice_dim(k)))
        assert list(ys) == sorted(ys)
        assert list(zs) == sorted(zs)
        assert len(set(ys)) == len(ys)
        assert len(set(zs)) == len(zs)


def test_shift_maps_agree_with_multiplication():
    for k in range(6):
        basis = monomial_basis(k)
        maps = shift_maps(k)
        for var, gen in enumerate((Monomial(1, 0, 0), Monomial(0, 1, 0),
                                   Monomial(0, 0, 1))):
            for i, mono in enumerate(basis):
                assert maps[var][i] == monomial_index(mono * gen)


def test_partials_of_fermat_cubic():
    f = parse_poly("x^3 + y^3 + z^3")
    fx, fy, fz = partials(f)
    assert fx == (X * X).scale(3)
    assert fy == (Y * Y).scale(3)
    assert fz == (Z * Z).scale(3)


def test_degree_mismatch_rejected():
    with pytest.raises(WrongShapeError):
        HomogeneousPoly(2, [(Monomial(1, 0, 0), 1)])
    with pytest.raises(WrongShapeError):
        X + (X * X)


def test_from_vector_round_trip():
    f = parse_poly("x^2 - 2*x*y + 3*z^2")
    assert HomogeneousPoly.from_vector(2, f.int_vector()) == f


def test_int_vector_rejects_fractions():
    f = parse_poly("1/2 * x^2")
    with pytest.raises(WrongShapeError):
        f.int_vector()


def test_primitivize():
    f = parse_poly("2*x^2 + 4*y^2")
    g = primitivize(f)
    assert g == parse_poly("x^2 + 2*y^2")
    assert primitivize(parse_poly("-x - y")) == parse_poly("x + y")
    assert primitivize(parse_poly("1/3*x + 1/6*y")) == parse_poly("2*x + y")
    # the representative is returned as it is, and f is left unchanged
    assert primitivize(g) is g
    assert f == parse_poly("2*x^2 + 4*y^2")


coeffs = st.integers(min_value=-5, max_value=5)


@st.composite
def polys(draw, max_degree=4):
    d = draw(st.integers(min_value=1, max_value=max_degree))
    basis = monomial_basis(d)
    vec = draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)))
    return HomogeneousPoly(d, zip(basis, vec))


@given(polys())
def test_euler_relation(f):
    fx, fy, fz = partials(f)
    lhs = X * fx + Y * fy + Z * fz
    assert lhs == f.scale(f.degree)


@given(polys(), polys())
def test_multiplication_degrees_add(f, g):
    assert (f * g).degree == f.degree + g.degree


@given(polys(), st.lists(coeffs, min_size=3, max_size=3))
def test_evaluation_is_multiplicative(f, point):
    val = (f * f).evaluate(point)
    assert val == f.evaluate(point) ** 2


def _monomial_products(g, m):
    """The coordinate vectors of mu*g for every monomial mu of degree m,
    multiplied out as polynomials."""
    return [(HomogeneousPoly(m, {mu: 1}) * g).int_vector()
            for mu in monomial_basis(m)]


@given(polys(), st.integers(min_value=0, max_value=3))
def test_monomial_multiples_of_one_block_are_the_products(f, m):
    want = _monomial_products(f, m)
    assert mono_multiples(f.int_vector(), f.degree, f.degree + m,
                          (0,)) == want
    assert poly_columns_int(f, m) == want


@st.composite
def block_vectors(draw):
    """(vec, k_from, block_shifts, blocks): a vector of degree k_from in
    ⊕_b S(-t_b) and its blocks as polynomials, None where t_b > k_from
    leaves a block with no coordinates."""
    k_from = draw(st.integers(min_value=0, max_value=3))
    shifts = draw(st.lists(st.integers(min_value=0, max_value=k_from + 1),
                           min_size=1, max_size=3))
    vec, blocks = [], []
    for t in shifts:
        coords = draw(st.lists(coeffs, min_size=slice_dim(k_from - t),
                               max_size=slice_dim(k_from - t)))
        vec += coords
        blocks.append(HomogeneousPoly.from_vector(k_from - t, coords)
                      if t <= k_from else None)
    return vec, k_from, tuple(shifts), blocks


@given(block_vectors(), st.integers(min_value=0, max_value=2))
def test_monomial_multiples_of_shifted_blocks_are_the_products(bv, m):
    # each block of a multiple is the product of its monomial with that
    # block, in the block's slice at k_to
    vec, k_from, shifts, blocks = bv
    k_to = k_from + m
    per_block = [_monomial_products(g, m) if g is not None
                 else [[0] * slice_dim(k_to - t)] * slice_dim(m)
                 for t, g in zip(shifts, blocks)]
    want = [sum(cols, []) for cols in zip(*per_block)]
    assert mono_multiples(vec, k_from, k_to, shifts) == want


def test_poly_columns_int_constant_is_identity():
    one = HomogeneousPoly(0, [(Monomial(0, 0, 0), 1)])
    cols = poly_columns_int(one, 2)
    n = slice_dim(2)
    assert len(cols) == n
    assert rank_int([list(c) for c in cols], n) == n


def test_poly_columns_int_linear_form_rank():
    cols = poly_columns_int(parse_poly("x"), 1)
    assert rank_int([list(c) for c in cols], slice_dim(2)) == 3
    cols = poly_columns_int(parse_poly("x + y + z"), 2)
    # multiplication by a nonzero linear form is injective
    assert rank_int([list(c) for c in cols], slice_dim(3)) == 6


def test_str_round_trips_through_parser():
    f = parse_poly("x^3 - 2*x*y*z + 1/2*z^3")
    assert parse_poly(str(f)) == f
