"""Jacobian ideal slices, Milnor algebra, syzygies, and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesat import catalog
from curvesat.errors import NonReducedInputError, SmoothCurveError
from curvesat.exactla import rref_int
from curvesat.jacobian import (
    CurveData,
    FormsIdeal,
    ar_min_generators,
    ct,
    mdr,
    milnor_dims,
    mono_mult_block_vector,
    smooth_reference_dims,
    tjurina,
)
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import monomial_basis, primitivize, slice_dim
from curvesat.resolution import min_generators
from curvesat.saturation import saturate

FERMAT3 = "x^3 + y^3 + z^3"
EX1_D4 = "y^4 + x*z^3"
NODAL6 = "x*y*z^4 + x^6 + y^6"


def test_fermat_cubic_jacobian_rank():
    cd = CurveData(parse_poly(FERMAT3))
    # J_2 is spanned by the three square monomials
    assert cd.rank_at(2) == 3
    assert cd.rank_at(1) == 0


def test_fermat_cubic_milnor_dims():
    # regular sequence of quadrics: series (1 + t)^3
    assert milnor_dims(parse_poly(FERMAT3)) == [1, 3, 3, 1, 0, 0, 0]


def test_fermat_cubic_invariants():
    f = parse_poly(FERMAT3)
    assert tjurina(f) == 0
    assert mdr(f) == 2
    cd = CurveData(f)
    assert [len(cd.kernel_at(m)) for m in range(4)] == [0, 0, 3, 9]


def test_smooth_reference_dims():
    assert smooth_reference_dims(3, 9) == [1, 3, 3, 1, 0, 0, 0, 0, 0, 0]
    assert smooth_reference_dims(2, 4) == [1, 0, 0, 0, 0]
    dims = smooth_reference_dims(5, 12)
    assert sum(dims) == 4 ** 3
    assert dims[9] == 1 and dims[10] == 0


def test_ex1_d4_slice_ranks():
    cd = CurveData(parse_poly(EX1_D4))
    assert cd.rank_at(3) == 3
    assert cd.rank_at(4) == 8
    assert cd.milnor_dim(4) == 7


def test_ex1_d4_milnor_dims_stabilize_at_tau():
    f = parse_poly(EX1_D4)
    assert milnor_dims(f) == [1, 3, 6, 7, 7, 6, 6, 6, 6, 6]
    assert tjurina(f) == 6


def test_ex1_d4_invariants():
    f = parse_poly(EX1_D4)
    assert mdr(f) == 1
    assert ct(f) == 3
    assert ar_min_generators(f) == [1, 3, 3]
    # syzygy slice dimensions, frozen from an independent computation
    cd = CurveData(f)
    assert [len(cd.kernel_at(m)) for m in range(5)] == [0, 1, 3, 8, 15]


def test_jacobian_slices_dims():
    cd = CurveData(parse_poly(EX1_D4))
    ranks = [cd.rank_at(k) for k in range(9)]
    assert ranks == [0, 0, 0, 3, 8, 15, 22, 30, 39]


def test_line_pair_invariants():
    f = parse_poly("x*y")
    assert milnor_dims(f) == [1, 1, 1, 1]
    assert tjurina(f) == 1
    assert mdr(f) == 0
    assert ct(f) == 0


def test_smooth_curve_has_no_coincidence_threshold():
    with pytest.raises(SmoothCurveError):
        ct(parse_poly(FERMAT3))


def test_non_reduced_input_rejected():
    # the Milnor dimensions grow (6 -> 7 for x^2*y) instead of settling
    with pytest.raises(NonReducedInputError, match="does not stabilize"):
        tjurina(parse_poly("x^2*y"))
    with pytest.raises(NonReducedInputError, match="does not stabilize"):
        tjurina(parse_poly("(x + y)^2 * z"))


def test_late_syzygy_generator_needs_full_scan():
    # the degree-8 generator comes three quiet degrees after the last
    # degree-5 one; the scan must run all the way to its bound
    # r_J - d + 3 = 11 - 6 + 3 = 8 to find it
    cd = CurveData(parse_poly(NODAL6))
    sat = saturate(cd)
    assert sat.reg_jacobian() == 11
    top = sat.reg_jacobian() - cd.d + 3
    assert top == 8
    assert sorted(cd.ar_min_generators(top)[0]) == [5, 5, 5, 8]
    assert sorted(cd.ar_min_generators(top - 1)[0]) == [5, 5, 5]


# three cubics that are not the partials of one curve, with content
THREE_FORMS = ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")


def _module(name):
    """(module, top degree to check) for each chain test case."""
    if name == "three-forms":
        # slices of these forms, chained two degrees past their kmax 3e
        forms = [primitivize(parse_poly(t)) for t in THREE_FORMS]
        return FormsIdeal([g.int_vector() for g in forms], (3,) * 3), 3 * 3 + 2
    if name == "ar-nodal-6":
        # AR(f) generators in degrees 5, 5, 5 and 8, blocks (0, 0, 0),
        # up to the top of their relation scan
        cd = CurveData(parse_poly(NODAL6))
        top = saturate(cd).reg_jacobian() - cd.d + 3
        degrees, vectors = cd.ar_min_generators(top)
        return FormsIdeal(vectors, degrees, (0, 0, 0)), top + 1
    if name == "i-ex1-d4":
        # generators of the saturation in degrees 2 and 3, block (0,),
        # up to the top of their relation scan
        sat = saturate(parse_poly(EX1_D4))
        degrees, gens = min_generators(sat)
        module = FormsIdeal([g.int_vector() for g in gens], degrees)
        return module, sat.reg_saturated() + 2
    if name == "ex1-d4":
        cd = CurveData(parse_poly(EX1_D4))
    else:
        obj = catalog.load(name)
        cd = CurveData(obj.product() if isinstance(obj, Arrangement) else obj)
    return cd, cd.kmax


def _assert_cold(module, k):
    # a cold elimination of every monomial multiple of every generator
    cols = [mono_mult_block_vector(v, mu, a, module.block_shifts)
            for v, a in zip(module.vectors, module.degrees)
            for mu in monomial_basis(k - a)]
    ncols = sum(slice_dim(k - t) for t in module.block_shifts)
    piv, rows = module.rref_at(k)
    cpiv, crows = rref_int(cols, ncols)
    assert list(piv) == list(cpiv)
    assert [list(r) for r in rows] == [list(r) for r in crows]


@pytest.mark.parametrize("name", ["ex1-d4", "generic-5", "braid", "nf-d7-k3",
                                  "fermat-5", "three-forms", "ar-nodal-6",
                                  "i-ex1-d4"])
def test_rref_chain_matches_from_scratch(name):
    # chained slice updates above the least generator degree must agree
    # with a cold elimination of the raw generator multiples
    module, top = _module(name)
    for k in range(module.e, top + 1):
        _assert_cold(module, k)


def test_rref_chain_survives_a_slice_below_the_generator_degree():
    # the saturation descent reads slices below e after the chain has
    # been built above it; that must not disturb the chain's state
    cd = CurveData(catalog.load("generic-5").product())
    top = cd.e + 3
    cd.rref_at(top)
    assert cd.rref_at(cd.e - 1) == ([], [])
    for k in range(top + 1, cd.kmax + 1):
        _assert_cold(cd, k)


def test_kmax_is_three_times_the_least_generator_degree():
    # a line has kmax 1, a curve of degree d 3d - 3, three forms of
    # degree e 3e, a module its least generator degree times three
    assert CurveData(parse_poly("x")).kmax == 1
    assert CurveData(parse_poly(EX1_D4)).kmax == 9
    assert CurveData(parse_poly(NODAL6)).kmax == 15
    forms = [primitivize(parse_poly(t)) for t in THREE_FORMS]
    assert FormsIdeal([g.int_vector() for g in forms], (3,) * 3).kmax == 9
    assert FormsIdeal([[1, 0, 0], [0, 0, 0, 0, 1, 0]], (1, 2)).kmax == 3


def test_curve_data_takes_no_degree_cap():
    # a caller-set cap once shortened what the saturation certified
    with pytest.raises(TypeError):
        CurveData(parse_poly(EX1_D4), 2)
    with pytest.raises(TypeError):
        milnor_dims(parse_poly(EX1_D4), 2)


coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def dense_curves(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    basis = monomial_basis(d)
    vec = draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)))
    return d, vec


@settings(max_examples=30, deadline=None)
@given(dense_curves())
def test_milnor_dims_bounded_by_smooth_reference(data):
    from curvesat.poly import HomogeneousPoly

    d, vec = data
    if not any(vec):
        return
    f = HomogeneousPoly(d, zip(monomial_basis(d), vec))
    cd = CurveData(f)
    try:
        dims = cd.milnor_dims()
    except NonReducedInputError:
        return
    ref = smooth_reference_dims(d, cd.kmax)
    # a singular curve can only grow the Milnor algebra
    assert all(m >= r for m, r in zip(dims, ref))
