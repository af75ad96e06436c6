"""Jacobian ideal slices, Milnor algebra, syzygies, and invariants."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesat import catalog, jacobian
from curvesat.analysis import analyze_catalog, emit_json
from curvesat.classify import classify
from curvesat.errors import (CoefficientTooLargeError, KmaxExhaustedError,
                             NonReducedInputError, SmoothCurveError,
                             WrongShapeError)
from curvesat.exactla import complement, kernel_int, rref_int
from curvesat.jacobian import (
    CurveData,
    FormsIdeal,
    ct,
    mdr,
    milnor_dims,
    smooth_reference_dims,
    tjurina,
)
from curvesat.parsing import Arrangement, parse_arrangement, parse_poly
from curvesat.poly import (monomial_basis, mono_multiples, primitivize,
                           slice_dim)
from curvesat.resolution import ar_min_generators, min_generators
from curvesat.saturation import saturate, saturate_three_forms

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
    # degrees 0..kmax: none at all for a negative kmax
    assert smooth_reference_dims(3, -2) == []
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
    # the Milnor dimensions grow (6 -> 7 for x^2*y) instead of settling;
    # S/J has dimension two, so no degree is certified regular
    for text in ("x^2*y", "(x + y)^2 * z"):
        cd = CurveData(parse_poly(text))
        with pytest.raises(NonReducedInputError, match="does not stabilize"):
            cd.tjurina()
        assert cd.regular_degree() is None


@pytest.mark.parametrize("text, degree", [("x^64", 63), ("x^2*y", 3)])
def test_non_reduced_input_stops_at_the_complete_intersection_bound(
        text, degree):
    # a reduced curve has dim M(f)_k at most that of two general forms of
    # degree d - 1 in J_f; x^64 leaves that bound at its first slice,
    # and the chain stops at the degree it is left, not at kmax = 189
    cd = CurveData(parse_poly(text))
    with pytest.raises(NonReducedInputError,
                       match=f"does not stabilize: at degree {degree} "):
        cd.tjurina()
    assert cd._chain.k == degree


def test_arrangement_product_coefficients_are_capped():
    # each line within the cap, their product's x^2 coefficient 2^2048
    arr = parse_arrangement("(2^32)^32*x + y\n(2^32)^32*x + 3*y + z\n")
    with pytest.raises(CoefficientTooLargeError, match="2049 bits"):
        CurveData(arr.product())


@pytest.mark.parametrize("entry", [CurveData.milnor_dims, CurveData.mdr,
                                   ar_min_generators])
def test_library_entry_points_reject_non_reduced_input_at_once(entry):
    # x^24 leaves the reduced bound at degree 23, far below kmax = 69.
    # Every entry point calls FormsIdeal.tau first: milnor_dims and mdr
    # through tjurina, ar_min_generators through the saturate of its
    # closed form, so the chain never steps to kmax
    cd = CurveData(parse_poly("x^24"))
    with pytest.raises(NonReducedInputError, match="at degree 23 "):
        entry(cd)
    assert cd._chain.k < 24


# every entry point that reads a curve through jacobian._data
CURVE_ENTRY_POINTS = [tjurina, mdr, milnor_dims, ar_min_generators, ct,
                      classify]


@pytest.mark.parametrize("entry", CURVE_ENTRY_POINTS)
def test_entry_points_read_the_curve_of_its_saturation_data(entry):
    f = parse_poly(NODAL6)
    assert entry(saturate(f)) == entry(f)


def _three_forms():
    # three cubics that are not the partials of one curve
    return saturate_three_forms(*(parse_poly(t) for t in
                                  ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z",
                                   "x*z^2 - y^3")))


@pytest.mark.parametrize("entry", CURVE_ENTRY_POINTS)
@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: "x*y", "not str", id="string"),
    pytest.param(_three_forms, "three forms carries no curve",
                 id="three-forms"),
])
def test_entry_points_reject_what_is_not_a_curve(entry, make, message):
    with pytest.raises(WrongShapeError, match=message):
        entry(make())


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
        degrees, ar = cd.ar_min_generators(top)
        return FormsIdeal(ar.vectors, degrees, (0, 0, 0)), top + 1
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
    cols = [col for v, a in zip(module.vectors, module.degrees)
            for col in mono_multiples(v, a, k, module.block_shifts)]
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


# -- the regularity check: the chain stops one degree above a certified
# -- degree m and reads every higher rank as dim S_k - tau

REGULAR_CASES = {
    "smooth-quartic": "x^4 + y^4 + z^4",
    "nodal-cubic": "x*y*z + x^3 + y^3",
    "cuspidal-cubic": "y^2*z - x^3",
}


def _certified(name):
    """(the ideal after the analysis certified it, a fresh copy)."""
    if name == "three-forms":
        forms = [parse_poly(t) for t in THREE_FORMS]
        fresh = FormsIdeal([primitivize(g).int_vector() for g in forms],
                           (3,) * 3)
        return saturate_three_forms(*forms).data, fresh
    if name in REGULAR_CASES:
        f = parse_poly(REGULAR_CASES[name])
    else:
        obj = catalog.load(name)
        f = obj.product() if isinstance(obj, Arrangement) else obj
    cd = CurveData(f)
    saturate(cd)
    return cd, CurveData(f)


@pytest.mark.parametrize("name", [*REGULAR_CASES, "generic-5", "braid",
                                  "nf-d7-k3", "three-forms"])
def test_certified_ranks_match_the_chain(name):
    ideal, fresh = _certified(name)
    m, tau = ideal.regular_degree()
    # J_m = S_m certifies m without building slice m + 1
    assert ideal._chain.k == (m if tau == 0 else m + 1)
    ranks = [ideal.rank_at(k) for k in range(ideal.kmax + 2)]
    assert ranks == [len(fresh.rref_at(k)[0]) for k in range(ideal.kmax + 2)]
    assert slice_dim(m) - ranks[m] == tau


@pytest.mark.parametrize("name", ["generic-5", "braid", "nf-d7-k3"])
def test_certified_degree_is_the_regularity_of_j(name):
    cd, _ = _certified(name)
    m = cd.regular_degree()[0]
    assert m == saturate(cd).reg_jacobian() + 1
    # the kernel the check read is the canonical kernel of its matrix
    comp = complement(cd.slice_at(m - 1)[0], slice_dim(m - 1))
    matrix = jacobian.colon_rows(m - 1, jacobian.LINEAR_FORM, comp,
                                 *cd.rref_at(m))
    assert cd.h_kernel(m - 1) == kernel_int(matrix, len(comp))


@pytest.mark.parametrize("name", ["generic-5", "braid", "nf-d7-k3"])
def test_milnor_dims_alone_stops_the_chain_above_the_certified_degree(name):
    # a library caller of the Milnor table pays no slice above m + 1
    obj = catalog.load(name)
    f = obj.product() if isinstance(obj, Arrangement) else obj
    cd = CurveData(f)
    dims = cd.milnor_dims()
    m, _ = cd.regular_degree()
    assert cd._chain.k <= m + 1 < cd.kmax
    ref = CurveData(f)
    ref.tjurina()
    assert dims == ref.milnor_dims()
    assert milnor_dims(f) == dims


def test_a_certified_degree_below_the_regularity_raises(monkeypatch):
    # Bayer-Stillman bounds reg(J) <= m, the saturation gives r_J + 1
    real = FormsIdeal.regular_degree

    def one_lower(self):
        m, tau = real(self)
        return m - 1, tau

    monkeypatch.setattr(FormsIdeal, "regular_degree", one_lower)
    obj = catalog.load("generic-5")
    with pytest.raises(KmaxExhaustedError, match="regularity check"):
        saturate(obj.product())


DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_form_through_a_singular_point_is_never_certified(monkeypatch):
    # x vanishes at a singular point of generic-5, so multiplication by x
    # never maps one high slice of S/J onto the next: the check is
    # refused wherever it runs, the chain reaches kmax, and the report is
    # unchanged
    tried = []
    h_kernel = FormsIdeal.h_kernel

    def watched(self, k, lifts=()):
        got = h_kernel(self, k, lifts)
        if not lifts:
            onto = len(got) == self.milnor_dim(k) - self.milnor_dim(k + 1)
            tried.append((k + 1, onto))
        return got

    monkeypatch.setattr(FormsIdeal, "h_kernel", watched)
    monkeypatch.setattr(jacobian, "LINEAR_FORM", (1, 0, 0))
    cd = CurveData(catalog.load("generic-5").product())
    cd.tjurina()
    assert cd.regular_degree() is None
    assert 6 in dict(tried) and not any(ok for _, ok in tried)
    cd.milnor_dims()
    assert cd._chain.k == cd.kmax
    report = analyze_catalog("generic-5")
    assert {"text": _sha(report.to_text()),
            "json": _sha(emit_json(report))} == DIGESTS["generic-5"]
