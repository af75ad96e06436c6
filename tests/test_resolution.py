"""Graded minimal resolutions of S/I_f and S/J_f and their regularity."""

import dataclasses
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvesat import catalog, jacobian
from curvesat.analysis import analyze_full
from curvesat.classify import (CONCURRENT_LINES, FREE, NEARLY_FREE,
                               classify)
from curvesat.errors import FreenessCheckFailedError, WrongShapeError
from curvesat.jacobian import CurveData, FormsIdeal
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import partials, primitivize
from curvesat.resolution import (
    BettiTable,
    _numerator,
    ar_min_generators,
    betti_jacobian,
    betti_saturated,
    min_generators,
    regularity,
)
from curvesat.saturation import (SaturationData, saturate,
                                 saturate_three_forms)

EX1_D4 = "y^4 + x*z^3"
TRIANGLE = "x*y*z"
NODAL6 = "x*y*z^4 + x^6 + y^6"


def table_hilbert(table: BettiTable, k: int) -> int:
    """dim (S/M)_k from the twist multisets, by alternating sums."""
    total = comb(k + 2, 2)
    sign = -1
    for twists in table.twists:
        total += sign * sum(comb(k - t + 2, 2) for t in twists if t <= k)
        sign = -sign
    return total


def test_min_generators_of_saturation():
    degs, gens = min_generators(parse_poly(EX1_D4))
    assert degs == [2, 3]
    assert [str(g) for g in gens] == ["z^2", "y^3"]


def test_ex1_d4_saturated_table_keeps_its_relation():
    # the S/I_f table of y^4 + x*z^3 has a relation at 5; a CurveData
    # once built with the degree cap 2 certified only up to 2 and lost it
    table = betti_saturated(saturate(CurveData(parse_poly(EX1_D4))))
    assert table.twists == ((2, 3), (5,))


def _relations(texts, top):
    gens = [parse_poly(t) for t in texts]
    ideal = FormsIdeal([g.int_vector() for g in gens],
                       [g.degree for g in gens])
    return ideal.relations(top)[0]


def test_syzygies_standalone_koszul():
    assert _relations(["x", "y"], 2) == [2]


def test_syzygies_without_saturation_data_needs_a_top_degree():
    # the Koszul relation of x^7, y^7 sits at 14, far above the degrees
    # of the generators; a walk whose stated top lies below it misses it
    assert _relations(["x^7", "y^7"], 14) == [14]
    assert _relations(["x^7", "y^7"], 13) == []


def test_betti_saturated_line_pair():
    assert betti_saturated(parse_poly("x*y")).twists == ((1, 1), (2,))


def test_betti_saturated_ex1_d4():
    table = betti_saturated(parse_poly(EX1_D4))
    assert table.twists == ((2, 3), (5,))
    assert regularity(table) == 3


def test_betti_saturated_smooth_is_unit_ideal():
    assert betti_saturated(parse_poly("x^3 + y^3 + z^3")).twists == ((0,), ())


def test_betti_tables_of_free_curve_agree():
    # free curve: I_f = J_f, both resolutions have length two
    ti = betti_saturated(parse_poly(TRIANGLE))
    tj = betti_jacobian(parse_poly(TRIANGLE))
    assert ti.twists == ((2, 2, 2), (3, 3))
    assert tj.twists == ti.twists


def test_betti_jacobian_ex1_d4():
    table = betti_jacobian(parse_poly(EX1_D4))
    assert table.twists == ((3, 3, 3), (4, 6, 6), (7,))
    assert regularity(table) == 4


def test_betti_jacobian_nodal_sextic_certified():
    # the degree-8 syzygy generator (twist 13) comes three quiet degrees
    # after the others; the closed form reads it off the Hilbert
    # numerator, where no walk could stop at a quiet stretch
    table = betti_jacobian(parse_poly(NODAL6))
    assert table.twists == ((5, 5, 5), (10, 10, 10, 13), (14, 14))


def test_betti_jacobian_raises_on_a_dropped_generator(monkeypatch):
    # y^4 + x*z^3 is nearly free, N(f) has one generator, in degree 2,
    # and position 3 the one twist 3d - 3 - 2 = 7; without it the
    # numerator leaves -t^7 that no twist of position 2 can cancel
    generators = SaturationData.generators.func

    def drop_last(self):
        scan = generators(self)
        return dataclasses.replace(scan, n_degrees=scan.n_degrees[:-1])

    assert saturate(parse_poly(EX1_D4)).generators.n_degrees == (2,)
    monkeypatch.setattr(SaturationData, "generators", property(drop_last))
    with pytest.raises(FreenessCheckFailedError, match="negative count"):
        betti_jacobian(parse_poly(EX1_D4))


def test_betti_jacobian_rejects_concurrent_lines():
    with pytest.raises(WrongShapeError):
        betti_jacobian(parse_poly("x*y"))


def test_betti_jacobian_rejects_a_three_form_saturation():
    # saturation data of bare forms carries no curve to read AR(f) from
    forms = partials(primitivize(parse_poly(TRIANGLE)))
    with pytest.raises(WrongShapeError):
        betti_jacobian(saturate_three_forms(*forms))


def test_regularity_values():
    assert regularity(BettiTable(((2, 3), (5,)))) == 3
    assert regularity(BettiTable(((1, 1), (2,)))) == 0


def test_betti_table_positions():
    table = BettiTable(((2, 3), (5,)))
    assert table.pd == 2
    assert table.position(1) == (2, 3)
    assert table.position(2) == (5,)
    assert table.position(3) == ()


@pytest.mark.parametrize("text", [
    "x*y",
    EX1_D4,
    TRIANGLE,
    "x*y*z + x^3 + y^3",
    "x^3 + y^3 + z^3",
])
def test_saturated_table_reproduces_hilbert_function(text):
    # independent cross-check: the alternating sum over the table must
    # give dim (S/I)_k in every computed degree
    sat = saturate(parse_poly(text))
    table = betti_saturated(sat)
    for k in range(sat.kmax + 1):
        expect = comb(k + 2, 2) - sat.i_dim(k)
        assert table_hilbert(table, k) == expect


def test_jacobian_table_reproduces_hilbert_function():
    f = parse_poly(EX1_D4)
    cd = CurveData(f)
    table = betti_jacobian(cd)
    for k in range(cd.kmax + 1):
        assert table_hilbert(table, k) == cd.milnor_dim(k)


def _curve(name):
    obj = catalog.load(name)
    return obj.product() if isinstance(obj, Arrangement) else obj


@pytest.mark.parametrize("name", ["nf-d6-k3", "concurrent-4", "braid",
                                  "generic-5", "nodal-3", "nodal-6",
                                  "nf-d3-k2"])
def test_three_form_saturation_gives_the_curve_table(monkeypatch, name):
    # saturating the partials as three bare forms must give the same
    # quotient table and S/I table as the curve path, in one descent;
    # relations of nf-d6-k3 (at 2d - 3) and concurrent-4 lie past the
    # generators by more than two degrees, and N of nodal-3, nodal-6
    # and nf-d3-k2 has a generator in degree 1, so n_1 = n_(3e-4) != 0
    f = _curve(name)
    curve = saturate(f)
    runs = []
    init = SaturationData.__init__

    def counted_init(self, data):
        init(self, data)
        runs.append(list(self.n_table))

    monkeypatch.setattr(SaturationData, "__init__", counted_init)
    three = saturate_three_forms(*partials(primitivize(f)))
    assert runs == [curve.n_table]
    assert three.n_table == curve.n_table
    assert three.top == curve.top
    assert betti_saturated(three) == betti_saturated(curve)


# three cubics that are not the partials of one curve, with content
THREE_FORMS = ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")


@pytest.mark.parametrize("forms, table", [
    (THREE_FORMS, [0, 1, 4, 5, 4, 1, 0]),
    (("x*y*z", "x^3 + y^3", "z^3"), [0, 1, 3, 4, 3, 1, 0]),
    (("x^4", "y^4", "x^2*y^2 + x*y*z^2"), [0, 0, 1, 3, 5, 5, 3, 1, 0, 0]),
])
def test_three_form_quotient_is_self_dual(forms, table):
    # I/J of three forms of degree e lives in degrees 0..3e - 3 and is
    # self-dual there: n_k = n_(3e-3-k)
    gens = [parse_poly(t) for t in forms]
    e = gens[0].degree
    sat = saturate_three_forms(*gens)
    assert sat.n_table == table
    assert len(sat.n_table) == 3 * e - 2
    assert sat.n_table == sat.n_table[::-1]


SINGULAR = [n for n in catalog.names()
            if not n.startswith("ziegler")
            and CurveData(_curve(n)).tjurina() > 0]


@pytest.mark.parametrize("name", SINGULAR)
def test_scan_bounds_are_the_regularities(name):
    # r_I, read off the Hilbert function of S/I_f, is the regularity of
    # the certified S/I_f table and equals T - ct; r_J is the regularity
    # of the S/J_f table
    report, cd, sat = analyze_full(_curve(name))
    r_i = sat.reg_saturated()
    assert r_i == regularity(report.betti_saturated)
    assert r_i == cd.T - cd.coincidence_threshold()
    if report.mdr >= 1:
        assert sat.reg_jacobian() == regularity(report.betti_jacobian)


WALKED = [n for n in catalog.names()
          if not n.startswith("ziegler") and CurveData(_curve(n)).mdr() >= 1]


@pytest.mark.parametrize("name", WALKED)
def test_the_closed_form_is_the_walked_table(name):
    # the engine's own S/J_f table, two Nakayama walks over the kernels
    # of J_f: AR(f) up to r_J - d + 3 and its relations up to r_J + 3,
    # must be the closed form read off the Milnor table and N(f)
    sat = saturate(_curve(name))
    cd = sat.data
    r_j = sat.reg_jacobian()
    ar = cd.ar_min_generators(r_j - cd.d + 3)[1]
    relations = ar.relations(r_j + 3)[0]
    walked = (cd.degrees, ar.degrees) + ((tuple(relations),)
                                         if relations else ())
    assert betti_jacobian(sat).twists == walked


def test_ar_min_generators_walks_nothing(monkeypatch):
    # the public AR(f) degrees are the closed form: with every walk and
    # every relation kernel refused they still come out, mdr = 0 (xy,
    # concurrent-4) and a generator three degrees after the last
    # (nodal-6) included
    def refuse(*args, **kwargs):
        raise AssertionError("AR(f) walked for its degrees")

    monkeypatch.setattr(CurveData, "ar_min_generators", refuse)
    for name in ("relations", "kernel_at"):
        monkeypatch.setattr(FormsIdeal, name, refuse)
    monkeypatch.setattr(jacobian, "minimal_generators", refuse)
    ar = {"xy": [0, 1], "concurrent-4": [0, 3], "nf-d7-k3": [1, 6, 6],
          "braid": [2, 3], "nodal-6": [5, 5, 5, 8]}
    for name, degrees in ar.items():
        assert ar_min_generators(_curve(name)) == degrees


def test_ar_degrees_are_the_exponents():
    # a paper fact (Dimca and Sticlaru), not an engine's: AR(f) of a
    # free curve with exponents (d1, d2) is free on generators of
    # degrees d1 and d2, of a nearly free one three generators of
    # degrees d1, d2 and d2, and concurrent lines (mdr = 0) have
    # generators of degrees 0 and d - 1
    expected, computed = {}, {}
    for name in catalog.names():
        sat = saturate(_curve(name))
        cls = classify(sat)
        if cls.kind in (FREE, NEARLY_FREE, CONCURRENT_LINES):
            d1, d2 = cls.exponents
            expected[name] = [d1, d2] + [d2] * (cls.kind == NEARLY_FREE)
            computed[name] = ar_min_generators(sat)
    assert len(expected) == 57
    assert computed == expected


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=30),
       st.integers(-10 ** 6, 10 ** 6))
def test_the_numerator_has_the_moments_of_a_constant_tail(values, tail):
    # (1 - t)^2 divides (1 - t)^3 sum h_k t^k when h is constant from some
    # degree on, so P(1) = P'(1) = 0 and P''(1) = 2 tail for any table:
    # the count, sum and square identities of the S/I_f twists
    p = _numerator(values, tail)
    assert sum(p) == 0
    assert sum(n * c for n, c in enumerate(p)) == 0
    assert sum(n * (n - 1) * c for n, c in enumerate(p)) == 2 * tail
