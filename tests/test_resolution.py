"""Graded minimal resolutions of S/I_f and S/J_f and their regularity."""

from math import comb

import pytest

from curvesat import catalog
from curvesat.analysis import analyze_full
from curvesat.errors import FreenessCheckFailedError, WrongShapeError
from curvesat.jacobian import CurveData
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import partials, primitivize
from curvesat.resolution import (
    BettiTable,
    betti_jacobian,
    betti_saturated,
    min_generators,
    regularity,
    regularity_total,
    syzygies,
)
from curvesat.saturation import (SaturationEngine, saturate,
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


def test_syzygies_standalone_koszul():
    assert syzygies([parse_poly("x"), parse_poly("y")], kmax=2) == [2]


def test_syzygies_without_saturation_data_needs_a_top_degree():
    # the Koszul relation of x^7, y^7 sits at 14, far above the degrees
    # of the generators; without a stated top it would be missed
    gens = [parse_poly("x^7"), parse_poly("y^7")]
    assert syzygies(gens, kmax=14) == [14]
    assert syzygies(gens, kmax=13) == []
    with pytest.raises(WrongShapeError, match="kmax"):
        syzygies(gens)


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
    assert regularity_total(table) == 4


def test_betti_jacobian_nodal_sextic_certified():
    # the degree-8 syzygy generator (twist 13) comes three quiet degrees
    # after the others; the scan reaches it because it runs to the bound
    # r_J - d + 3 = 8 read off the regularity, not to a quiet stretch
    table = betti_jacobian(parse_poly(NODAL6))
    assert table.twists == ((5, 5, 5), (10, 10, 10, 13), (14, 14))


def test_betti_jacobian_raises_on_a_dropped_generator(monkeypatch):
    # a generator set that misses one element fails the Hilbert check
    # once, with no second scan behind it
    calls = []
    original = CurveData.ar_min_generators

    def drop_last(self, top):
        calls.append(top)
        degrees, vectors = original(self, top)
        return degrees[:-1], vectors[:-1]

    monkeypatch.setattr(CurveData, "ar_min_generators", drop_last)
    with pytest.raises(FreenessCheckFailedError):
        betti_jacobian(parse_poly(NODAL6))
    assert calls == [8]


def test_betti_jacobian_rejects_concurrent_lines():
    with pytest.raises(WrongShapeError):
        betti_jacobian(parse_poly("x*y"))


def test_betti_jacobian_rejects_a_three_form_saturation():
    # saturation data of bare forms carries no curve to read AR(f) from
    forms = partials(primitivize(parse_poly(TRIANGLE)))
    with pytest.raises(WrongShapeError):
        betti_jacobian(saturate_three_forms(*forms))


def test_regularity_requires_length_two():
    with pytest.raises(WrongShapeError):
        regularity(BettiTable(((3, 3, 3), (4, 6, 6), (7,))))
    with pytest.raises(WrongShapeError):
        regularity(BettiTable(((), ())))


def test_regularity_values():
    assert regularity(BettiTable(((2, 3), (5,)))) == 3
    assert regularity(BettiTable(((1, 1), (2,)))) == 0
    assert regularity_total(BettiTable(((2, 3), (5,)))) == 3


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
        expect = comb(k + 2, 2) - sat.engine.i_dim(k)
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
    run = SaturationEngine.run

    def counted_run(self):
        runs.append(self.base)
        return run(self)

    monkeypatch.setattr(SaturationEngine, "run", counted_run)
    three = saturate_three_forms(*partials(primitivize(f)))
    assert runs == [curve.engine.base]
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
        assert sat.reg_jacobian() == regularity_total(report.betti_jacobian)
