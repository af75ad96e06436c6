"""Saturation of the Jacobian ideal, the quotient module N(f), and
generic hyperplane rank profiles."""

import pytest

from curvesat.errors import NotCodimensionTwoError
from curvesat.parsing import parse_poly
from curvesat.poly import partials
from curvesat.saturation import (
    lefschetz_check,
    n_min_generators,
    n_table,
    saturate,
    saturate_three_forms,
)

EX1_D4 = "y^4 + x*z^3"
FERMAT3 = "x^3 + y^3 + z^3"
NODAL3 = "x*y*z + x^3 + y^3"


def test_line_pair_saturation():
    sat = saturate(parse_poly("x*y"))
    # I = (x, y); already saturated from degree one on
    assert sat.engine.i_dim(1) == 2
    assert sat.engine.i_dim(2) == 5
    assert sat.n_table == [0]
    assert sat.sigma is None
    assert sat.nu == 0
    assert sat.end_degree() is None


def test_ex1_d4_saturation():
    sat = saturate(parse_poly(EX1_D4))
    # one new element below the Jacobian ideal: z^2 in degree 2
    assert sat.engine.i_dim(2) == 1
    assert sat.engine.i_dim(3) == 4
    assert sat.n_table == [0, 0, 1, 1, 1, 0, 0]
    assert sat.sigma == 2
    assert sat.nu == 1
    assert sat.top == 6
    assert sat.end_degree() == 4


def test_ex1_d4_module_generators():
    sat = saturate(parse_poly(EX1_D4))
    assert sorted(n_min_generators(sat)) == [2]


def test_nodal_cubic_module():
    sat = saturate(parse_poly(NODAL3))
    assert sat.n_table == [0, 2, 2, 0]
    assert sat.sigma == 1
    assert sat.nu == 2
    assert sorted(n_min_generators(sat)) == [1, 1]


def test_fermat_cubic_module_is_full_complete_intersection():
    f = parse_poly(FERMAT3)
    sat = saturate(f)
    # smooth curve: I_f = S, so N(f) is the whole Milnor algebra
    assert sat.engine.i_dim(0) == 1
    assert sat.n_table == [1, 3, 3, 1]
    assert sat.sigma == 0
    assert sat.nu == 3
    assert n_table(f) == [1, 3, 3, 1]


def test_three_forms_matches_curve_saturation():
    f = parse_poly(EX1_D4)
    ref = saturate(f)
    got = saturate_three_forms(*partials(f))
    assert got.n_table == ref.n_table
    assert got.sigma == ref.sigma and got.nu == ref.nu
    top = min(got.kmax, ref.kmax)
    assert all(got.engine.i_dim(k) == ref.engine.i_dim(k)
               for k in range(top + 1))


def test_three_forms_already_saturated_ideal():
    # (x^2, y^2, x*y) = (x, y)^2 is saturated, so N = 0
    got = saturate_three_forms(parse_poly("x^2"), parse_poly("y^2"),
                               parse_poly("x*y"))
    assert got.n_table == [0, 0, 0, 0]
    assert got.sigma is None
    assert got.nu == 0


def test_three_forms_rejects_finite_colength():
    with pytest.raises(NotCodimensionTwoError, match="finite dimensional"):
        saturate_three_forms(parse_poly("x^2"), parse_poly("y^2"),
                             parse_poly("z^2"))


def test_three_forms_rejects_common_factor():
    with pytest.raises(NotCodimensionTwoError, match="common factor"):
        saturate_three_forms(parse_poly("x^2"), parse_poly("x*y"),
                             parse_poly("x*z"))


def test_lefschetz_good_hyperplane():
    sat = saturate(parse_poly(EX1_D4))
    out = lefschetz_check(sat, ell=(0, 1, 0))
    assert out.ranks == [0, 0, 1, 1, 0, 0]
    assert out.expected == [0, 0, 1, 1, 0, 0]
    assert out.pattern_ok
    assert out.attempts == 1


def test_lefschetz_degenerate_hyperplane():
    # z * z^2 lies in the Jacobian ideal, so z never moves the module
    sat = saturate(parse_poly(EX1_D4))
    out = lefschetz_check(sat, ell=(0, 0, 1))
    assert out.ranks == [0, 0, 0, 0, 0, 0]
    assert not out.pattern_ok


def test_lefschetz_random_hyperplane_passes():
    sat = saturate(parse_poly(EX1_D4))
    out = lefschetz_check(sat, seed=0)
    assert out.pattern_ok
    assert out.ranks == [0, 0, 1, 1, 0, 0]


def test_lefschetz_smooth_full_module():
    sat = saturate(parse_poly(FERMAT3))
    out = lefschetz_check(sat, seed=0)
    assert out.ranks == [1, 3, 1]
    assert out.expected == [1, 3, 1]
    assert out.pattern_ok


def test_lefschetz_needs_at_least_one_sampled_form():
    # a form without y never moves the module of y^4 + x*z^3; seed 8
    # draws -2x + z first and resamples once
    sat = saturate(parse_poly(EX1_D4))
    out = lefschetz_check(sat, seed=8)
    assert out.pattern_ok
    assert out.form == (-3, -2, -5)
    assert out.attempts == 2
