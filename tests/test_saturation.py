"""Saturation of the Jacobian ideal, the quotient module N(f), and
generic hyperplane rank profiles."""

import hashlib
import json
from pathlib import Path

import pytest

from curvesat import catalog, saturation
from curvesat.analysis import analyze_catalog, emit_json
from curvesat.errors import (KmaxExhaustedError, NotCodimensionTwoError,
                             WrongShapeError)
from curvesat.jacobian import FormsIdeal
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import X, Y, Z, partials, slice_dim
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
    assert sat.i_dim(1) == 2
    assert sat.i_dim(2) == 5
    assert sat.n_table == [0]
    assert sat.sigma is None
    assert sat.nu == 0
    assert sat.end_degree() is None


def test_ex1_d4_saturation():
    sat = saturate(parse_poly(EX1_D4))
    # one new element below the Jacobian ideal: z^2 in degree 2
    assert sat.i_dim(2) == 1
    assert sat.i_dim(3) == 4
    assert sat.n_table == [0, 0, 1, 1, 1, 0, 0]
    assert sat.sigma == 2
    assert sat.nu == 1
    assert sat.top == 6
    assert sat.end_degree() == 4


def test_saturating_saturation_data_returns_it():
    sat = saturate(parse_poly(EX1_D4))
    assert saturate(sat) is sat
    assert n_table(sat) == sat.n_table


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
    assert sat.i_dim(0) == 1
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
    assert all(got.i_dim(k) == ref.i_dim(k)
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


def test_three_forms_stop_at_the_complete_intersection_bound(monkeypatch):
    # x*g, y*g, z*g of degree e = 14 leave the bound at degree 16; no
    # slice above it is built, none of the slices up to 3e = 42 that the
    # stabilization check would read
    asked = []
    rref_at = FormsIdeal.rref_at

    def watched(self, k):
        asked.append(k)
        return rref_at(self, k)

    monkeypatch.setattr(FormsIdeal, "rref_at", watched)
    g = parse_poly("x^13 + y^13 + z^13")
    with pytest.raises(NotCodimensionTwoError,
                       match="at degree 16 .* common factor"):
        saturate_three_forms(X * g, Y * g, Z * g)
    assert max(asked) == 16


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


@pytest.mark.parametrize("ell", [(1, 2), (0, 0, 0), (1, 2, 3, 4),
                                 (1, 0.5, 0), ("1", 0, 0), 7])
def test_lefschetz_rejects_a_malformed_form(ell):
    sat = saturate(parse_poly(EX1_D4))
    with pytest.raises(WrongShapeError, match="linear form"):
        lefschetz_check(sat, ell=ell)


def test_lefschetz_needs_at_least_one_sampled_form():
    # a form without y never moves the module of y^4 + x*z^3; seed 8
    # draws -2x + z first and resamples once
    sat = saturate(parse_poly(EX1_D4))
    out = lefschetz_check(sat, seed=8)
    assert out.pattern_ok
    assert out.form == (-3, -2, -5)
    assert out.attempts == 2


# -- the descent steps only where the Hilbert-function identity predicts
# -- n_k > 0, and checks each kernel against the prediction


def _catalog_curve(name):
    obj = catalog.load(name)
    return obj.product() if isinstance(obj, Arrangement) else obj


def _watch_kernels(monkeypatch):
    """The degrees where the exact step kernel runs, the row count of
    each kernel matrix, and the number of complement columns of I_(k+1)
    at each step, filled as they run."""
    exact, current, nrows, comp_next = [], [], [], {}
    step = saturation.SaturationData._step
    kernel = saturation.kernel_int

    def watched_step(self, k):
        current.append(k)
        comp_next[k] = slice_dim(k + 1) - len(self.i_rref(k + 1)[0])
        return step(self, k)

    def watched_kernel(rows, ncols):
        exact.append(current[-1])
        # read before kernel_int consumes its argument
        nrows.append(len(rows))
        return kernel(rows, ncols)

    monkeypatch.setattr(saturation.SaturationData, "_step", watched_step)
    monkeypatch.setattr(saturation, "kernel_int", watched_kernel)
    return exact, nrows, comp_next


@pytest.mark.parametrize("name", ["generic-5", "nf-d7-k3", "nodal-5",
                                  "braid"])
def test_exact_kernel_runs_only_where_n_is_nonzero(monkeypatch, name):
    exact, nrows, comp_next = _watch_kernels(monkeypatch)
    sat = saturate(_catalog_curve(name))
    assert exact == [k for k in range(sat.top, -1, -1) if sat.n_table[k]]
    # one kernel per step, multiplying by one linear form: one row per
    # complement column of I_(k+1), not three
    assert nrows == [comp_next[k] for k in exact]


# generic-5 has n = 2 at degrees 4 and 5 only, nf-d7-k3 has n = 1 at
# degrees 5..10.  A prediction raised where n_k = 0 makes the step run
# and find too small a kernel; lowered by one at n_5 = 2, the kernel is
# too large.  nf-d7-k3 lowered to 0 at its end degree 10 skips that
# step, so step 9 reduces against I_10 = J_10 and finds no lift.
@pytest.mark.parametrize("name, k, delta, raised_at", [
    ("generic-5", 7, 1, 7),
    ("generic-5", 5, -1, 5),
    ("nf-d7-k3", 3, 1, 3),
    ("nf-d7-k3", 10, -1, 9),
])
def test_a_wrong_prediction_raises(monkeypatch, name, k, delta, raised_at):
    ref = saturate(_catalog_curve(name))
    assert (ref.n_table[k] == 0) == (delta > 0)
    exact, _, _ = _watch_kernels(monkeypatch)
    reference_dims = saturation.smooth_reference_dims

    def corrupted_dims(d, kmax):
        # n_k = m_k + m_(T-k) - c_k - tau: lowering c_k raises n_k alone
        dims = reference_dims(d, kmax)
        dims[k] -= delta
        return dims

    monkeypatch.setattr(saturation, "smooth_reference_dims", corrupted_dims)
    with pytest.raises(KmaxExhaustedError, match="Hilbert-function identity"):
        saturate(_catalog_curve(name))
    assert exact[-1] == raised_at


# -- a step multiplies by one linear form; where that form vanishes at a
# -- point of the singular scheme its kernel is too large, and the step
# -- falls back to x, y and z with the same result

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _forced_through_x(monkeypatch, build, degrees):
    ref = build()
    exact, nrows, comp_next = _watch_kernels(monkeypatch)
    monkeypatch.setattr(saturation, "LINEAR_FORM", (1, 0, 0))
    got = build()
    # the x kernel, then the x, y, z kernel, at every step
    assert exact == [k for k in degrees for _ in range(2)]
    assert nrows == [c for k in degrees
                     for c in (comp_next[k], 3 * comp_next[k])]
    assert got.n_table == ref.n_table
    assert got.extras == ref.extras


def test_a_form_through_a_singular_point_falls_back(monkeypatch):
    _forced_through_x(monkeypatch,
                      lambda: saturate(_catalog_curve("generic-5")), [5, 4])
    report = analyze_catalog("generic-5")
    assert {"text": _sha(report.to_text()),
            "json": _sha(emit_json(report))} == DIGESTS["generic-5"]


def test_three_forms_fall_back_through_a_singular_point(monkeypatch):
    # the cubics of test_resolution's THREE_FORMS
    forms = [parse_poly(t) for t in
             ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")]
    _forced_through_x(monkeypatch, lambda: saturate_three_forms(*forms),
                      [5, 4, 3, 2, 1])
