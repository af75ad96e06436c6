"""Saturation of the Jacobian ideal, the quotient module N(f), and
generic hyperplane rank profiles."""

import ast
import hashlib
import json
from math import lcm
from pathlib import Path

import pytest

from curvesat import catalog, jacobian, saturation, suite
from curvesat.analysis import analyze_catalog, analyze_full, emit_json
from curvesat.errors import (KmaxExhaustedError, NotCodimensionTwoError,
                             WrongShapeError)
from curvesat.exactla import IncrementalSpan, complement
from curvesat.jacobian import FormsIdeal, marker, smooth_reference_dims
from curvesat.parsing import Arrangement, parse_arrangement, parse_poly
from curvesat.poly import X, Y, Z, partials, shift_maps, slice_dim
from curvesat.resolution import betti_saturated
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


Q = "(x*z - y^2)"


@pytest.mark.parametrize("forms, tau, twists", [
    (("y*z", "x*z", "x*y"), 3, ((2, 2, 2), (3, 3))),
    (("x^2", "x*y", "y*z"), 3, ((2, 2, 2), (3, 3))),
    (("x^2", "x*y", "y^2 - x*z"), 3, ((2, 2, 2), (3, 3))),
    # de Jonquieres: a double base point (ideal m^2, length 3) and a
    # rest of length 4
    ((f"x*{Q}", f"y*{Q}", "x^2*z + y^3"), 7, ((3, 3, 3), (4, 5))),
])
def test_cremona_base_ideals_are_saturated(forms, tau, twists):
    # the base ideals of the quadratic and de Jonquieres plane Cremona
    # maps are already saturated (Hassanzadeh and Simis, J. Algebra
    # 2012): N = 0, and S/I is resolved by the three forms and two
    # relations
    sat = saturate_three_forms(*(parse_poly(t) for t in forms))
    assert sat.data.tau() == tau
    assert sat.n_table == [0] * (sat.top + 1)
    assert betti_saturated(sat).twists == twists


@pytest.mark.parametrize("e", range(1, 16))
def test_the_reference_table_is_a_palindrome(e):
    # the c_k of ((1 - t^e)/(1 - t))^3 on degrees 0..T = 3e - 3, so
    # n_k = m_k + m_(T-k) - c_k - tau is symmetric about T by construction
    c = smooth_reference_dims(e + 1, 3 * e - 3)
    assert len(c) == 3 * e - 2 and sum(c) == e ** 3
    assert c == c[::-1]


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
    slice_at = FormsIdeal.slice_at

    def watched(self, k):
        asked.append(k)
        return slice_at(self, k)

    monkeypatch.setattr(FormsIdeal, "slice_at", watched)
    g = parse_poly("x^13 + y^13 + z^13")
    with pytest.raises(NotCodimensionTwoError,
                       match="at degree 16 .* common factor"):
        saturate_three_forms(X * g, Y * g, Z * g)
    assert max(asked) == 16


def test_three_forms_with_a_common_factor_read_two_degrees(monkeypatch):
    # J = x*(x^3, y^3, z^3), e = 4, stays under the complete-intersection
    # bound and no degree passes the regularity check: S/J grows by one
    # per degree from 3e - 2 = 10 on, and slice 3e = 12 is never built
    asked = []
    slice_at = FormsIdeal.slice_at

    def watched(self, k):
        asked.append(k)
        return slice_at(self, k)

    monkeypatch.setattr(FormsIdeal, "slice_at", watched)
    with pytest.raises(NotCodimensionTwoError,
                       match=r"does not stabilize \(11 -> 12\)"):
        saturate_three_forms(parse_poly("x^4"), parse_poly("x*y^3"),
                             parse_poly("x*z^3"))
    assert max(asked) == 11


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
                                 (1, 0.5, 0), ("1", 0, 0), 7,
                                 (True, False, 7), (1, 2, False)])
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


def _watch_steps(monkeypatch):
    """The descent as it runs: the degrees of its steps in order, per
    step the colon matrices it takes kernels of, as (form, rows), and
    every colon matrix built, as (k, form, the step that built it or
    None).  Every such matrix is built by ``jacobian.colon_rows``; a
    step's one-form kernel comes through ``FormsIdeal.h_kernel``, which
    builds its matrix (or, with no lift above the step, has kept its
    kernel from the regularity check), and its x, y and z kernel is
    built in ``FormsIdeal.colon_lifts`` alone.  The fourth value holds
    the degrees of the ``h_kernel`` calls that passed lifts."""
    steps, matrices, checked, built, lifted = [], {}, {}, [], []
    running, reading = [], []
    step = saturation.SaturationData._step
    build = jacobian.colon_rows
    h_kernel = FormsIdeal.h_kernel

    def watched_step(self, k):
        steps.append(k)
        matrices[k] = []
        running.append(k)
        try:
            return step(self, k)
        finally:
            running.pop()

    def watched_build(k, form, *args):
        rows = build(k, form, *args)
        checked[k] = (tuple(form), len(rows))
        built.append((k, tuple(form), running[-1] if running else None))
        if running and not reading:
            matrices[running[-1]].append(checked[k])
        return rows

    def watched_h_kernel(self, k, lifts=()):
        if lifts:
            lifted.append(k)
        reading.append(k)
        try:
            got = h_kernel(self, k, lifts)
        finally:
            reading.pop()
        if running:
            matrices[running[-1]].append(checked[k])
        return got

    monkeypatch.setattr(saturation.SaturationData, "_step", watched_step)
    monkeypatch.setattr(jacobian, "colon_rows", watched_build)
    monkeypatch.setattr(FormsIdeal, "h_kernel", watched_h_kernel)
    return steps, matrices, built, lifted


def _complement_count(sat, k):
    """The number of monomials of degree k + 1 outside I_(k+1)."""
    return slice_dim(k + 1) - sat.i_dim(k + 1)


@pytest.mark.parametrize("name", ["generic-5", "nf-d7-k3", "nodal-5",
                                  "braid"])
def test_exact_kernel_runs_only_where_n_is_nonzero(monkeypatch, name):
    steps, matrices, built, _ = _watch_steps(monkeypatch)
    sat = saturate(_catalog_curve(name))
    assert steps == [k for k in range(sat.top, -1, -1) if sat.n_table[k]]
    # one kernel per step, multiplying by one linear form: one row per
    # complement column of I_(k+1), not three
    assert matrices == {k: [(jacobian.LINEAR_FORM,
                             _complement_count(sat, k))] for k in steps}
    # the top step, with no lift above it, reads the kernel of the
    # regularity check's matrix: that matrix is built once, by the check
    # before the descent, and the top step builds none
    m = sat.data.regular_degree()[0]
    assert built == [(m - 1, jacobian.LINEAR_FORM, None)] + [
        (k, jacobian.LINEAR_FORM, k) for k in steps[1:]]
    for top in steps[:1]:
        assert not sat.extras.get(top + 1)
        assert top == m - 1


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
    steps, matrices, _, _ = _watch_steps(monkeypatch)
    reference_dims = saturation.smooth_reference_dims

    def corrupted_dims(d, kmax):
        # n_k = m_k + m_(T-k) - c_k - tau: lowering c_k raises n_k alone
        dims = reference_dims(d, kmax)
        dims[k] -= delta
        return dims

    monkeypatch.setattr(saturation, "smooth_reference_dims", corrupted_dims)
    with pytest.raises(KmaxExhaustedError, match="Hilbert-function identity"):
        saturate(_catalog_curve(name))
    assert steps[-1] == raised_at
    # the ideal is certified: one one-form kernel, and no retry
    assert [form for form, _ in matrices[raised_at]] == [
        jacobian.LINEAR_FORM]


# -- a step multiplies by one linear form only where the regularity
# -- check certified a degree with it; where the form vanishes at a
# -- point of the singular scheme nothing is certified, and every step
# -- takes the kernel of x, y and z with the same result

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _forced_through_x(monkeypatch, build, degrees):
    ref = build()
    steps, matrices, _, lifted = _watch_steps(monkeypatch)
    monkeypatch.setattr(jacobian, "LINEAR_FORM", (1, 0, 0))
    got = build()
    assert got.data.regular_degree() is None
    # the x, y, z kernel alone at every step, and no lifted x kernel
    assert steps == degrees
    assert lifted == []
    assert matrices == {
        k: [(form, _complement_count(got, k))
            for form in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for k in degrees}
    assert got.n_table == ref.n_table
    assert got.extras == ref.extras


def test_uncertified_x_y_and_z_at_every_step(monkeypatch):
    _forced_through_x(monkeypatch,
                      lambda: saturate(_catalog_curve("generic-5")), [5, 4])
    report = analyze_catalog("generic-5")
    assert {"text": _sha(report.to_text()),
            "json": _sha(emit_json(report))} == DIGESTS["generic-5"]


def test_uncertified_three_forms_x_y_and_z_at_every_step(monkeypatch):
    # the cubics of test_resolution's THREE_FORMS
    forms = [parse_poly(t) for t in
             ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")]
    _forced_through_x(monkeypatch, lambda: saturate_three_forms(*forms),
                      [5, 4, 3, 2, 1])


# a triple point at (101 : 0 : -1), on h: nothing is certified, and n = 1
# at degrees 7 and 8 makes the lifted x, y, z step run at degree 7.  x,
# y and z come first, so the arrangement's normalization is the identity
# and the point stays on h
SEVEN_LINES = ("x", "y", "z", "x + 101*z", "x + y + 101*z",
               "x + 2*y + 101*z", "x + y + z")


def test_an_uncertified_arrangement_reports_as_a_certified_one(monkeypatch):
    arr = parse_arrangement("\n".join(SEVEN_LINES) + "\n")
    _, matrices, _, lifted = _watch_steps(monkeypatch)
    report, cd, sat = analyze_full(arr)
    assert cd.regular_degree() is None
    assert lifted == []
    assert [form for form, _ in matrices[7]] == [(1, 0, 0), (0, 1, 0),
                                                 (0, 0, 1)]
    assert report.tau == 26
    assert report.classification.kind == "NEARLY_FREE"
    assert sat.n_table[7] == sat.n_table[8] == 1
    monkeypatch.setattr(jacobian, "LINEAR_FORM", (1, 13, 103))
    certified, cd, _ = analyze_full(arr)
    assert cd.regular_degree() == (9, 26)
    assert emit_json(certified) == emit_json(report)


def test_the_uncertified_arrangement_certifies_in_other_coordinates():
    # the same lines with the three through (101 : 0 : -1) first: they
    # are normalized to x, y and z, which moves the point off h
    lines = SEVEN_LINES[3:6] + SEVEN_LINES[:3] + SEVEN_LINES[6:]
    report, cd, _ = analyze_full(parse_arrangement("\n".join(lines) + "\n"))
    assert cd.regular_degree() == (9, 26)
    given, _, _ = analyze_full(parse_arrangement("\n".join(SEVEN_LINES)
                                                 + "\n"))
    data, pinned = report.to_jsonable(), given.to_jsonable()
    del data["input"], pinned["input"]
    assert data == pinned


def test_saturation_reads_no_linear_form_and_builds_no_colon_matrix():
    # FormsIdeal.colon_lifts picks each step's kernel: the descent names
    # no linear form, builds no colon matrix and takes no h kernel
    tree = ast.parse(Path(saturation.__file__).read_text())
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    names.update(alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert names & {"LINEAR_FORM", "colon_rows"} == set()
    assert "h_kernel" not in attrs


def _identifiers(path: Path) -> set:
    """Every name a module reads, binds, imports, defines or looks up
    as an attribute."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_no_slice_of_the_saturation_is_built_for_its_generators():
    # the generators of I are picked at the lifts' markers and the
    # suite's oracle reads shift residuals: neither module extends an
    # echelon form, takes a rank growth or walks, and no builder of a
    # slice of I, nor the walk over such slices, is left in the package
    for module in (saturation, suite):
        assert _identifiers(Path(module.__file__)) & {
            "rref_extend", "rank_growth", "minimal_generators"} == set()
    for path in Path(saturation.__file__).parent.glob("*.py"):
        assert _identifiers(path) & {"i_rref", "generator_module"} == set()


@pytest.mark.parametrize("name", ["conic", "fermat-3", "fermat-4",
                                  "fermat-5", "fermat-6"])
def test_a_smooth_curve_takes_no_one_form_kernel(monkeypatch, name):
    # I = S on a smooth curve, so every step is the unit path, read off
    # i_dim: no one-form kernel is taken, and no canonical slice of J is
    # read above degree 2, where the generator count stops.  Sending
    # these steps to h_kernel would back-phase the full slice S_(T+1)
    read = []
    rref_at = FormsIdeal.rref_at

    def watched_rref_at(self, k):
        read.append(k)
        return rref_at(self, k)

    def refused(self, k, lifts=()):
        raise AssertionError(f"one-form kernel at degree {k}")

    monkeypatch.setattr(FormsIdeal, "rref_at", watched_rref_at)
    monkeypatch.setattr(FormsIdeal, "h_kernel", refused)
    sat = saturate(_catalog_curve(name))
    assert sat.data.tau() == 0
    assert all(sat.n_table)
    assert sat.generators.degrees == (0,)
    assert max(read, default=0) <= 2


# -- each step reduces over the slice of J above it with the lifts there
# -- projected out at their markers.  A lift moved off I_(k+1), changed
# -- at a column outside J_(k+1) and off every marker, keeps the markers
# -- clean and spans another space with J_(k+1); where S/J grows from k
# -- to k + 1, multiplication by the form cannot map onto the slice
# -- above, and the kernel of step k takes another dimension.  (Where
# -- it maps onto it, every choice of lifts gives a kernel of the same
# -- dimension, and only the suite's multiplied-out lifts see the
# -- change.)


@pytest.mark.parametrize("name", ["nf-d7-k3", "nf-d10-k3"])
def test_a_lift_moved_off_its_slice_makes_the_step_below_raise(monkeypatch,
                                                               name):
    ref = saturate(_catalog_curve(name))
    data = ref.data
    cases = [k for k in range(ref.top) if ref.n_table[k]
             and ref.n_table[k + 1]
             and data.milnor_dim(k + 1) > data.milnor_dim(k)]
    assert cases
    step = saturation.SaturationData._step
    for k in cases:
        steps = []

        def corrupting(self, j, k=k):
            steps.append(j)
            if j == k:
                lifts = self.extras[k + 1]
                last = max(range(len(lifts)), key=lambda i: marker(lifts[i]))
                taken = set(self.data.slice_at(k + 1)[0])
                taken.update(marker(lift) for lift in lifts)
                c = next(c for c in range(slice_dim(k + 1))
                         if c not in taken)
                lifts[last] = list(lifts[last])
                lifts[last][c] += 1
            return step(self, j)

        monkeypatch.setattr(saturation.SaturationData, "_step", corrupting)
        with pytest.raises(KmaxExhaustedError,
                           match="Hilbert-function identity"):
            saturate(_catalog_curve(name))
        assert steps[-1] == k


# -- the Lefschetz ranks are read at the markers of the lifts above:
# -- they are the ranks the images add to the slice of J there

# x passes through a singular point of generic-5 (see above)
FIXED_FORMS = [(1, 11, 101), (2, -3, 5), (1, 0, 0)]


@pytest.mark.parametrize("name", catalog.names())
def test_lefschetz_ranks_at_the_markers_are_the_growth_against_j(name):
    sat = saturate(_catalog_curve(name))
    data = sat.data
    for form in FIXED_FORMS:
        growth = []
        for s in range(len(sat.n_table) - 1):
            images = [[form[0] * a + form[1] * b + form[2] * c
                       for a, b, c in zip(*trio)]
                      for trio in sat.lift_shifts(s)]
            jpiv, jrows = data.rref_at(s + 1)
            span = IncrementalSpan(slice_dim(s + 1), jpiv, jrows)
            span.extend(images)
            growth.append(len(span.pivots) - len(jpiv))
        assert lefschetz_check(sat, ell=form).ranks == growth


def test_a_form_through_a_singular_point_drops_a_lefschetz_rank():
    sat = saturate(_catalog_curve("generic-5"))
    assert lefschetz_check(sat, ell=FIXED_FORMS[0]).pattern_ok
    assert not lefschetz_check(sat, ell=FIXED_FORMS[2]).pattern_ok


def _colon_rows_by_scan(k, form, comp_here, jpiv, jrows, lifts=()):
    """``jacobian.colon_rows`` as a scan: the row at each complement
    column npc reads every (monomial, term, J row) hit at a pivot and
    keeps those whose J row is nonzero at npc.  The reference that the
    builder, which files each J row's off-pivot entries under their
    columns once, must agree with."""
    terms = [(sh, coef) for sh, coef in zip(shift_maps(k), form) if coef]
    piv_index = {c: i for i, c in enumerate(jpiv)}
    direct, at_pivot = {}, []
    for u, c in enumerate(comp_here):
        for sh, coef in terms:
            t = sh[c]
            i = piv_index.get(t)
            if i is None:
                direct.setdefault(t, []).append((u, coef))
            else:
                at_pivot.append((u, coef, i))

    def scaled_row(npc):
        hits = [(u, coef * jrows[i][npc], jrows[i][jpiv[i]])
                for u, coef, i in at_pivot if jrows[i][npc]]
        scale = lcm(*(a for _, _, a in hits))
        row = [0] * len(comp_here)
        for u, coef in direct.get(npc, ()):
            row[u] = coef * scale
        for u, b, a in hits:
            row[u] -= b * (scale // a)
        return row, scale

    marked = []
    for lift in lifts:
        m = marker(lift)
        row, scale = scaled_row(m)
        marked.append((m, lift, scale * lift[m], row))
    markers = {m for m, _, _, _ in marked}
    rows = []
    for npc in complement(jpiv, slice_dim(k + 1)):
        if npc in markers:
            continue
        row, scale = scaled_row(npc)
        hits = [(lift[npc], den, mrow) for _, lift, den, mrow in marked
                if lift[npc]]
        if hits:
            big = lcm(scale, *(den for _, den, _ in hits))
            row = [(big // scale) * v for v in row]
            for c, den, mrow in hits:
                for u, v in enumerate(mrow):
                    row[u] -= (big // den) * c * v
        rows.append(row)
    return rows


@pytest.mark.parametrize("text", [
    "nf-d7-k3", "nodal-5", "generic-5", "ziegler-A",
    "-2*y^8 + 3*x^3*z^5", "3*y^10 - x^7*z^3"])
def test_colon_matrices_match_the_scan(monkeypatch, text):
    """Every colon matrix an analysis builds, at each saturation step
    with that step's lifts and in the regularity check with none,
    equals the scan's."""
    build = jacobian.colon_rows
    seen = []

    def checked_build(k, form, comp_here, jpiv, jrows, lifts=()):
        rows = build(k, form, comp_here, jpiv, jrows, lifts)
        assert rows == _colon_rows_by_scan(k, form, comp_here, jpiv, jrows,
                                           lifts)
        seen.append(len(lifts))
        return rows

    monkeypatch.setattr(jacobian, "colon_rows", checked_build)
    curve = (catalog.load(text) if text in catalog.names()
             else parse_poly(text))
    _, cd, _ = analyze_full(curve)
    assert cd.regular_degree() is not None
    # the regularity check's matrices have no lifts, the steps' have some
    assert 0 in seen
    assert any(seen)
