"""Report assembly, serialization, and the catalog entry point."""

import dataclasses
import hashlib
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvesat import catalog, exactla, jacobian
from curvesat.analysis import (analyze, analyze_catalog, analyze_full,
                               curve_data, emit_json)
from curvesat.errors import CoefficientTooLargeError, ProportionalLinesError
from curvesat.jacobian import CurveData, FormsIdeal
from curvesat.parsing import Arrangement, parse_arrangement, parse_poly
from curvesat.poly import (MAX_COEFF_BITS, HomogeneousPoly, coefficient_bits,
                           primitivize)
from curvesat.suite import random_arrangement_text

EX1_D4 = "y^4 + x*z^3"


def test_report_core_fields():
    rep = analyze(parse_poly(EX1_D4))
    assert rep.input_kind == "poly"
    assert rep.degree == 4 and rep.T == 6 and rep.kmax == 9
    assert (rep.mdr, rep.tau, rep.sigma, rep.nu, rep.ct) == (1, 6, 2, 1, 3)
    assert rep.n_table == (0, 0, 1, 1, 1, 0, 0)
    assert rep.ar_generator_degrees == (1, 3, 3)
    assert rep.n_generator_degrees == (2,)
    assert rep.combinatorics is None
    assert rep.timing is None


def test_report_is_frozen():
    rep = analyze(parse_poly("x*y"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.tau = 5


def test_timing_phases_present_when_requested(monkeypatch):
    # "input" times the arrangement products, the normalization (timed
    # here on its own), the combinatorics and the curve data set-up
    spent = []
    normalized = Arrangement.normalized

    def timed(self):
        t0 = time.perf_counter()
        out = normalized(self)
        spent.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(Arrangement, "normalized", timed)
    for obj in (parse_poly("x*y"), parse_arrangement("x\ny\nz\n"),
                catalog.load("ziegler-A")):
        spent.clear()
        rep = analyze(obj, timing=True)
        assert rep.timing is not None
        assert set(rep.timing) == {
            "input", "jacobian", "mdr", "ct", "milnorTable", "saturation",
            "nGenerators", "resolution", "jacobianResolution", "classify",
            "verdicts"}
        assert all(t >= 0 for t in rep.timing.values())
        assert rep.timing["input"] >= sum(spent)
    assert len(spent) == 1 and spent[0] > 0


def test_arrangement_report_has_combinatorics():
    rep = analyze(parse_arrangement("x\ny\nz\n"))
    assert rep.input_kind == "arrangement"
    assert rep.input_forms == ("x", "y", "z")
    assert rep.combinatorics["tau"] == 3
    assert rep.tau == 3
    assert rep.classification.kind == "FREE"


def test_analyze_catalog_carries_entry_metadata():
    rep = analyze_catalog("nf-d5-k2")
    assert rep.name == "nf-d5-k2"
    assert rep.classification.kind == "NEARLY_FREE"
    # irreducibility from the catalog unlocks the mdr verdict
    assert any(v.name == "mdr-one-nearly-free" and v.status == "PASS"
               for v in rep.verdicts)


def test_emit_json_layout():
    rep = analyze(parse_poly(EX1_D4))
    text = emit_json(rep)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schemaVersion"] == 1
    assert data["invariants"] == {"mdr": 1, "tau": 6, "sigma": 2,
                                  "nu": 1, "ct": 3}
    assert data["betti"]["saturated"] == {"a": [2, 3], "b": [5]}
    assert data["betti"]["jacobian"] == [[3, 3, 3], [4, 6, 6], [7]]
    # keys are sorted so repeated runs serialize identically
    assert text == emit_json(analyze(parse_poly(EX1_D4)))


def test_to_text_mentions_the_headline_facts():
    rep = analyze(parse_poly(EX1_D4))
    text = rep.to_text()
    assert "degree d = 4" in text
    assert "tau = 6" in text
    assert "NEARLY_FREE" in text
    assert "a = [2, 3], b = [5]" in text


def test_analyze_full_walks_no_generators_and_no_relations(monkeypatch):
    # the generators of I_f are counted and the S/I_f relations read
    # off its Hilbert function: with every Nakayama walk and relation
    # walk refused, each report is still the pinned one
    def refuse(*args):
        raise AssertionError("a Nakayama walk ran inside analyze_full")

    monkeypatch.setattr(jacobian, "minimal_generators", refuse)
    monkeypatch.setattr(FormsIdeal, "relations", refuse)
    digests = json.loads((Path(__file__).parent / "data"
                          / "report_digests.json").read_text())
    for name in ("xy", "conic", "nodal-3", "nf-d7-k3", "braid", "nodal-5",
                 "concurrent-4", "fermat-5"):
        report, _, _ = analyze_full(catalog.load(name), name=name,
                                    irreducible=catalog.entry(
                                        name).irreducible)
        assert {key: hashlib.sha256(text.encode()).hexdigest()
                for key, text in (("text", report.to_text()),
                                  ("json", emit_json(report)))} \
            == digests[name]


def test_analyze_full_builds_no_saturated_slice(monkeypatch):
    # the descent reduces over the slices of J_f with the lifts
    # projected out at their markers, the generator pick reads the
    # lifts' markers, and every other phase reads ranks: with every
    # routine refused that can extend a span seeded with J's rows
    # (rref_insert wherever it is bound, and an IncrementalSpan built
    # with rows), the catalog and the random arrangements of the suite
    # still give their pinned reports.  No Nakayama walk runs either,
    # so jacobian.minimal_generators is refused too (the pick inserts
    # into spans it builds empty)
    def refuse(*args):
        raise AssertionError("a slice of I_f was built inside analyze_full")

    def refuse_walk(*args):
        raise AssertionError("a Nakayama walk ran inside analyze_full")

    init = exactla.IncrementalSpan.__init__

    def refuse_seeded(self, ncols, pivots=(), rows=()):
        if rows:
            refuse()
        init(self, ncols, pivots, rows)

    owners = [module for name, module in sorted(sys.modules.items())
              if name.partition(".")[0] == "curvesat"
              and vars(module).get("rref_insert") is exactla.rref_insert]
    assert exactla in owners
    for module in owners:
        monkeypatch.setattr(module, "rref_insert", refuse)
    monkeypatch.setattr(exactla.IncrementalSpan, "__init__", refuse_seeded)
    monkeypatch.setattr(jacobian, "minimal_generators", refuse_walk)
    rng = random.Random(0)
    curves = [(name, catalog.load(name), catalog.entry(name).irreducible,
               "report_digests.json") for name in catalog.names()]
    curves += [(f"random-{i}",
                parse_arrangement(random_arrangement_text(rng)), False,
                "suite_digests.json") for i in range(25)]
    pinned = {}
    for name, obj, irreducible, source in curves:
        digests = pinned.setdefault(source, json.loads(
            (Path(__file__).parent / "data" / source).read_text()))
        report, _, _ = analyze_full(obj, name=name, irreducible=irreducible)
        assert {key: hashlib.sha256(text.encode()).hexdigest()
                for key, text in (("text", report.to_text()),
                                  ("json", emit_json(report)))} \
            == digests[name]


def test_analyze_takes_no_ar_kernel_and_walks_no_ar(monkeypatch):
    # the AR(f) degrees and the S/J_f table are read off the Milnor
    # table and N(f): with the AR(f) walk and every kernel or relation
    # walk of J_f refused, each report is still the pinned one, mdr = 0
    # (xy, concurrent-4) included
    def refuse(*args):
        raise AssertionError("AR(f) walked inside analyze")

    def only_off_jf(method):
        def guarded(self, *args):
            if isinstance(self, CurveData):
                refuse()
            return method(self, *args)
        return guarded

    monkeypatch.setattr(CurveData, "ar_min_generators", refuse)
    for name in ("kernel_at", "relations"):
        monkeypatch.setattr(FormsIdeal, name,
                            only_off_jf(getattr(FormsIdeal, name)))
    digests = json.loads((Path(__file__).parent / "data"
                          / "report_digests.json").read_text())
    ar = {"xy": (0, 1), "concurrent-4": (0, 3), "nf-d7-k3": (1, 6, 6),
          "braid": (2, 3)}
    for name, degrees in ar.items():
        report = analyze_catalog(name)
        assert report.ar_generator_degrees == degrees
        assert {key: hashlib.sha256(text.encode()).hexdigest()
                for key, text in (("text", report.to_text()),
                                  ("json", emit_json(report)))} \
            == digests[name]


def _lines(rows) -> Arrangement:
    return Arrangement(tuple(HomogeneousPoly.from_vector(1, r) for r in rows))


def _bits(g) -> int:
    return coefficient_bits(primitivize(g).terms.values())


def test_an_arrangement_is_analyzed_in_normalized_coordinates_within_the_cap():
    # both products fit: the normalized one is analyzed, the given one
    # is reported
    arr = parse_arrangement("x + 101*z\nx + y + 101*z\nx + 2*y + 101*z\n"
                            "x\ny\nz\nx + y + z\n")
    cd, given = curve_data(arr)
    assert given == primitivize(arr.product())
    assert cd.f == primitivize(arr.normalized().product()) != given
    # 30 lines with 31-bit coefficients fit the cap as given but not
    # normalized: accepted as today, in the given coordinates
    rng = random.Random(0)
    wide = _lines([[rng.choice((1, -1)) * rng.randrange(1, 2 ** 31)
                    for _ in range(3)] for _ in range(30)])
    assert _bits(wide.product()) <= MAX_COEFF_BITS
    assert _bits(wide.normalized().product()) > MAX_COEFF_BITS
    cd, given = curve_data(wide)
    assert cd.f == given == primitivize(wide.product())
    # a triple with 300-bit entries and five small combinations of it:
    # the given product is over the cap, the normalized one is not; it
    # is refused as today
    big = 2 ** 300
    triple = [(big, 1, 0), (0, big, 1), (1, 0, big)]
    rows = triple + [[sum(s[i] * triple[i][j] for i in range(3))
                      for j in range(3)]
                     for s in ((1, 1, 1), (1, -1, 2), (2, 1, -1), (1, 2, 3),
                               (3, -1, 1))]
    narrow = _lines(rows)
    assert _bits(narrow.product()) > MAX_COEFF_BITS
    assert _bits(narrow.normalized().product()) <= MAX_COEFF_BITS
    with pytest.raises(CoefficientTooLargeError):
        curve_data(narrow)


def _fold_product(arr) -> HomogeneousPoly:
    # the product as Arrangement.product formed it before it multiplied
    # integer rows: a fold of HomogeneousPoly.__mul__ over the forms
    out = HomogeneousPoly(0, [((0, 0, 0), 1)])
    for form in arr.forms:
        out = out * form
    return out


def _seeded_lines(n: int, seed: int) -> str:
    # n distinct lines with coefficients in [-3, 3], one form per row
    rng = random.Random(seed)
    rows = {}
    while len(rows) < n:
        form = HomogeneousPoly.from_vector(
            1, [rng.randint(-3, 3) for _ in range(3)])
        if form.terms:
            rows.setdefault(tuple(primitivize(form).int_vector()), form)
    return "".join(f"{form}\n" for form in rows.values())


def _form_text(coeffs) -> str:
    # (numerator, denominator) per variable, written as p/q*x
    parts = [f"{p}/{q}*{v}" for (p, q), v in zip(coeffs, "xyz") if p]
    return " + ".join(parts).replace("+ -", "- ")


def _check_products(arr):
    reference = _fold_product(arr)
    assert arr.product() == reference
    cd, given = curve_data(arr)
    assert (cd.f, given) == (primitivize(_fold_product(arr.normalized())),
                             primitivize(reference))


fractions_ = st.tuples(st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(fractions_, fractions_, fractions_)
                .filter(lambda c: any(p for p, _ in c)),
                min_size=1, max_size=8))
def test_the_product_of_an_arrangement_is_the_fold_of_its_forms(lines):
    # non-primitive, rational and negative-led forms: the product is the
    # product of the forms as given, and curve_data analyzes the
    # primitive normalized product and reports the primitive given one
    try:
        arr = parse_arrangement("".join(_form_text(c) + "\n"
                                        for c in lines))
    except ProportionalLinesError:
        assume(False)
    _check_products(arr)


def test_the_product_of_64_lines_is_the_fold_of_its_forms():
    arr = parse_arrangement(_seeded_lines(64, 1))
    assert arr.degree == 64
    _check_products(arr)


def test_the_input_phase_multiplies_no_polynomials(monkeypatch):
    def refuse(self, other):
        raise AssertionError("HomogeneousPoly.__mul__ was called")

    monkeypatch.setattr(HomogeneousPoly, "__mul__", refuse)
    for name in ("ziegler-A", "concurrent-4", "generic-5"):
        assert analyze_catalog(name).input_kind == "arrangement"
    cd, given = curve_data(parse_arrangement(_seeded_lines(64, 1)))
    assert cd.d == given.degree == 64


def _invariant_part(report) -> dict:
    # everything but the printed input and the combinatorics, which are
    # read off the given lines
    data = report.to_jsonable()
    del data["input"], data["combinatorics"]
    return data


small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small, small, small), min_size=4, max_size=6),
       st.permutations(range(6)),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-2, 2)), min_size=1, max_size=3))
def test_a_report_is_invariant_under_a_change_of_coordinates(rows, order,
                                                             moves):
    # a permutation of the lines picks another triple to normalize at,
    # and a unimodular matrix (a product of elementary ones, each adding
    # s times coordinate i to coordinate j) moves every line; the
    # invariants do not change
    assume(all(any(r) for r in rows))
    arr = _lines(rows)
    assume(len({tuple(r) for r in arr.coefficient_rows()}) == len(rows))
    base = _invariant_part(analyze(arr))
    permuted = _lines([rows[i] for i in order if i < len(rows)])
    assert _invariant_part(analyze(permuted)) == base
    moved = [list(r) for r in rows]
    for i, j, s in moves:
        if i != j:
            for r in moved:
                r[j] += s * r[i]
    assert _invariant_part(analyze(_lines(moved))) == base


def test_the_normalization_changes_no_byte_of_a_report(monkeypatch):
    # the seed-0 suite arrangements of degree at most 7 and the
    # concurrent lines, analyzed as given and normalized
    rng = random.Random(0)
    arrangements = [parse_arrangement(random_arrangement_text(rng))
                    for _ in range(25)]
    arrangements = [a for a in arrangements if a.degree <= 7]
    arrangements.append(catalog.load("concurrent-4"))
    assert len(arrangements) > 10
    normalized = [emit_json(analyze(a)) for a in arrangements]
    monkeypatch.setattr(Arrangement, "normalized", lambda self: self)
    assert [emit_json(analyze(a)) for a in arrangements] == normalized
