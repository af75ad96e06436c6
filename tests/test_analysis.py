"""Report assembly, serialization, and the catalog entry point."""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from curvesat import catalog, exactla, jacobian
from curvesat.analysis import analyze, analyze_catalog, analyze_full, emit_json
from curvesat.jacobian import CurveData, FormsIdeal
from curvesat.parsing import parse_arrangement, parse_poly
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


def test_timing_phases_present_when_requested():
    # "input" times the arrangement product, its combinatorics and the
    # curve data set-up
    for obj in (parse_poly("x*y"), parse_arrangement("x\ny\nz\n")):
        rep = analyze(obj, timing=True)
        assert rep.timing is not None
        assert set(rep.timing) == {
            "input", "jacobian", "mdr", "ct", "milnorTable", "saturation",
            "nGenerators", "resolution", "jacobianResolution", "classify",
            "verdicts"}
        assert all(t >= 0 for t in rep.timing.values())


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
