"""Freeness classification and the structural verdicts."""

from importlib import import_module

import pytest

from curvesat.analysis import analyze, analyze_catalog
from curvesat.catalog import load
from curvesat.classify import (
    CONCURRENT_LINES,
    FREE,
    NEARLY_FREE,
    OTHER,
    SMOOTH,
    classify,
    predicted_resolution_nearly_free,
)
from curvesat.errors import BadExponentError
from curvesat.parsing import parse_poly
from curvesat.saturation import saturate

EX1_D4 = "y^4 + x*z^3"


def verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict named {name}")


def test_classify_nearly_free_quintic():
    cls = classify(parse_poly("y^5 + x^2*z^3"))
    assert cls.kind == NEARLY_FREE
    assert cls.exponents == (1, 4)
    assert cls.mdr == 1


def test_classify_reads_the_saturation_it_is_given(monkeypatch):
    sat = saturate(parse_poly("y^5 + x^2*z^3"))

    def refuse(_):
        raise AssertionError("classify saturated the curve again")

    # the package exports the function classify under the module's name
    monkeypatch.setattr(import_module("curvesat.classify"), "saturate",
                        refuse)
    assert classify(sat) == classify(sat.data, sat)


def test_classify_concurrent_lines():
    cls = classify(parse_poly("x*y"))
    assert cls.kind == CONCURRENT_LINES
    assert cls.exponents == (0, 1)
    assert cls.tau == 1
    assert cls.mdr == 0


def test_classify_smooth_conic_is_nearly_free():
    # tau = 0 with mdr = 1 satisfies the nearly free count, so the
    # smooth conic lands there with exponents (1, 1)
    cls = classify(parse_poly("x^2 + y^2 + z^2"))
    assert cls.kind == NEARLY_FREE
    assert cls.exponents == (1, 1)
    assert cls.tau == 0


def test_classify_smooth_cubic():
    cls = classify(parse_poly("x^3 + y^3 + z^3"))
    assert cls.kind == SMOOTH
    assert cls.exponents is None
    assert cls.tau == 0


def test_classify_free_triangle():
    cls = classify(parse_poly("x*y*z"))
    assert cls.kind == FREE
    assert cls.exponents == (1, 1)
    assert cls.tau == 3


def test_classify_nodal_cubic_other():
    cls = classify(parse_poly("x*y*z + x^3 + y^3"))
    assert cls.kind == OTHER
    assert cls.exponents is None
    assert cls.tau == 1
    assert cls.s == 1 - 1  # sigma - (d - 2)


def test_classify_ziegler_member():
    cls = classify(load("ziegler-A").product())
    assert cls.kind == OTHER
    assert cls.tau == 42
    assert cls.mdr == 5


def test_predicted_resolution_two_generator_case():
    assert predicted_resolution_nearly_free(4, 1).twists == ((2, 3), (5,))


def test_predicted_resolution_four_generator_case():
    assert (predicted_resolution_nearly_free(6, 2).twists
            == ((5, 5, 5, 5), (6, 6, 8)))
    assert (predicted_resolution_nearly_free(7, 3).twists
            == ((6, 6, 6, 7), (8, 8, 9)))


def test_predicted_resolution_rejects_bad_exponents():
    with pytest.raises(BadExponentError):
        predicted_resolution_nearly_free(4, 0)
    with pytest.raises(BadExponentError):
        predicted_resolution_nearly_free(4, 3)
    with pytest.raises(BadExponentError):
        predicted_resolution_nearly_free(2, 1)


def test_verdicts_nearly_free_quartic():
    report = analyze(parse_poly(EX1_D4))
    v = verdict(report, "predicted-saturated-resolution")
    assert v.status == "PASS"
    assert v.details["computed"] == v.details["predicted"] == [[2, 3], [5]]
    assert verdict(report, "sigma-formula").status == "PASS"
    v = verdict(report, "nearly-free-regularity")
    assert v.status == "PASS"
    assert v.details == {"regularity": 3, "expected": 3}
    assert verdict(report, "regularity-equals-T-minus-ct").status == "PASS"
    v = verdict(report, "saturation-generator-upper-bound")
    assert v.status == "PASS"
    assert v.details == {"mu_i": 2, "bound": 2, "e2": 1, "mu_ar": 3}
    v = verdict(report, "saturation-generator-count")
    assert v.status == "PASS"
    assert v.details["expected"] == 2
    assert verdict(report, "module-vanishing-equivalence").status == "PASS"
    assert verdict(report, "free-resolution-shape").status == "NOT_APPLICABLE"


@pytest.mark.parametrize("name", ["tricuspidal-4", "a6-quartic"])
def test_rational_cuspidal_quartics(name):
    # three A2 cusps and one A6 cusp both give tau = 6; a rational
    # cuspidal curve is free or nearly free, and I_f of these needs four
    # generators, the most a nearly free curve's saturation can have
    report = analyze_catalog(name)
    assert report.tau == 6
    cls = report.classification
    assert (cls.kind, cls.exponents) == (NEARLY_FREE, (2, 2))
    assert report.betti_saturated.twists == ((3, 3, 3, 3), (4, 4, 4))
    assert all(v.status in ("PASS", "NOT_APPLICABLE")
               for v in report.verdicts)


@pytest.mark.parametrize("name, tau, exponents", [
    ("b3", 49, (3, 5)),
    ("b3-deleted", 37, (3, 4)),
    ("grid-4x4", 48, (4, 4)),
])
def test_free_arrangements_known_without_the_engine(name, tau, exponents):
    # tau is the sum of (m - 1)^2 over the intersection points.  B3's
    # exponents are its reflection exponents 1, 3, 5 without the Euler
    # one (Orlik-Terao 1992).  y - z meets the other lines of B3 in
    # 4 = 3 + 1 points, so deleting it lowers 5 to 4 (Terao 1980).  The
    # grid is supersolvable: every intersection point lies on one of
    # the 5 lines through (0:1:0), so its exponents are (5 - 1, 9 - 5)
    # (Jambu-Terao 1984).
    report = analyze_catalog(name)
    assert report.tau == report.combinatorics["tau"] == tau
    cls = report.classification
    assert (cls.kind, cls.exponents) == (FREE, exponents)
    d = report.degree
    assert report.betti_saturated.twists == (
        (d - 1,) * 3, tuple(d - 1 + e for e in exponents))
    assert all(v.status in ("PASS", "NOT_APPLICABLE")
               for v in report.verdicts)


def test_verdicts_nearly_free_sextic_regularity():
    report = analyze(parse_poly("y^6 + x*z^5"))
    assert report.classification.exponents == (1, 5)
    v = verdict(report, "nearly-free-regularity")
    assert v.status == "PASS"
    assert v.details == {"regularity": 7, "expected": 7}


def test_verdicts_nodal_sextic_generator_bound():
    # needs the certified syzygy count (4, not the quick scan's 3) for
    # the upper bound to hold
    report = analyze(parse_poly("x*y*z^4 + x^6 + y^6"))
    v = verdict(report, "saturation-generator-upper-bound")
    assert v.status == "PASS"
    assert v.details == {"mu_i": 2, "bound": 2, "e2": 0, "mu_ar": 4}
    assert report.ar_generator_degrees == (5, 5, 5, 8)


def test_verdicts_free_curve_shape():
    report = analyze(parse_poly("x*y*z"))
    v = verdict(report, "free-resolution-shape")
    assert v.status == "PASS"
    assert verdict(report, "predicted-saturated-resolution").status \
        == "NOT_APPLICABLE"


def test_verdict_mdr_one_irreducible():
    report = analyze(parse_poly("y^5 + x^2*z^3"), irreducible=True)
    v = verdict(report, "mdr-one-nearly-free")
    assert v.status == "PASS"
    report = analyze(parse_poly("y^5 + x^2*z^3"))
    assert verdict(report, "mdr-one-nearly-free").status == "NOT_APPLICABLE"


def test_all_catalog_style_curves_have_clean_verdicts():
    for text in (EX1_D4, "x*y*z", "x*y", "x^3 + y^3 + z^3",
                 "x*y*z + x^3 + y^3"):
        report = analyze(parse_poly(text))
        assert all(v.status in ("PASS", "NOT_APPLICABLE")
                   for v in report.verdicts), text
