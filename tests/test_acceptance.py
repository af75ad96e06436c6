"""Acceptance gate: exact end-to-end results with runtime budgets.

Each test covers one acceptance criterion, checks every value bit for
bit (no tolerances anywhere), and prints a single PASS or FAIL line on
the real stdout so the gate is readable straight off the pytest log.
"""

import hashlib
import json
import time
from pathlib import Path

from curvesat.analysis import analyze_catalog, emit_json
from curvesat.classify import predicted_resolution_nearly_free
from curvesat.resolution import regularity
from curvesat.suite import run_suite

_SUITE_CACHE = {}
DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "report_digests.json").read_text())
# the seed-0 random reports of ``full_suite``, pinned apart from the
# catalog's digests, which hold exactly the catalog names
SUITE_DIGESTS = json.loads((DATA / "suite_digests.json").read_text())
SUITE_JSON_SHA256 = (
    "d7fb2adbd43d7c70ee1081a6b57a09d70a9ae28da907ed99cc4d7c142482eb10")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def full_suite():
    """Catalog plus 25 seeded random arrangements, run once per session."""
    if "result" not in _SUITE_CACHE:
        start = time.perf_counter()
        _SUITE_CACHE["result"] = run_suite(random_count=25, seed=0)
        _SUITE_CACHE["elapsed"] = time.perf_counter() - start
    return _SUITE_CACHE["result"], _SUITE_CACHE["elapsed"]


def check(failures, cond, message):
    if not cond:
        failures.append(message)


def finish(label, failures, capsys):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"acceptance {label}: {status}", flush=True)
    assert not failures, f"{label}: " + "; ".join(failures)


def test_criterion_1_ziegler_pair_resolutions(capsys):
    expected = {
        "ziegler-A": {
            "jacobian": ((8, 8, 8), (13, 14, 14, 14), (15, 16)),
            "saturated": ((8, 8, 8, 8, 9), (10, 10, 10, 11)),
        },
        "ziegler-Aprime": {
            "jacobian": ((8, 8, 8), (14, 14, 14, 14, 14, 14),
                         (15, 15, 15, 15)),
            "saturated": ((8, 8, 8, 9, 9, 9, 9), (10, 10, 10, 10, 10, 10)),
        },
    }
    failures = []
    for name, tables in expected.items():
        start = time.perf_counter()
        rep = analyze_catalog(name)
        elapsed = time.perf_counter() - start
        check(failures, rep.betti_jacobian.twists == tables["jacobian"],
              f"{name} S/J table {rep.betti_jacobian.twists}")
        check(failures, rep.betti_saturated.twists == tables["saturated"],
              f"{name} S/I table {rep.betti_saturated.twists}")
        check(failures, elapsed < 60.0,
              f"{name} took {elapsed:.1f}s, budget 60s")
        # the pair's pinned report digests (see test_report_digests)
        check(failures, {"text": _sha(rep.to_text()),
                         "json": _sha(emit_json(rep))} == DIGESTS[name],
              f"{name} report digests moved")
    finish("1 ziegler-pair-resolutions", failures, capsys)


def test_criterion_2_nearly_free_family(capsys):
    failures = []
    for d in range(3, 11):
        for k in range(1, d):
            start = time.perf_counter()
            rep = analyze_catalog(f"nf-d{d}-k{k}")
            elapsed = time.perf_counter() - start
            name = rep.name
            check(failures, rep.mdr == 1, f"{name} mdr {rep.mdr}")
            check(failures, rep.tau == (d - 1) * (d - 2),
                  f"{name} tau {rep.tau}")
            check(failures, rep.classification.kind == "NEARLY_FREE",
                  f"{name} kind {rep.classification.kind}")
            check(failures, rep.classification.exponents == (1, d - 1),
                  f"{name} exponents {rep.classification.exponents}")
            want_n = [1 if d - 2 <= j <= 2 * d - 4 else 0
                      for j in range(len(rep.n_table))]
            check(failures, list(rep.n_table) == want_n,
                  f"{name} n table {list(rep.n_table)}")
            check(failures,
                  rep.betti_saturated.twists == ((d - 2, d - 1),
                                                 (2 * d - 3,)),
                  f"{name} S/I table {rep.betti_saturated.twists}")
            check(failures, elapsed < 5.0,
                  f"{name} took {elapsed:.1f}s, budget 5s")
    finish("2 nearly-free-family", failures, capsys)


def test_criterion_3_two_point_saturations(capsys):
    failures = []
    rep = analyze_catalog("xy")
    check(failures, rep.betti_saturated.twists == ((1, 1), (2,)),
          f"xy S/I table {rep.betti_saturated.twists}")
    for d in range(3, 7):
        rep = analyze_catalog(f"nodal-{d}")
        check(failures, rep.betti_saturated.twists == ((1, 1), (2,)),
              f"nodal-{d} S/I table {rep.betti_saturated.twists}")
        check(failures, rep.classification.kind == "OTHER",
              f"nodal-{d} kind {rep.classification.kind}")
    finish("3 point-supported-saturations", failures, capsys)


def test_criterion_4_smooth_curves(capsys):
    failures = []
    for d in range(3, 7):
        rep = analyze_catalog(f"fermat-{d}")
        name = rep.name
        check(failures, rep.tau == 0, f"{name} tau {rep.tau}")
        check(failures, rep.betti_saturated.twists == ((0,), ()),
              f"{name} saturation is not the unit ideal")
        # N(f) is the full Milnor algebra of a regular sequence: its
        # table matches the smooth reference from degree 0 through T
        check(failures,
              list(rep.n_table) == list(rep.smooth_table[:rep.T + 1]),
              f"{name} n table {list(rep.n_table)}")
        check(failures, rep.sigma == 0, f"{name} sigma {rep.sigma}")
        check(failures, rep.n_table[rep.T] == 1,
              f"{name} top degree {rep.T} entry {rep.n_table[rep.T]}")
    finish("4 smooth-curves", failures, capsys)


def test_criterion_5_property_suite(capsys):
    result, elapsed = full_suite()
    failures = []
    check(failures, elapsed < 600.0,
          f"suite took {elapsed:.0f}s, budget 600s")
    required = (
        "lefschetz-inequalities",
        "resolution-identities",
        "saturation-oracle",
        "arrangement-tau",
        "module-vanishing",
        "jacobian-table-shape",
    )
    by_name = {p.name: p for p in result.properties}
    for name in required:
        prop = by_name.get(name)
        check(failures, prop is not None, f"property {name} missing")
        if prop is None:
            continue
        check(failures, prop.checked > 0, f"property {name} never ran")
        check(failures, not prop.failures,
              f"property {name}: {prop.failures[:3]}")
    check(failures, result.ok,
          "failures outside the required properties: "
          + str([p.name for p in result.properties if not p.ok]))
    check(failures, len(result.records) >= 25,
          f"only {len(result.records)} curves analyzed")
    finish("5 property-suite", failures, capsys)


def test_seed_0_random_reports_are_pinned():
    """The text and JSON report of every random curve of ``full_suite``
    keep their SHA-256; a change meant to alter a report regenerates
    ``data/suite_digests.json`` and says which curves moved and why."""
    result, _elapsed = full_suite()
    got = {rec.name: {"text": _sha(rec.report.to_text()),
                      "json": _sha(emit_json(rec.report))}
           for rec in result.records if rec.name.startswith("random-")}
    assert got == SUITE_DIGESTS


def test_suite_json_bytes_are_pinned():
    """``curvesat suite --format json`` (catalog plus 25 random curves,
    seed 0) keeps its SHA-256; the CLI writes these bytes."""
    result, _elapsed = full_suite()
    text = json.dumps(result.to_jsonable(), indent=2, sort_keys=True) + "\n"
    assert _sha(text) == SUITE_JSON_SHA256


def test_criterion_6_nearly_free_predictions(capsys):
    result, _elapsed = full_suite()
    failures = []
    seen = 0
    for rec in result.records:
        rep = rec.report
        cls = rep.classification
        d = rep.degree
        if rep.tau == 0 or d < 3:
            continue
        mu_i = len(rep.betti_saturated.twists[0])
        if cls.kind == "FREE":
            check(failures, mu_i == 3,
                  f"{rec.name} free with {mu_i} saturation generators")
            continue
        if cls.kind != "NEARLY_FREE":
            continue
        seen += 1
        d1 = cls.exponents[0]
        predicted = predicted_resolution_nearly_free(d, d1)
        check(failures, rep.betti_saturated.twists == predicted.twists,
              f"{rec.name} table {rep.betti_saturated.twists} "
              f"!= predicted {predicted.twists}")
        reg = regularity(rep.betti_saturated)
        check(failures, reg == 2 * d - 4 - d1,
              f"{rec.name} regularity {reg} != {2 * d - 4 - d1}")
        check(failures, reg == rep.T - rep.ct,
              f"{rec.name} regularity {reg} != T - ct = {rep.T - rep.ct}")
        check(failures, mu_i == (2 if d1 == 1 else 4),
              f"{rec.name} saturation generator count {mu_i}")
    check(failures, seen >= 30, f"only {seen} nearly free curves seen")
    finish("6 nearly-free-predictions", failures, capsys)
