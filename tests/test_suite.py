"""Property sweep over the catalog plus random arrangements."""

import dataclasses
import os
import random
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest

from curvesat import analysis, catalog, suite
from curvesat.classify import FAIL
from curvesat.exactla import complement
from curvesat.jacobian import marker
from curvesat.parsing import parse_arrangement
from curvesat.poly import slice_dim
from curvesat.resolution import BettiTable
from curvesat.suite import (PROPERTIES, property_names,
                            random_arrangement_text, run_suite)

EXPECTED_PROPERTIES = [
    "lefschetz-inequalities",
    "resolution-identities",
    "saturation-oracle",
    "module-vanishing",
    "arrangement-tau",
    "generic-arrangement-tables",
    "jacobian-table-shape",
    "lefschetz-nearly-free",
    "verdicts",
]


def test_property_names_stable():
    assert property_names() == EXPECTED_PROPERTIES


def test_random_arrangement_text_is_deterministic():
    first = random_arrangement_text(random.Random(7))
    second = random_arrangement_text(random.Random(7))
    assert first == second
    arr = parse_arrangement(first)
    assert 4 <= arr.degree <= 9


def test_random_arrangements_vary_with_seed():
    texts = {random_arrangement_text(random.Random(s)) for s in range(6)}
    assert len(texts) > 1


def test_unknown_property_rejected_before_any_analysis():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="unknown suite properties"):
        run_suite(random_count=0, only=("no-such-property",))
    # validation must happen before the (slow) catalog sweep
    assert time.perf_counter() - start < 2.0


def test_run_suite_small_sweep():
    result = run_suite(random_count=2, seed=1)
    assert result.ok
    assert len(result.records) == len(catalog.names()) + 2
    assert [p.name for p in result.properties] == EXPECTED_PROPERTIES
    # the catalog is rich enough to exercise every property
    assert all(p.checked > 0 for p in result.properties)

    lines = result.summary_lines()
    assert lines[-1].startswith("suite: PASS")
    assert any(line.startswith("property module-vanishing:")
               for line in lines)

    data = result.to_jsonable()
    assert data["ok"] is True
    assert set(data["curves"]) == {r.name for r in result.records}
    assert [p["name"] for p in data["properties"]] == EXPECTED_PROPERTIES
    assert all(p["failures"] == [] for p in data["properties"])


def test_import_starts_no_process_pool():
    # the suite runs every curve in this process; a fresh interpreter, so
    # that no other test's imports are counted
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, curvesat; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_saturation_oracle_fails_on_a_corrupted_lift(monkeypatch):
    # replace the first lift of generic-5 (n = 2 at degrees 4 and 5) by
    # a monomial outside I_4; I is saturated, so one of its shifts
    # leaves I_5
    analyze_full = suite.analyze_full

    def corrupted(*args, **kwargs):
        report, cd, sat = analyze_full(*args, **kwargs)
        k = sat.sigma
        pivots = set(sat.i_rref(k)[0])
        c = next(c for c in range(slice_dim(k)) if c not in pivots)
        sat.extras[k][0] = [int(j == c) for j in range(slice_dim(k))]
        return report, cd, sat

    def run():
        return suite._run_one("generic-5", catalog.load("generic-5"),
                              False, 0)

    oracle = dict(PROPERTIES)["saturation-oracle"]
    assert oracle(run()) == (True, "")
    monkeypatch.setattr(suite, "analyze_full", corrupted)
    rec = run()
    assert rec.lifts_outside == (4,)
    ok, detail = oracle(rec)
    assert not ok and "k = [4]" in detail


@pytest.mark.parametrize("name", ["nodal-4", "nodal-5", "nodal-6",
                                  "generic-5", "nf-d7-k3"])
def test_saturation_oracle_sees_a_wrong_lift_at_every_degree(name):
    # the descent's kernel count passes any lifts at k + 1 where the
    # linear form maps (S/J)_k onto (S/J)_(k+1), and the nodal curves
    # have such degrees; multiplying the lifts out sees a wrong one at
    # every degree.  The lift with the largest marker, changed at the
    # first column outside J_k that is no lift's marker, leaves I_k
    _report, _cd, sat = suite.analyze_full(
        catalog.load(name), name=name,
        irreducible=catalog.entry(name).irreducible)
    assert suite._lifts_outside(sat) == ()
    degrees = [k for k, lifts in sat.extras.items() if lifts]
    assert degrees
    for k in degrees:
        lifts = sat.extras[k]
        markers = [marker(lift) for lift in lifts]
        j = markers.index(max(markers))
        c = next(c for c in complement(sat.data.rref_at(k)[0],
                                       slice_dim(k))
                 if c not in markers)
        original = lifts[j]
        lifts[j] = list(original)
        lifts[j][c] += 1
        sat._marked.clear()
        assert suite._lifts_outside(sat), k
        lifts[j] = original


@pytest.mark.parametrize("table", ["betti_jacobian", "betti_saturated"])
def test_generic_arrangement_tables_fail_on_one_wrong_twist(monkeypatch,
                                                           table):
    # generic-5 has only double points, so both tables are known from
    # d = 5 alone; one relation twist raised by one is caught
    build = getattr(analysis, table)

    def off_by_one(sat):
        *head, last = build(sat).twists
        return BettiTable((*head, (*last[:-1], last[-1] + 1)))

    def run():
        return suite._run_one("generic-5", catalog.load("generic-5"),
                              False, 0)

    prop = dict(PROPERTIES)["generic-arrangement-tables"]
    assert prop(run()) == (True, "")
    monkeypatch.setattr(analysis, table, off_by_one)
    ok, detail = prop(run())
    assert not ok and detail.startswith(
        "S/J_f" if table == "betti_jacobian" else "S/I_f")


@cache
def _record(name):
    return suite._run_one(name, catalog.load(name),
                          catalog.entry(name).irreducible, 0)


def _with_report(rec, **changes):
    return dataclasses.replace(
        rec, report=dataclasses.replace(rec.report, **changes))


def _n_set(rec, k, value):
    n = list(rec.report.n_table)
    n[k] = value
    return _with_report(rec, n_table=tuple(n))


def _relation_lowered(rec):
    # generic-5: S/I_f ((4^5), (5^4)); a relation twist of 4 is not above
    # the generator twist 4
    a, b = rec.report.betti_saturated.twists
    return _with_report(rec, betti_saturated=BettiTable(
        (a, (*b[:-1], b[-1] - 1))))


def _verdict_failed(rec, name):
    verdicts = tuple(dataclasses.replace(v, status=FAIL) if v.name == name
                     else v for v in rec.report.verdicts)
    return _with_report(rec, verdicts=verdicts)


# each property, a record it passes on, a corruption of that record it
# must see, and the failure detail; generic-5 is an arrangement of 5
# lines with only double points, n = 2 at degrees 4 and 5 (T = 9)
CORRUPTIONS = {
    "lefschetz-inequalities": (
        "generic-5", lambda r: _n_set(r, 0, 1),
        "monotonicity breaks at k = [0]"),
    "resolution-identities": (
        "generic-5", _relation_lowered,
        "relation twist 4 not above generator 4"),
    "saturation-oracle": (
        "generic-5", lambda r: dataclasses.replace(r, lifts_outside=(4,)),
        "lifts leave I_(k+1) at k = [4]"),
    "module-vanishing": (
        "generic-5", lambda r: _n_set(r, 3, 1),
        "defect in degree d-2 is 1 for an arrangement"),
    "arrangement-tau": (
        "generic-5", lambda r: _with_report(r, tau=r.report.tau + 1),
        "algebra gives 11, points give 10"),
    "generic-arrangement-tables": (
        "generic-5", _relation_lowered,
        "S/I_f twists ((4, 4, 4, 4, 4), (5, 5, 5, 4)), "
        "expected ((4, 4, 4, 4, 4), (5, 5, 5, 5))"),
    "jacobian-table-shape": (
        "generic-5", lambda r: _with_report(r, nu=0),
        "length does not match defect vanishing"),
    "lefschetz-nearly-free": (
        "nf-d7-k3",
        lambda r: dataclasses.replace(r, lefschetz=(True, False, True)),
        "1 of 3 generic forms failed"),
    "verdicts": (
        "generic-5",
        lambda r: _verdict_failed(r, "arrangement-syzygy-generator-bound"),
        "failing verdicts: arrangement-syzygy-generator-bound"),
}


# over every property, so a new one must bring its corruption
@pytest.mark.parametrize("pname", EXPECTED_PROPERTIES)
def test_each_property_fails_on_its_corrupted_record(pname):
    name, corrupt, detail = CORRUPTIONS[pname]
    prop = dict(PROPERTIES)[pname]
    rec = _record(name)
    assert prop(rec) == (True, "")
    assert prop(corrupt(rec)) == (False, detail)
