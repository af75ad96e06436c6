"""Property suite over the catalog plus randomized line arrangements.

Every curve is analyzed once, then its report is screened by checks
that neither its verdicts nor the closed forms that built its tables
already make:

- ``lefschetz-inequalities``: n_k rises up to T/2 (the table is
  symmetric about T by construction, so the falling half is its mirror);
- ``resolution-identities``: sorted alike, each S/I_f relation twist
  exceeds its generator twist;
- ``saturation-oracle``: the x, y and z shifts of the lifts stay in
  I_(k+1), the one check that sees a wrong lift the kernel-dimension
  check of the descent accepts;
- ``module-vanishing``: an arrangement of d >= 4 lines has n_(d-2) = 0;
- ``arrangement-tau``: tau is the tau of the intersection points;
- ``generic-arrangement-tables``: the closed-form tables of generic
  line arrangements;
- ``jacobian-table-shape``: the S/J_f table has a third position
  exactly when N(f) is nonzero, and a FREE curve's matches its
  exponents;
- ``lefschetz-nearly-free``: generic linear forms have full rank on
  N(f) for nearly free curves;
- ``verdicts``: no verdict of the report fails.

Each property only counts curves where its hypothesis applies, so the
summary reports applicable counts rather than the raw curve total.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import catalog
from .analysis import analyze_full
from .classify import FAIL, FREE, NEARLY_FREE
from .exactla import complement
from .jacobian import marker
from .parsing import parse_arrangement
from .poly import HomogeneousPoly, slice_dim
from .saturation import lefschetz_check

_LEFSCHETZ_SAMPLES = 3


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    report: object
    lefschetz: tuple        # () when no sample was drawn
    lifts_outside: tuple    # degrees k whose lifts shift out of I_(k+1)


@dataclass
class PropertyResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class SuiteResult:
    records: tuple
    properties: tuple

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)

    def summary_lines(self) -> list:
        lines = []
        for p in self.properties:
            lines.append(f"property {p.name}: {p.checked} checked, "
                         f"{len(p.failures)} failures")
            for curve, detail in p.failures:
                lines.append(f"  FAIL {curve}: {detail}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"suite: {verdict} ({len(self.properties)} properties, "
                     f"{len(self.records)} curves)")
        return lines

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "curves": [r.name for r in self.records],
            "properties": [
                {
                    "name": p.name,
                    "checked": p.checked,
                    "failures": [{"curve": c, "detail": d}
                                 for c, d in p.failures],
                }
                for p in self.properties
            ],
        }


def random_arrangement_text(rng: random.Random) -> str:
    """Draw 4 to 9 pairwise independent lines with coefficients in
    [-5, 5], formatted one form per row for the arrangement parser."""
    d = rng.randint(4, 9)
    rows = []
    while len(rows) < d:
        cand = tuple(rng.randint(-5, 5) for _ in range(3))
        if cand == (0, 0, 0):
            continue
        if any(_proportional(cand, old) for old in rows):
            continue
        rows.append(cand)
    return "".join(f"{HomogeneousPoly.from_vector(1, row)}\n"
                   for row in rows)


def _proportional(u, v) -> bool:
    return (u[0] * v[1] == u[1] * v[0]
            and u[0] * v[2] == u[2] * v[0]
            and u[1] * v[2] == u[2] * v[1])


def _run_one(name, obj, irreducible, seed, wanted=None):
    """The record of one curve.  wanted, a set of property names or None
    for all of them, selects the inputs built beyond the report: the
    lifts' oracle for ``saturation-oracle`` and the Lefschetz samples
    for ``lefschetz-nearly-free``; one left out is ()."""
    report, _cd, sat = analyze_full(obj, name=name, irreducible=irreducible)
    samples = outside = ()
    if ((wanted is None or "lefschetz-nearly-free" in wanted)
            and report.classification.kind == NEARLY_FREE and report.tau > 0):
        samples = tuple(
            lefschetz_check(sat, seed=seed + j).pattern_ok
            for j in range(_LEFSCHETZ_SAMPLES))
    if wanted is None or "saturation-oracle" in wanted:
        outside = _lifts_outside(sat)
    return SuiteRecord(name=name, report=report, lefschetz=samples,
                       lifts_outside=outside)


def _lifts_outside(sat) -> tuple:
    """The degrees k with n_k > 0 where an x, y or z shift of a lift
    leaves I_(k+1).

    A step's lifts span the kernel of multiplication by one linear form
    (or by x, y and z) modulo I_(k+1), which contains the true quotient
    slice; shifts that stay in I_(k+1) put the lifts inside the true
    slice, so the two are equal and the step is exact without the
    Hilbert-function identity that sized it.

    No slice of I is built: a shift lies in I_(k+1) exactly when its
    residual r modulo J_(k+1), on the monomials outside J_(k+1)
    (``SaturationData.shift_residuals``), vanishes once each lift l_j
    at k + 1 is projected out at its marker m_j, zero in every other
    lift, by the update r := l_j[m_j] r - r[m_j] l_j.
    """
    outside = []
    for k, n in enumerate(sat.n_table):
        if not n:
            continue
        comp = complement(sat.data.rref_at(k + 1)[0], slice_dim(k + 1))
        marked = [(comp.index(marker(lift)), [lift[c] for c in comp])
                  for lift in sat.extras.get(k + 1, ())]
        for r in (r for trio in sat.shift_residuals(k, comp) for r in trio):
            for i, lift in marked:
                a, b = lift[i], r[i]
                if b:
                    r = [a * v - b * u for v, u in zip(r, lift)]
            if any(r):
                outside.append(k)
                break
    return tuple(outside)


# Per-record checks return None when not applicable, else (ok, detail).

def _prop_lefschetz_inequalities(rec):
    # the rising half only: n_k = n_(T-k) holds by construction (the
    # c_k of ``SaturationData`` are a palindrome of degree T), so the
    # falling half is its mirror image
    rep = rec.report
    if rep.T < 0:
        return None
    n = rep.n_table
    bad = [k for k in range(rep.T) if 2 * k < rep.T and n[k] > n[k + 1]]
    if bad:
        return False, f"monotonicity breaks at k = {bad}"
    return True, ""


def _prop_resolution_identities(rec):
    # the S/I_f relations are read off the Hilbert numerator, so their
    # count, sum and squares hold by construction (tests/test_resolution.py);
    # the ordering b_i >= a_i + 1 does not
    a, b = rec.report.betti_saturated.twists
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    problems = [f"relation twist {bv} not above generator {av}"
                for bv, av in zip(sb, sa) if bv < av + 1]
    if problems:
        return False, "; ".join(problems)
    return True, ""


def _prop_saturation_oracle(rec):
    # n_table is the Hilbert-function identity itself, so the lifts are
    # checked by multiplying them out (``_lifts_outside``)
    if rec.report.T < 0:
        return None
    if rec.lifts_outside:
        return False, f"lifts leave I_(k+1) at k = {list(rec.lifts_outside)}"
    return True, ""


def _prop_module_vanishing(rec):
    # an arrangement of d >= 4 lines has n_(d-2) = 0; that n_(d-2) = 0
    # exactly when m_(2d-4) = tau is an identity of the table, and the
    # verdict module-vanishing-equivalence reports it
    rep = rec.report
    d = rep.degree
    if rep.input_kind != "arrangement" or d < 4:
        return None
    nlow = rep.n_table[d - 2]
    if nlow:
        return False, f"defect in degree d-2 is {nlow} for an arrangement"
    return True, ""


def _prop_arrangement_tau(rec):
    rep = rec.report
    if rep.combinatorics is None:
        return None
    expected = rep.combinatorics["tau"]
    if rep.tau != expected:
        return False, f"algebra gives {rep.tau}, points give {expected}"
    return True, ""


def _prop_generic_arrangement_tables(rec):
    # d >= 4 lines with only double points: both tables depend on d
    # alone (Rose and Terao; Yuzvinsky; J. Algebra 136, 1991), a fact
    # that does not come from the elimination engine
    rep = rec.report
    d = rep.degree
    if (rep.combinatorics is None or d < 4
            or set(rep.combinatorics["multiplicities"]) != {"2"}):
        return None
    jacobian = ((d - 1,) * 3, (2 * d - 3,) * (d - 1), (2 * d - 2,) * (d - 3))
    saturated = ((d - 1,) * d, (d,) * (d - 1))
    problems = []
    for name, table, want in (("S/J_f", rep.betti_jacobian, jacobian),
                              ("S/I_f", rep.betti_saturated, saturated)):
        got = None if table is None else table.twists
        if got != want:
            problems.append(f"{name} twists {got}, expected {want}")
    if problems:
        return False, "; ".join(problems)
    return True, ""


def _prop_jacobian_table_shape(rec):
    rep = rec.report
    tj = rep.betti_jacobian
    if tj is None:
        return None
    d = rep.degree
    problems = []
    if (tj.pd == 3) != (rep.nu > 0):
        problems.append("length does not match defect vanishing")
    cls = rep.classification
    if cls.kind == FREE:
        want = tuple(sorted(d - 1 + e for e in cls.exponents))
        if tj.pd != 2 or tj.position(2) != want:
            problems.append("free curve table has the wrong shape")
    if problems:
        return False, "; ".join(problems)
    return True, ""


def _prop_lefschetz_nearly_free(rec):
    if not rec.lefschetz:
        return None
    if not all(rec.lefschetz):
        misses = rec.lefschetz.count(False)
        return False, f"{misses} of {len(rec.lefschetz)} generic forms failed"
    return True, ""


def _prop_verdicts(rec):
    failed = [v.name for v in rec.report.verdicts if v.status == FAIL]
    if failed:
        return False, "failing verdicts: " + ", ".join(failed)
    return True, ""


PROPERTIES = (
    ("lefschetz-inequalities", _prop_lefschetz_inequalities),
    ("resolution-identities", _prop_resolution_identities),
    ("saturation-oracle", _prop_saturation_oracle),
    ("module-vanishing", _prop_module_vanishing),
    ("arrangement-tau", _prop_arrangement_tau),
    ("generic-arrangement-tables", _prop_generic_arrangement_tables),
    ("jacobian-table-shape", _prop_jacobian_table_shape),
    ("lefschetz-nearly-free", _prop_lefschetz_nearly_free),
    ("verdicts", _prop_verdicts),
)


def property_names() -> list:
    return [name for name, _fn in PROPERTIES]


def run_suite(random_count: int = 25, seed: int = 0,
              only=None) -> SuiteResult:
    wanted = set(only) if only else None
    if wanted is not None:
        unknown = wanted.difference(property_names())
        if unknown:
            raise ValueError(f"unknown suite properties: {sorted(unknown)}")

    records = [_run_one(name, catalog.load(name),
                        catalog.entry(name).irreducible, 1000 * i, wanted)
               for i, name in enumerate(catalog.names())]
    rng = random.Random(seed)
    for i in range(random_count):
        arr = parse_arrangement(random_arrangement_text(rng))
        records.append(_run_one(f"random-{i}", arr, False,
                                10 ** 6 + 1000 * i, wanted))

    results = []
    for pname, fn in PROPERTIES:
        if wanted is not None and pname not in wanted:
            continue
        res = PropertyResult(name=pname)
        for rec in records:
            out = fn(rec)
            if out is None:
                continue
            res.checked += 1
            ok, detail = out
            if not ok:
                res.failures.append((rec.name, detail))
        results.append(res)
    return SuiteResult(records=tuple(records), properties=tuple(results))
