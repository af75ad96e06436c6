"""Full analysis pipeline and report assembly.

One call runs jacobian data, saturation, both Betti tables,
classification and the verdict battery, and packs everything into an
immutable report.  JSON output is canonical: keys sorted, multisets
ascending, and no timing data unless explicitly requested, so two runs
on the same input are byte identical.

An arrangement is analyzed as the product of its normalized lines (see
``curve_data``), where its first independent triple is x, y and z: the
Jacobian chain is cheaper there, and every number of a report is
invariant under the change of coordinates.  The report prints the
given lines, their product and their combinatorics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .classify import Classification, classify, verify_identities
from .errors import SmoothCurveError
from .jacobian import CurveData
from .parsing import Arrangement, combinatorics
from .poly import (MAX_COEFF_BITS, HomogeneousPoly, coefficient_bits,
                   primitivize)
from .resolution import (BettiTable, ar_degrees, betti_jacobian,
                         betti_saturated, jacobian_twists)
from .saturation import n_min_generators, saturate

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CurveReport:
    name: str | None
    input_kind: str
    input_poly: str
    input_forms: tuple | None
    degree: int
    T: int
    kmax: int
    mdr: int
    tau: int
    sigma: int | None
    nu: int
    ct: int | None
    milnor_table: tuple
    smooth_table: tuple
    n_table: tuple
    ar_generator_degrees: tuple
    n_generator_degrees: tuple
    betti_saturated: BettiTable
    betti_jacobian: BettiTable | None
    classification: Classification
    verdicts: tuple
    combinatorics: dict | None
    timing: dict | None

    def to_jsonable(self) -> dict:
        sat_a, sat_b = self.betti_saturated.twists
        return {
            "schemaVersion": SCHEMA_VERSION,
            "name": self.name,
            "input": {
                "kind": self.input_kind,
                "poly": self.input_poly,
                "forms": (list(self.input_forms)
                          if self.input_forms is not None else None),
            },
            "degree": self.degree,
            "T": self.T,
            "kmax": self.kmax,
            "invariants": {
                "mdr": self.mdr,
                "tau": self.tau,
                "sigma": self.sigma,
                "nu": self.nu,
                "ct": self.ct,
            },
            "tables": {
                "milnor": list(self.milnor_table),
                "smoothReference": list(self.smooth_table),
                "n": list(self.n_table),
            },
            "generators": {
                "ar": list(self.ar_generator_degrees),
                "nModule": list(self.n_generator_degrees),
                "saturation": list(sat_a),
            },
            "betti": {
                "saturated": {"a": list(sat_a), "b": list(sat_b)},
                "jacobian": (self.betti_jacobian.to_jsonable()
                             if self.betti_jacobian is not None else None),
            },
            "classification": self.classification.to_jsonable(),
            "verdicts": [v.to_jsonable() for v in self.verdicts],
            "combinatorics": self.combinatorics,
            "timing": self.timing,
        }

    def to_text(self) -> str:
        c = self.classification
        lines = []
        title = self.name or self.input_poly
        lines.append(f"curve: {title}")
        if self.input_forms is not None:
            lines.append(f"arrangement of {len(self.input_forms)} lines: "
                         + ", ".join(self.input_forms))
        lines.append(f"degree d = {self.degree}, T = {self.T}, "
                     f"kmax = {self.kmax}")
        lines.append(f"mdr = {self.mdr}, tau = {self.tau}, "
                     f"sigma = {self.sigma}, nu = {self.nu}, "
                     f"ct = {self.ct}")
        lines.append(f"n table: {list(self.n_table)}")
        expo = (f" exponents {c.exponents}" if c.exponents else "")
        lines.append(f"classification: {c.kind}{expo}")
        a, b = self.betti_saturated.twists
        lines.append(f"S/I resolution: a = {list(a)}, b = {list(b)}")
        if self.betti_jacobian is not None:
            pos = ", ".join(str(list(t)) for t in self.betti_jacobian.twists)
            lines.append(f"S/J resolution positions: {pos}")
        else:
            lines.append("S/J resolution positions: not applicable (mdr = 0)")
        if self.combinatorics is not None:
            mults = self.combinatorics["multiplicities"]
            desc = ", ".join(f"n_{m}={mults[m]}"
                             for m in sorted(mults, key=int))
            lines.append(f"combinatorics: {desc}")
        for v in self.verdicts:
            lines.append(f"verdict {v.name}: {v.status}")
        return "\n".join(lines) + "\n"


def emit_json(report: CurveReport) -> str:
    return json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"


def curve_data(obj) -> tuple[CurveData, HomogeneousPoly]:
    """The curve data obj is analyzed with, and the primitive curve it
    was given as.

    A polynomial is analyzed as given.  An arrangement is analyzed as
    the product of its ``normalized`` lines when that product fits the
    coefficient cap, and as the product of its given lines otherwise;
    refusal is decided on the given product, so the normalization never
    changes which input is accepted.
    """
    if not isinstance(obj, Arrangement):
        cd = CurveData(obj)
        return cd, cd.f
    given = primitivize(obj.product())
    normal = primitivize(obj.normalized().product())
    if max(coefficient_bits(g.terms.values())
           for g in (given, normal)) <= MAX_COEFF_BITS:
        return CurveData(normal), given
    return CurveData(given), given


def analyze(obj, *, timing: bool = False, name: str | None = None,
            irreducible: bool | None = None) -> CurveReport:
    """Run the whole pipeline on a polynomial or an arrangement."""
    return analyze_full(obj, timing=timing, name=name,
                        irreducible=irreducible)[0]


def analyze_full(obj, *, timing: bool = False, name: str | None = None,
                 irreducible: bool | None = None):
    """Like ``analyze`` but also returns the curve and saturation data,
    so callers can run further checks without recomputing."""
    times: dict = {}

    def clock(label, fn):
        t0 = time.perf_counter()
        out = fn()
        times[label] = time.perf_counter() - t0
        return out

    def read_input():
        # (curve data, given curve, forms, combinatorics), forms None for
        # a polynomial
        cd, given = curve_data(obj)
        if not isinstance(obj, Arrangement):
            return cd, given, None, None
        forms = tuple(str(g) for g in obj.forms)
        combi = combinatorics(obj)
        combi_json = {
            "pointCount": len(combi.points),
            "multiplicities": {str(m): c
                               for m, c in combi.multiplicity_counts.items()},
            "tau": combi.tau,
        }
        return cd, given, forms, combi_json

    cd, given, forms, combi_json = clock("input", read_input)
    is_arrangement = forms is not None
    if is_arrangement and irreducible is None:
        irreducible = False

    def coincidence():
        try:
            return cd.coincidence_threshold()
        except SmoothCurveError:
            return None

    def syzygy_side():
        # AR(f)(-(d - 1)) is position 2 of the S/J_f twists; with
        # mdr = 0 the partials are not minimal and no table is reported
        table = betti_jacobian(sat) if r >= 1 else None
        return table, ar_degrees(table.twists if table
                                 else jacobian_twists(sat))

    tau = clock("jacobian", cd.tjurina)
    r = clock("mdr", cd.mdr)
    ct = clock("ct", coincidence)
    milnor = clock("milnorTable", cd.milnor_dims)
    sat = clock("saturation", lambda: saturate(cd))
    n_gens = clock("nGenerators", lambda: n_min_generators(sat))
    table_sat = clock("resolution", lambda: betti_saturated(sat))
    table_jac, ar_degs = clock("jacobianResolution", syzygy_side)
    cls = clock("classify", lambda: classify(cd, sat))
    verdicts = tuple(clock("verdicts", lambda: verify_identities(
        cd, sat, cls, table_sat, table_jac, ar_degs,
        arrangement=is_arrangement, irreducible=irreducible)))

    report = CurveReport(
        name=name,
        input_kind="arrangement" if is_arrangement else "poly",
        input_poly=str(given),
        input_forms=forms,
        degree=cd.d,
        T=cd.T,
        kmax=cd.kmax,
        mdr=r,
        tau=tau,
        sigma=sat.sigma,
        nu=sat.nu,
        ct=ct,
        milnor_table=tuple(milnor),
        smooth_table=tuple(cd.smooth_dims()),
        n_table=tuple(sat.n_table),
        ar_generator_degrees=tuple(ar_degs),
        n_generator_degrees=tuple(n_gens),
        betti_saturated=table_sat,
        betti_jacobian=table_jac,
        classification=cls,
        verdicts=verdicts,
        combinatorics=combi_json,
        timing=times if timing else None,
    )
    return report, cd, sat


def analyze_catalog(entry_name: str, *, timing: bool = False) -> CurveReport:
    from . import catalog
    e = catalog.entry(entry_name)
    return analyze(catalog.load(entry_name), timing=timing,
                   name=e.name, irreducible=e.irreducible)
