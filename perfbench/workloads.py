"""Seeded workloads and the correctness checks for their reports.

Each workload turns a seed into a list of ``Curve`` inputs (text in the
grammar the command line accepts) and checks every report against facts
that do not come from the elimination engine: the point-multiplicity
formula for arrangements, the closed forms of the nearly free binomial
family, the Koszul complex of a smooth curve, and published Betti
tables.  Why each workload exists is recorded in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# Published Betti tables of the Ziegler pair (same intersection lattice,
# different resolutions), as in the acceptance gate's first criterion.
ZIEGLER = {
    "ziegler-A": (
        ("x", "y", "x - y - z", "x - y + z", "2*x + y - 2*z",
         "x + 3*y - 3*z", "3*x + 2*y + 3*z", "x + 5*y + 5*z",
         "7*x - 4*y - z"),
        {"jacobian": ((8, 8, 8), (13, 14, 14, 14), (15, 16)),
         "saturated": ((8, 8, 8, 8, 9), (10, 10, 10, 11))},
    ),
    "ziegler-Aprime": (
        ("x", "y", "x + y - z", "5*x + 2*y - 10*z", "3*x + 2*y - 6*z",
         "x - 3*y + 15*z", "2*x - y + 10*z", "6*x + 5*y + 30*z",
         "3*x - 4*y - 24*z"),
        {"jacobian": ((8, 8, 8), (14, 14, 14, 14, 14, 14), (15, 15, 15, 15)),
         "saturated": ((8, 8, 8, 9, 9, 9, 9), (10, 10, 10, 10, 10, 10))},
    ),
}

# Sizes are fixed so that a new seed changes the inputs but hardly the
# amount of work (times in reference seconds, see run.py, measured on a
# 2-core x86-64 VM, Python 3.11, pure-Python backend):
# - random arrangements have a fixed line count, lines in general
#   position (so the intersection lattice never changes) and no zero
#   coefficient.  Over 30 generic 6-line arrangements with zeros allowed
#   the count of zero coefficients correlated with the time at -0.79.
#   Seven lines with nonzero coefficients in [-3, 3] take 2.3 s each
#   with a coefficient of variation of 17 % (30 draws); with [-5, 5]
#   3.7 s and 20 %; an 8-line one takes 7 to 14 s.  Six of them, so
#   that a pass fits twice into a 30 s run;
# - dense forms have every monomial with a nonzero coefficient, degree
#   6, not 7: about 2.1 s each with a variation of 10 % (40 draws),
#   against 6 to 10 s for degree 7.  Eight of them, about two passes.
# The Ziegler pair (about 13 and 23 s) is analyzed and checked in traced
# runs only; in every untraced pass it would leave room for one pass.
RANDOM_LINES = 7
RANDOM_ARRANGEMENTS = 6
BINOMIAL_DEGREES = range(7, 11)
LEFSCHETZ_SAMPLES = 3     # as the property suite draws for nearly free curves
DENSE_DEGREE = 6
DENSE_CURVES = 8


@dataclass(frozen=True)
class Curve:
    name: str
    kind: str             # "poly" or "arrangement"
    text: str
    irreducible: bool | None = None
    lefschetz_seeds: tuple = ()
    expect: dict | None = None


# -- input generation --------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    # a string seed hashes the same way in every process
    return random.Random(f"{workload}:{seed}")


def form_text(row) -> str:
    """Linear form a*x + b*y + c*z in the input grammar."""
    text = ""
    for coef, var in zip(row, "xyz"):
        if not coef:
            continue
        mag = "" if abs(coef) == 1 else f"{abs(coef)}*"
        if not text:
            text = ("-" if coef < 0 else "") + mag + var
        else:
            text += (" - " if coef < 0 else " + ") + mag + var
    return text


def _primitive_point(p):
    g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
    p = [v // g for v in p]
    if next(v for v in p if v) < 0:
        p = [-v for v in p]
    return tuple(p)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def arrangement_tau(rows) -> int:
    """Total Tjurina number of a line arrangement from its intersection
    points: the sum of (m - 1)^2 over points of multiplicity m."""
    lines_at = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            p = _primitive_point(_cross(rows[i], rows[j]))
            lines_at.setdefault(p, set()).update((i, j))
    return sum((len(s) - 1) ** 2 for s in lines_at.values())


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _generic_lines(rng: random.Random, count: int) -> list:
    """Lines with nonzero coefficients in [-3, 3], no two proportional
    and no three through one point."""
    while True:
        rows = []
        while len(rows) < count:
            cand = tuple(_nonzero(rng, 3) for _ in range(3))
            if all(any(_cross(cand, old)) for old in rows):
                rows.append(cand)
        if arrangement_tau(rows) == count * (count - 1) // 2:
            return rows


def ziegler_pair() -> list:
    return [Curve(name, "arrangement", "\n".join(lines) + "\n",
                  expect={"tables": tables})
            for name, (lines, tables) in ZIEGLER.items()]


def arrangements(seed: int) -> list:
    curves = []
    rng = _rng("arrangements", seed)
    for i in range(RANDOM_ARRANGEMENTS):
        rows = _generic_lines(rng, RANDOM_LINES)
        text = "\n".join(form_text(r) for r in rows) + "\n"
        curves.append(Curve(f"lines{RANDOM_LINES}-{i}", "arrangement", text,
                            expect={"tau": arrangement_tau(rows)}))
    return curves


def binomials(seed: int) -> list:
    rng = _rng("binomials", seed)
    curves = []
    # degrees interleaved, so the curves that set the median per-curve
    # time (d = 9) run spread over the whole pass, not in one stretch of
    # about two seconds whose machine noise would decide the median alone
    pairs = [(d, k) for k in range(1, max(BINOMIAL_DEGREES))
             for d in BINOMIAL_DEGREES if k < d]
    for d, k in pairs:
        a, b = _nonzero(rng, 3), _nonzero(rng, 3)
        sign = "-" if b < 0 else "+"
        text = f"{a}*y^{d} {sign} {abs(b)}*x^{k}*z^{d - k}"
        seeds = tuple(rng.randrange(10 ** 6)
                      for _ in range(LEFSCHETZ_SAMPLES))
        # irreducible exactly when gcd(d, k) = 1; unknown otherwise
        curves.append(Curve(f"nf-d{d}-k{k}", "poly", text,
                            irreducible=True if gcd(d, k) == 1 else None,
                            lefschetz_seeds=seeds,
                            expect={"d": d}))
    return curves


def dense_smooth(seed: int) -> list:
    rng = _rng("dense-smooth", seed)
    d = DENSE_DEGREE
    curves = []
    for i in range(DENSE_CURVES):
        terms = []
        for a in range(d, -1, -1):
            for b in range(d - a, -1, -1):
                c = _nonzero(rng, 3)
                terms.append(f"{c}*x^{a}*y^{b}*z^{d - a - b}")
        curves.append(Curve(f"dense{d}-{i}", "poly", " + ".join(terms),
                            expect={"d": d}))
    return curves


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return value


def recorded_curves(result: dict) -> list:
    """The curves a run recorded in its result file, as generated."""
    return [Curve(**_tuples(c)) for c in result["inputs"]]


# -- correctness checks ------------------------------------------------
# Each returns a list of problems; an empty list means the report is
# right.  ``report`` is the program's CurveReport, ``samples`` its
# LefschetzData results.


def smooth_milnor(d: int, kmax: int) -> list:
    """Hilbert function of S/(regular sequence of three degree-(d-1)
    forms): coefficients of (1 + t + ... + t^(d-2))^3."""
    out = [0] * (kmax + 1)
    for i in range(d - 1):
        for j in range(d - 1):
            for k in range(d - 1):
                if i + j + k <= kmax:
                    out[i + j + k] += 1
    return out


def _verdicts(report) -> list:
    return [f"verdict {v.name} {v.status}" for v in report.verdicts
            if v.status == "FAIL"]


def check_arrangement(curve: Curve, report, samples) -> list:
    problems = _verdicts(report)
    tables = curve.expect.get("tables")
    if tables is not None:
        if report.betti_jacobian is None or \
                report.betti_jacobian.twists != tables["jacobian"]:
            problems.append(f"S/J table {report.betti_jacobian}")
        if report.betti_saturated.twists != tables["saturated"]:
            problems.append(f"S/I table {report.betti_saturated.twists}")
    else:
        want = curve.expect["tau"]
        if report.tau != want:
            problems.append(f"tau {report.tau}, points give {want}")
    return problems


def check_binomial(curve: Curve, report, samples) -> list:
    d = curve.expect["d"]
    problems = _verdicts(report)
    cls = report.classification
    want_n = [1 if d - 2 <= j <= 2 * d - 4 else 0
              for j in range(len(report.n_table))]
    for label, got, want in (
            ("kind", cls.kind, "NEARLY_FREE"),
            ("exponents", cls.exponents, (1, d - 1)),
            ("mdr", report.mdr, 1),
            ("tau", report.tau, (d - 1) * (d - 2)),
            ("n table", list(report.n_table), want_n),
            ("S/I table", report.betti_saturated.twists,
             ((d - 2, d - 1), (2 * d - 3,)))):
        if got != want:
            problems.append(f"{label} {got}, expected {want}")
    bad = [s.form for s in samples if not s.pattern_ok]
    if bad or len(samples) != len(curve.lefschetz_seeds):
        problems.append(f"Lefschetz pattern fails for forms {bad}")
    return problems


def check_dense(curve: Curve, report, samples) -> list:
    d = curve.expect["d"]
    problems = _verdicts(report)
    # A form with seeded coefficients is smooth with overwhelming
    # probability; every seed in use is, so a singular verdict is wrong.
    for label, got, want in (("kind", report.classification.kind, "SMOOTH"),
                             ("tau", report.tau, 0)):
        if got != want:
            problems.append(f"{label} {got}, expected {want}")
    want = smooth_milnor(d, report.kmax)
    if list(report.milnor_table) != want:
        problems.append(f"Milnor table {list(report.milnor_table)}")
    koszul = ((d - 1,) * 3, (2 * d - 2,) * 3, (3 * d - 3,))
    if report.betti_jacobian is None or \
            report.betti_jacobian.twists != koszul:
        problems.append(f"S/J table {report.betti_jacobian}, "
                        f"expected Koszul {koszul}")
    return problems


def no_curves() -> list:
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    check: object
    # curves analyzed only in traced runs, after the generated ones
    traced_extra: object = no_curves


WORKLOADS = {
    w.name: w for w in (
        Workload("arrangements", arrangements, check_arrangement,
                 ziegler_pair),
        Workload("binomials", binomials, check_binomial),
        Workload("dense-smooth", dense_smooth, check_dense),
    )
}
