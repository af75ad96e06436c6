"""Classification of reduced plane curves and conformance verdicts.

The kind is decided from exact invariants only: mdr = 0 means every
singular point is shared (concurrent lines, including a single line),
then the Tjurina number is tested against the free and nearly free
values for r = mdr, then tau = 0 is smooth, everything else is OTHER.
The order matters: a smooth conic satisfies the nearly free count with
exponents (1, 1) and is reported that way on purpose.

Each classification is cross-checked against nu, the largest slice of
the Jacobian module N(f): free forces nu = 0, nearly free nu = 1, OTHER
nu >= 2.  A disagreement means a bug, not bad input, and raises
InconsistentClassificationError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadExponentError, InconsistentClassificationError
# rank_int is unused here but stays bound: perfbench/spans.py patches
# this module's name
from .exactla import rank_int  # noqa: F401
from .jacobian import CurveData
from .resolution import BettiTable, regularity, regularity_total
from .saturation import SaturationData, saturate

SMOOTH = "SMOOTH"
FREE = "FREE"
NEARLY_FREE = "NEARLY_FREE"
OTHER = "OTHER"
CONCURRENT_LINES = "CONCURRENT_LINES"

KINDS = (SMOOTH, FREE, NEARLY_FREE, OTHER, CONCURRENT_LINES)

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class Classification:
    kind: str
    exponents: tuple | None
    tau: int
    mdr: int
    s: int | None = None

    def to_jsonable(self):
        return {
            "kind": self.kind,
            "exponents": list(self.exponents) if self.exponents else None,
            "tau": self.tau,
            "mdr": self.mdr,
            "s": self.s,
        }


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str
    details: dict

    def to_jsonable(self):
        return {"name": self.name, "status": self.status,
                "details": self.details}


def classify(f, sat: SaturationData | None = None) -> Classification:
    """Classify a reduced curve, cross-checking against the N(f) table."""
    cd = f if isinstance(f, CurveData) else CurveData(f)
    tau = cd.tjurina()
    r = cd.mdr()
    d = cd.d
    if r == 0:
        kind = CONCURRENT_LINES
        exponents = (0, d - 1)
    elif tau == (d - 1) ** 2 - r * (d - 1 - r):
        kind = FREE
        exponents = (r, d - 1 - r)
    elif tau == (d - 1) ** 2 - r * (d - 1 - r) - 1:
        kind = NEARLY_FREE
        exponents = (r, d - r)
    elif tau == 0:
        kind = SMOOTH
        exponents = None
    else:
        kind = OTHER
        exponents = None
    s = None
    if kind != SMOOTH:
        if sat is None:
            sat = saturate(cd)
        nu = sat.nu
        if kind in (FREE, CONCURRENT_LINES) and nu != 0:
            raise InconsistentClassificationError(
                f"classified {kind} but nu = {nu}, expected 0")
        if kind == NEARLY_FREE and nu != 1:
            raise InconsistentClassificationError(
                f"classified NEARLY_FREE but nu = {nu}, expected 1")
        if kind == OTHER and nu < 2:
            raise InconsistentClassificationError(
                f"classified OTHER but nu = {nu}, expected >= 2")
        if tau > 0 and sat.sigma is not None:
            s = sat.sigma - (d - 2)
    return Classification(kind, exponents, tau, r, s)


def predicted_resolution_nearly_free(d: int, d1: int) -> BettiTable:
    """Predicted Betti table of S/I_f for a nearly free curve with
    exponents (d1, d - d1): two generators when d1 = 1, four otherwise."""
    if d < 3 or d1 < 1 or 2 * d1 > d:
        raise BadExponentError(
            f"need d >= 3 and 1 <= d1 <= d/2, got d={d}, d1={d1}")
    sigma = d + d1 - 3
    if d1 == 1:
        return BettiTable(((d - 2, d - 1), (2 * d - 3,)))
    return BettiTable((
        (d - 1, d - 1, d - 1, sigma),
        (sigma + 1, sigma + 1, 2 * d - 2 - d1),
    ))


def verify_identities(cd: CurveData, sat: SaturationData,
                       cls: Classification, table_sat: BettiTable,
                       table_jac: BettiTable | None, *,
                       arrangement: bool = False,
                       irreducible: bool | None = None) -> list:
    """Check every structural statement that applies to this curve.

    Returns one Verdict per statement: PASS or FAIL when the hypotheses
    hold, NOT_APPLICABLE otherwise, always with enough detail to audit
    the comparison.
    """
    d = cd.d
    tau = cls.tau
    r = cls.mdr
    singular = tau > 0
    n_table = list(sat.n_table)
    n_low = n_table[d - 2] if 0 <= d - 2 < len(n_table) else 0
    # syzygy generator count, from the certified table when there is
    # one, else scanned up to r_J - d + 3 (see betti_jacobian)
    if table_jac is not None:
        mu_ar = len(table_jac.twists[1])
    else:
        mu_ar = len(cd.ar_min_generators(sat.reg_jacobian() - d + 3)[0])
    verdicts = []

    def add(name, applicable, ok=None, **details):
        if not applicable:
            verdicts.append(Verdict(name, NOT_APPLICABLE, details))
        else:
            verdicts.append(Verdict(name, PASS if ok else FAIL, details))

    # Predicted two- or four-generator resolution of the saturation.
    if cls.kind == NEARLY_FREE and d >= 3:
        predicted = predicted_resolution_nearly_free(d, cls.exponents[0])
        add("predicted-saturated-resolution", True,
            table_sat.twists == predicted.twists,
            computed=table_sat.to_jsonable(),
            predicted=predicted.to_jsonable())
    else:
        add("predicted-saturated-resolution", False)

    # Initial degree of N(f) for a nearly free curve.
    if cls.kind == NEARLY_FREE:
        add("sigma-formula", True, sat.sigma == d + cls.exponents[0] - 3,
            sigma=sat.sigma, expected=d + cls.exponents[0] - 3)
    else:
        add("sigma-formula", False)

    # Free curves: the saturation is the Jacobian ideal itself.
    if cls.kind == FREE:
        d1, d2 = cls.exponents
        expected = ((d - 1,) * 3, tuple(sorted((d - 1 + d1, d - 1 + d2))))
        add("free-resolution-shape", True, table_sat.twists == expected,
            computed=table_sat.to_jsonable(),
            predicted=[list(t) for t in expected])
    elif cls.kind == CONCURRENT_LINES and d >= 2:
        expected = ((d - 1, d - 1), (2 * d - 2,))
        add("free-resolution-shape", True, table_sat.twists == expected,
            computed=table_sat.to_jsonable(),
            predicted=[list(t) for t in expected])
    else:
        add("free-resolution-shape", False)

    # Regularity of S/I_f for a nearly free curve: 2d - 4 - d1.
    if cls.kind == NEARLY_FREE and singular and d >= 3:
        reg = regularity(table_sat)
        add("nearly-free-regularity", True,
            reg == 2 * d - 4 - cls.exponents[0],
            regularity=reg, expected=2 * d - 4 - cls.exponents[0])
    else:
        add("nearly-free-regularity", False)

    # Regularity of S/I_f against the coincidence threshold.
    if singular:
        reg = regularity(table_sat)
        expected = cd.T - cd.coincidence_threshold()
        add("regularity-equals-T-minus-ct", True, reg == expected,
            regularity=reg, expected=expected)
    else:
        add("regularity-equals-T-minus-ct", False)

    # Regularity of M(f) from the initial degree of N(f), valid when
    # the defect vanishes in degree d-2.
    if (singular and sat.sigma is not None and n_low == 0
            and table_jac is not None):
        reg = regularity_total(table_jac)
        add("regularity-from-initial-degree", True,
            reg == 3 * d - 6 - sat.sigma,
            regularity=reg, expected=3 * d - 6 - sat.sigma)
    else:
        add("regularity-from-initial-degree", False)

    # Syzygy generator count bound under the same vanishing.
    if singular and r >= 1 and n_low == 0:
        add("syzygy-generator-count-bound", True, mu_ar <= d - 1,
            mu_ar=mu_ar, bound=d - 1)
    else:
        add("syzygy-generator-count-bound", False)

    # Line arrangements always satisfy the same bound.
    if arrangement and d >= 3:
        add("arrangement-syzygy-generator-bound", True, mu_ar <= d - 1,
            mu_ar=mu_ar, bound=d - 1)
    else:
        add("arrangement-syzygy-generator-bound", False)

    # Generator count of the saturation between 2 and the syzygy bound.
    if singular and r >= 1:
        mu_i = len(table_sat.position(1))
        # 3 - dim(J_(d-1) meet S_1 * I_(d-2)), from the generator scan
        e2 = sat.generators.e2
        add("saturation-generator-upper-bound", True,
            2 <= mu_i <= e2 + mu_ar - 2,
            mu_i=mu_i, bound=e2 + mu_ar - 2, e2=e2, mu_ar=mu_ar)
    else:
        add("saturation-generator-upper-bound", False)

    # Exact generator count: 3 for free curves, 2 or 4 for nearly free
    # ones depending on d1 = 1 or not.
    if singular and d >= 3 and cls.kind in (FREE, NEARLY_FREE):
        if cls.kind == FREE:
            expected = 3
        elif cls.exponents[0] == 1:
            expected = 2
        else:
            expected = 4
        mu_i = len(table_sat.position(1))
        add("saturation-generator-count", True, mu_i == expected,
            mu_i=mu_i, expected=expected, kind=cls.kind)
    else:
        add("saturation-generator-count", False)

    # Irreducible curves with mdr = 1 are nearly free.
    if irreducible and r == 1:
        add("mdr-one-nearly-free", True, cls.kind == NEARLY_FREE,
            kind=cls.kind)
    else:
        add("mdr-one-nearly-free", False)

    # n_{d-2} = 0 exactly when the Milnor algebra reaches tau at 2d-4.
    if singular and d >= 2:
        left = n_low == 0
        right = cd.milnor_dim(2 * d - 4) == tau
        add("module-vanishing-equivalence", True, left == right,
            n_low=n_low, milnor_at_2d_minus_4=cd.milnor_dim(2 * d - 4),
            tau=tau)
    else:
        add("module-vanishing-equivalence", False)

    return verdicts
