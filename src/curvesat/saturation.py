"""Saturation of the Jacobian ideal, slice by slice.

Below its top degree the saturation I_f of J_f is characterized one
degree at a time: g lies in the degree-k slice exactly when x g, y g and
z g all lie in the degree-(k+1) slice.  For a reduced curve the Jacobian
module N(f) = I_f/J_f lives in degrees at most T = 3d - 6, so the
recursion starts from I_(T+1) = J_(T+1) and walks down to degree zero.

Each step works modulo J_k: candidate vectors are drawn from the
monomial complement of J_k (which has small dimension, about tau), their
variable shifts are reduced against the reduced echelon form of I_(k+1),
and the kernel of that small rational matrix gives the new slice as
J_k plus a handful of lift vectors.  The expensive eliminations thus
stay on the small-entry generator columns of J itself, and the module
N(f) is read off as the lift count per degree.

The same engine saturates any codimension-two ideal generated by three
equal-degree forms; there the starting degree is not known a priori, so
it starts at 3(e+1) - 5, demands a window of two vanishing quotient
dimensions right below the start, and retries from the degree cap
before giving up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .errors import (BaseWindowNotFoundError, NotCodimensionTwoError,
                     WrongShapeError)
# clear_row and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import (clear_row, kernel_int, primitive,  # noqa: F401
                      rank_growth, rref_extend, rref_insert)
from .jacobian import CurveData, FormsIdeal, shift_block_vector
from .poly import primitivize, shift_maps, slice_dim


class SaturationEngine:
    """Runs the descending recursion against a FormsIdeal's slices."""

    def __init__(self, data: FormsIdeal, base: int):
        self.data = data
        self.base = base
        self.extras: dict[int, list[list[int]]] = {}
        self._irref: dict[int, tuple] = {}

    def i_rref(self, k: int):
        """Canonical RREF of the saturated slice at degree k."""
        if k >= self.base:
            return self.data.rref_at(k)
        return self._irref[k]

    def i_dim(self, k: int) -> int:
        if k < 0:
            return 0
        if k >= self.base:
            return self.data.rank_at(k)
        return len(self._irref[k][0])

    def n_dim(self, k: int) -> int:
        """dim of the quotient (saturation / ideal) at degree k."""
        if k < 0 or k >= self.base:
            return 0
        return len(self.extras[k])

    def run(self):
        for k in range(self.base - 1, -1, -1):
            self._step(k)
        return self

    def _step(self, k: int):
        dim_here = slice_dim(k)
        dim_next = slice_dim(k + 1)
        jpiv, jrows = self.data.rref_at(k)
        ipiv, irows = self.i_rref(k + 1)

        # positions of the complement monomials on both levels
        pivset = set(jpiv)
        comp_here = [c for c in range(dim_here) if c not in pivset]
        ipivset = set(ipiv)
        comp_next = [c for c in range(dim_next) if c not in ipivset]
        piv_index = {c: i for i, c in enumerate(ipiv)}

        # matrix of (x,y,z)-multiplication from the J_k complement into
        # the quotient by I_(k+1); its kernel lifts to the new slice
        # (the entry at a target monomial that is a pivot of I_(k+1) is
        # -irows[i][npc] / irows[i][ipiv[i]]; each row is scaled to
        # integers by the lcm of the pivot entries it touches)
        shifts = shift_maps(k)
        rows = []
        for var in range(3):
            sh = shifts[var]
            targets = [sh[t0] for t0 in comp_here]
            at_pivot = [(u, piv_index[t]) for u, t in enumerate(targets)
                        if t in piv_index]
            for npc in comp_next:
                hits = [(u, irows[i][npc], irows[i][ipiv[i]])
                        for u, i in at_pivot if irows[i][npc]]
                scale = lcm(*(a for _, _, a in hits))
                row = [scale if t == npc else 0 for t in targets]
                for u, b, a in hits:
                    row[u] = -b * (scale // a)
                rows.append(primitive(row))
        kern = kernel_int(rows, len(comp_here))

        extras = []
        for w in kern:
            vec = [0] * dim_here
            for u, c in enumerate(comp_here):
                vec[c] = w[u]
            extras.append(vec)
        self.extras[k] = extras

        self._irref[k] = rref_extend(jpiv, [list(r) for r in jrows], extras,
                                     dim_here)


@dataclass
class SaturationData:
    """Result of saturating a Jacobian (or three-form) ideal."""

    forms: tuple            # the ideal generators
    degree: int             # degree d of the curve, or e+1 for raw forms
    top: int                # largest degree of the quotient table
    kmax: int
    n_table: list           # quotient dimensions for degrees 0..top
    sigma: int | None       # least degree with nonzero quotient
    nu: int                 # maximal quotient dimension
    engine: SaturationEngine

    def end_degree(self) -> int | None:
        """Largest degree with nonzero quotient, None when the quotient is 0."""
        nz = [k for k, n in enumerate(self.n_table) if n]
        return nz[-1] if nz else None


def _wrap(engine: SaturationEngine, forms, degree: int, top: int,
          kmax: int) -> SaturationData:
    table = [engine.n_dim(k) for k in range(max(top + 1, 0))]
    nonzero = [k for k, n in enumerate(table) if n]
    sigma = nonzero[0] if nonzero else None
    nu = max(table) if table else 0
    return SaturationData(forms, degree, top, kmax, table, sigma, nu, engine)


def saturate(f, kmax: int | None = None) -> SaturationData:
    """Saturation data of the Jacobian ideal of a reduced curve."""
    cd = f if isinstance(f, CurveData) else CurveData(f, kmax)
    cd.tjurina()  # reject non-reduced input before recursing
    base = max(cd.T + 1, 0)
    engine = SaturationEngine(cd, base).run()
    return _wrap(engine, cd.gens, cd.d, cd.T, cd.kmax)


def n_table(f) -> list[int]:
    """Graded dimensions of the Jacobian module N(f), degrees 0..3d-6."""
    sat = f if isinstance(f, SaturationData) else saturate(f)
    return list(sat.n_table)


def n_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of N(f) as a graded S-module.

    Degree-k generators are counted by how much of the new slice is not
    reached by J_k plus one variable shift of the previous slice.
    """
    sat = f if isinstance(f, SaturationData) else saturate(f)
    engine = sat.engine
    degrees = []
    for k, n_k in enumerate(sat.n_table):
        if not n_k:
            continue
        piv, rows = engine.data.rref_at(k)
        shifted = [shift_block_vector(vec, var, k - 1, (0,))
                   for vec in engine.extras.get(k - 1, ())
                   for var in range(3)]
        grew = rank_growth(piv, rows, shifted, slice_dim(k))
        degrees.extend([k] * (n_k - grew))
    return degrees


def saturate_three_forms(g1, g2, g3, kmax: int | None = None) -> SaturationData:
    """Saturate the ideal of three equal-degree forms of codimension two.

    The quotient Hilbert function must stabilize at a positive constant
    (codimension two); a zero tail means the ideal is primary to the
    irrelevant ideal and a growing tail means a common factor.  The
    recursion base 3(e+1) - 5 is validated by requiring the two quotient
    dimensions right below it to vanish; on failure the base is retried
    at kmax.
    """
    forms = tuple(primitivize(g) for g in (g1, g2, g3))
    degs = {g.degree for g in forms}
    if len(degs) != 1:
        raise WrongShapeError("the three forms must share one degree")
    e = degs.pop()
    if e < 1:
        raise WrongShapeError("constant forms cannot cut out a codim-2 ideal")
    if kmax is None:
        kmax = 3 * e + 2
    data = FormsIdeal(forms, kmax)

    probe = 3 * e
    dims = [slice_dim(k) - data.rank_at(k) for k in range(probe + 1)]
    if dims[probe] == 0:
        raise NotCodimensionTwoError(
            "quotient by the three forms is finite dimensional "
            "(ideal is primary to the irrelevant maximal ideal)")
    if dims[probe] != dims[probe - 1] or dims[probe] != dims[probe - 2]:
        raise NotCodimensionTwoError(
            "quotient Hilbert function is still moving at degree 3e: "
            "the forms share a common factor or e is malformed")

    base = 3 * (e + 1) - 5
    for attempt_base in (base, kmax):
        engine = SaturationEngine(data, attempt_base).run()
        ok = all(engine.n_dim(k) == 0
                 for k in (attempt_base - 1, attempt_base - 2) if k >= 0)
        if ok:
            return _wrap(engine, forms, e + 1, attempt_base - 1, kmax)
    raise BaseWindowNotFoundError(
        "no vanishing window below the recursion base; "
        "raise kmax and retry")


@dataclass
class LefschetzData:
    """Multiplication-by-linear-form profile on the Jacobian module."""

    form: tuple             # coefficients (a, b, c) of the linear form used
    ranks: list             # rank of N(f)_s -> N(f)_(s+1) for s in 0..T-1
    expected: list          # min(n_s, n_(s+1)) per step
    pattern_ok: bool
    attempts: int
    genericity_failed: bool


def lefschetz_check(f, ell: tuple | None = None, max_attempts: int = 5,
                    seed: int = 0) -> LefschetzData:
    """Check the generic-multiplication profile on N(f).

    Multiplication by a general linear form ell is expected to have full
    rank min(n_s, n_(s+1)) in every degree (true for nearly free curves;
    informational otherwise).  Candidate forms have small random integer
    coefficients and are resampled on failure, up to max_attempts, which
    must then be at least 1.
    """
    if ell is None and max_attempts < 1:
        raise WrongShapeError(
            f"max_attempts must be at least 1, got {max_attempts}")
    sat = f if isinstance(f, SaturationData) else saturate(f)
    engine = sat.engine
    table = sat.n_table
    steps = range(len(table) - 1)
    rng = random.Random(seed)

    def candidates():
        if ell is not None:
            yield tuple(ell)
            return
        count = 0
        while count < max_attempts:
            cand = tuple(rng.randint(-5, 5) for _ in range(3))
            if any(cand):
                count += 1
                yield cand

    attempts = 0
    best = None
    for form in candidates():
        attempts += 1
        ranks = []
        for s in steps:
            piv, rows = engine.data.rref_at(s + 1)
            images = []
            for vec in engine.extras.get(s, ()):
                shifted = [0] * slice_dim(s + 1)
                for var in range(3):
                    c = form[var]
                    if c:
                        sh = shift_maps(s)[var]
                        for i, v in enumerate(vec):
                            if v:
                                shifted[sh[i]] += c * v
                images.append(shifted)
            ranks.append(rank_growth(piv, rows, images, slice_dim(s + 1)))
        expected = [min(table[s], table[s + 1]) for s in steps]
        ok = ranks == expected
        result = LefschetzData(form, ranks, expected, ok, attempts, not ok)
        if ok:
            return result
        best = result
    return best
