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

The same descent saturates any codimension-two ideal J generated by
three forms of degree e, from the base 3e - 2: the quotient I/J by its
saturation I vanishes above 3e - 3 and is self-dual, n_k = n_(3e-3-k)
(see ``_descend``).  The Jacobian ideal is the case e = d - 1, where
3e - 3 = T.

The minimal generators of I and of N = I/J come from one scan
(``SaturationData.generators``): both counts, and the correction term
e2 of the generator bound, are read off one reduction of the variable
shifts of the previous degree's lifts against the slice of J.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (KmaxExhaustedError, NotCodimensionTwoError,
                     WrongShapeError)
# clear_row is unused here but stays bound: perfbench/spans.py patches
# this module's names
from .exactla import (clear_row, kernel_int, primitive,  # noqa: F401
                      rank_growth, rref_extend, rref_insert)
from .jacobian import CurveData, FormsIdeal, shift_block_vector
from .poly import HomogeneousPoly, primitivize, shift_maps, slice_dim


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


@dataclass(frozen=True)
class GeneratorScan:
    """Minimal generators of the saturation I and of N = I/J."""

    i_degrees: tuple        # generator degrees of I, ascending
    i_gens: tuple           # canonical generator polynomials of I
    n_degrees: tuple        # generator degrees of N, ascending
    e2: int                 # 3 - dim(J_e meet S_1 * I_(e-1))


@dataclass
class SaturationData:
    """Result of saturating a Jacobian (or three-form) ideal J."""

    engine: SaturationEngine
    top: int                # 3e - 3, the largest degree of the table
    n_table: list           # quotient dimensions for degrees 0..top
    sigma: int | None       # least degree with nonzero quotient
    nu: int                 # maximal quotient dimension

    @property
    def kmax(self) -> int:
        """Top degree of the slices of J the data was built on."""
        return self.engine.data.kmax

    def end_degree(self) -> int | None:
        """Largest degree with nonzero quotient, None when the quotient is 0."""
        nz = [k for k, n in enumerate(self.n_table) if n]
        return nz[-1] if nz else None

    def reg_saturated(self) -> int:
        """r_I = reg(S/I): the least k from which dim (S/I)_k keeps its
        value at kmax (0 when I = S).

        I is saturated, so S/I is Cohen-Macaulay of dimension 1 (or zero).
        Its Hilbert function then rises strictly up to the regularity and
        is constant from there on (Eisenbud, The Geometry of Syzygies,
        ch. 4: the first difference is the Hilbert function of an
        Artinian reduction by a nonzerodivisor linear form, whose last
        nonzero degree is the regularity).  Read off slices the engine
        has already built; T - ct is not used, so the regularity verdict
        stays an independent check.
        """
        engine = self.engine

        def h(k):
            return slice_dim(k) - engine.i_dim(k)

        k = self.kmax
        stable = h(k)
        while k > 0 and h(k - 1) == stable:
            k -= 1
        return k

    def reg_jacobian(self) -> int:
        """r_J = reg(S/J) = max(end N, r_I) for the ideal J saturated here.

        N = I/J is the local cohomology H^0_m(S/J) and (S/J)/N = S/I, which
        has depth one, so reg(S/J) is the larger of the top degree of N
        and reg(S/I).
        """
        end = self.end_degree()
        r_i = self.reg_saturated()
        return r_i if end is None else max(end, r_i)

    @cached_property
    def generators(self) -> GeneratorScan:
        """Minimal generators of I and of N = I/J, and e2, in one scan.

        With e the generator degree of J, Sh_k the variable shifts of
        the lifts at degree k - 1 and g_k = rank_growth(RREF(J_k),
        Sh_k):

        - I_(k-1) = J_(k-1) + lifts and J_k = S_1 J_(k-1) for k > e, so
          S_1 I_(k-1) = J_k + Sh_k for k > e and Sh_k for k <= e;
        - mu_N(k) = dim N_k - dim (S_1 I_(k-1) + J_k)/J_k = n_k - g_k;
        - mu_I(k) = mu_N(k) for k != e, and mu_I(e) = dim I_e - rank Sh_e;
        - e2 = 3 - dim(J_e meet S_1 I_(e-1)) = 3 - rank Sh_e + g_e.

        A degree k > e with n_k = 0 has g_k <= n_k = 0 and needs no
        work, nor does k < e with I_k = 0.  The scan stops at
        reg(I) = r_I + 1: generators of I lie in degrees at most
        reg(I), and N/mN = I/(mI + J) is a quotient of I/mI, so those
        of N lie there too.  When e > r_I + 1, S_1 I_(e-1) = I_e
        contains J_e and e2 = 3 - dim J_e.  Explicit generators of I
        are the rows of RREF(I_k), in order, that enlarge RREF(S_1
        I_(k-1)), which is built only where mu_I(k) > 0.
        """
        engine = self.engine
        data = engine.data
        e = data.e
        i_degrees, i_gens, n_degrees = [], [], []
        e2 = 3 - data.rank_at(e)
        for k in range(self.reg_saturated() + 2):
            n_k = engine.n_dim(k)
            if not n_k and k != e:
                continue
            ncols = slice_dim(k)
            jpiv, jrows = data.rref_at(k)
            shifted = [shift_block_vector(vec, var, k - 1, (0,))
                       for vec in engine.extras.get(k - 1, ())
                       for var in range(3)]
            grew = rank_growth(jpiv, jrows, shifted, ncols)
            count = n_k - grew
            n_degrees.extend([k] * count)
            if k == e:
                rank_sh = rank_growth((), (), shifted, ncols)
                e2 = 3 - rank_sh + grew
                count = engine.i_dim(k) - rank_sh
            if not count:
                continue
            if k > e:
                piv, rows = rref_extend(list(jpiv), [list(r) for r in jrows],
                                        shifted, ncols)
            else:
                piv, rows = rref_extend([], [], shifted, ncols)
            picked = 0
            for row in engine.i_rref(k)[1]:
                if rref_insert(piv, rows, list(row), ncols):
                    i_degrees.append(k)
                    i_gens.append(HomogeneousPoly.from_vector(k, row))
                    picked += 1
            if picked != count:
                raise KmaxExhaustedError(
                    "inconsistent generator count for the saturation")
        return GeneratorScan(tuple(i_degrees), tuple(i_gens),
                             tuple(n_degrees), e2)


def _descend(data: FormsIdeal) -> SaturationData:
    """Saturate the ideal J of data's forms of degree e from the base
    max(3e - 2, 0) down, tabulating I/J on degrees 0..3e - 3.

    The bound: let J be of codimension two and N = I/J = H^0_m(S/J).
    Over S = Q[x, y, z], local duality makes (N_k)^* the degree -k - 3
    part of Ext^3(S/J, S).  The Koszul complex of the three forms gives
    a second description: its only homology besides S/J is H_1 ≅
    Ext^2(S/J, S)(-3e), Ext^2(H_1, S) = S/I(3e), and together
    Ext^3(S/J, S) ≅ N(3e).  So n_k = n_(3e-3-k), and n_k = 0 above
    3e - 3 as it is below 0 (Hassanzadeh and Simis, "Plane Cremona
    maps: saturation and regularity of the base ideal", J. Algebra
    2012; for J_f this is the self-duality of N(f) about T).
    """
    e = data.e
    engine = SaturationEngine(data, max(3 * e - 2, 0)).run()
    top = 3 * e - 3
    table = [engine.n_dim(k) for k in range(max(top + 1, 0))]
    nonzero = [k for k, n in enumerate(table) if n]
    sigma = nonzero[0] if nonzero else None
    nu = max(table) if table else 0
    return SaturationData(engine, top, table, sigma, nu)


def saturate(f) -> SaturationData:
    """Saturation data of the Jacobian ideal of a reduced curve."""
    cd = f if isinstance(f, CurveData) else CurveData(f)
    cd.tjurina()  # reject non-reduced input before recursing
    return _descend(cd)


def n_table(f) -> list[int]:
    """Graded dimensions of the Jacobian module N(f), degrees 0..3d-6."""
    sat = f if isinstance(f, SaturationData) else saturate(f)
    return list(sat.n_table)


def n_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of N(f) as a graded S-module
    (see ``SaturationData.generators``)."""
    sat = f if isinstance(f, SaturationData) else saturate(f)
    return list(sat.generators.n_degrees)


def saturate_three_forms(g1, g2, g3) -> SaturationData:
    """Saturate the ideal of three forms of one degree e >= 1 and of
    codimension two, by the descent from 3e - 2 (see ``_descend``).

    The codimension check is exact.  In codimension two the Hilbert
    function of S/J equals its constant Hilbert polynomial from 3e - 2
    on, since end H^0_m(S/J) <= 3e - 3 and end H^1_m(S/J) <= 2e - 3 -
    mdr, mdr the least degree of a relation among the forms: the
    quotient dimensions at 3e - 2, 3e - 1 and 3e are equal and
    positive.  A common factor h of degree c, J = hJ', adds
    dim (S/(h))_k, which grows by c per degree there, to the dimension
    of (S/J')_(k-c), which the same bound keeps constant; an ideal
    primary to the irrelevant ideal gives 0.
    """
    forms = tuple(primitivize(g) for g in (g1, g2, g3))
    degs = {g.degree for g in forms}
    if len(degs) != 1:
        raise WrongShapeError("the three forms must share one degree")
    e = degs.pop()
    if e < 1:
        raise WrongShapeError("constant forms cannot cut out a codim-2 ideal")
    data = FormsIdeal([g.int_vector() for g in forms], (e,) * 3)
    dims = [slice_dim(k) - data.rank_at(k)
            for k in range(3 * e - 2, 3 * e + 1)]
    if dims[-1] == 0:
        raise NotCodimensionTwoError(
            "quotient by the three forms is finite dimensional "
            "(ideal is primary to the irrelevant maximal ideal)")
    if len(set(dims)) != 1:
        raise NotCodimensionTwoError(
            "quotient Hilbert function is still moving at degree 3e: "
            "the forms share a common factor or e is malformed")
    return _descend(data)


@dataclass
class LefschetzData:
    """Multiplication-by-linear-form profile on the Jacobian module."""

    form: tuple             # coefficients (a, b, c) of the linear form used
    ranks: list             # rank of N(f)_s -> N(f)_(s+1) for s in 0..T-1
    expected: list          # min(n_s, n_(s+1)) per step
    pattern_ok: bool
    attempts: int


# sampled linear forms tried before lefschetz_check reports a failure
MAX_ATTEMPTS = 5


def lefschetz_check(f, ell: tuple | None = None,
                    seed: int = 0) -> LefschetzData:
    """Check the generic-multiplication profile on N(f).

    Multiplication by a general linear form ell is expected to have full
    rank min(n_s, n_(s+1)) in every degree (true for nearly free curves;
    informational otherwise).  Without ell, candidate forms have small
    random integer coefficients and are resampled on failure, up to
    MAX_ATTEMPTS of them.
    """
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
        while count < MAX_ATTEMPTS:
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
        result = LefschetzData(form, ranks, expected, ok, attempts)
        if ok:
            return result
        best = result
    return best
