"""Saturation of the Jacobian ideal, slice by slice.

One object, ``SaturationData``, is the saturation I of J: its
constructor runs the descent below, and it then carries the slices of
I, the table of N = I/J, the regularities and the minimal generators.

Below its top degree the saturation I_f of J_f is characterized one
degree at a time: g lies in the degree-k slice exactly when x g, y g and
z g all lie in the degree-(k+1) slice.  For a reduced curve the Jacobian
module N(f) = I_f/J_f lives in degrees at most T = 3d - 6, so the
recursion starts from I_(T+1) = J_(T+1) and walks down to degree zero.
A step multiplies by one linear form l instead of x, y and z: the
candidates g with l g in the degree-(k+1) slice contain the slice, and
a count tells when they are exactly the slice.

Each step works modulo J_k: candidate vectors are drawn from the
monomial complement of J_k (which has small dimension, about tau),
their multiples by l are reduced against the reduced echelon form of
I_(k+1), and the kernel of that small rational matrix, with one row
per monomial outside I_(k+1), gives the new slice as J_k plus a
handful of lift vectors.  The expensive eliminations thus stay on the
small-entry generator columns of J itself, and the lifts span N(f) in
that degree.

The dimensions n_k of N are known before the descent starts: they
follow from the Hilbert function m_k of S/J alone,
n_k = m_k + m_(T-k) - c_k - tau (see ``SaturationData``), with ranks
the slice chain of J has already built.  N lives only in degrees
sigma..T - sigma, so most steps have n_k = 0; those do no work, and
I_k is J_k's cached slice.  Every other step runs the exact
fraction-free kernel of multiplication by l.  That kernel contains the
true one, of dimension n_k, so a kernel of dimension n_k is the true
one; a larger one (l vanishes at a singular point) makes that step
alone take the kernel of x, y and z together, which raises when its
dimension differs from n_k.  So the slice ranks of J and the
saturation kernels check each other on every run.  The form l is
``jacobian.LINEAR_FORM`` and its matrix comes from
``jacobian.colon_rows``, shared with the regularity check that ends the
slice chain of J; the degree that check certifies is an upper bound
for reg(J), and the constructor raises when it lies below the
regularity the saturation gives.

The same descent, one-form steps and fallback included, saturates any
codimension-two ideal J generated by three forms of degree e, from the
base 3e - 2: the quotient I/J by its saturation I vanishes above
3e - 3 and is self-dual, n_k = n_(3e-3-k).  The Jacobian ideal is the
case e = d - 1, where 3e - 3 = T.

The minimal generators of I and of N = I/J come from one scan
(``SaturationData.generators``): the Nakayama walk of
``jacobian.minimal_generators`` over the slices of I.  Those of N are
those of I except at the generator degree e of J, where they and the
correction term e2 of the generator bound take one more rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (KmaxExhaustedError, NotCodimensionTwoError,
                     WrongShapeError)
# clear_row and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import (clear_row, kernel_int, rank_growth,  # noqa: F401
                      rref_extend, rref_insert)
from .jacobian import (LINEAR_FORM, FormsIdeal, _data, colon_rows,
                       complement, minimal_generators, shift_block_vector,
                       smooth_reference_dims)
from .poly import primitivize, slice_dim


@dataclass(frozen=True)
class GeneratorScan:
    """Minimal generators of the saturation I and of N = I/J."""

    module: FormsIdeal      # generated by those of I, canonical rows
    n_degrees: tuple        # generator degrees of N, ascending
    e2: int                 # 3 - dim(J_e meet S_1 * I_(e-1))


class SaturationData:
    """The saturation I of a Jacobian (or three-form) ideal J, slice by
    slice, and the quotient N = I/J."""

    def __init__(self, data: FormsIdeal, tau: int):
        """Saturate the ideal J of data's forms of degree e, of
        codimension two with constant Hilbert polynomial tau, tabulating
        I/J on degrees 0..T, T = 3e - 3; above T, I = J.

        The bound: let N = I/J = H^0_m(S/J).  Over S = Q[x, y, z], local
        duality makes (N_k)^* the degree -k - 3 part of Ext^3(S/J, S).
        The Koszul complex of the three forms gives a second
        description: its only homology besides S/J is H_1 ≅ Ext^2(S/J,
        S)(-3e), Ext^2(H_1, S) = S/I(3e), and together Ext^3(S/J, S) ≅
        N(3e).  So n_k = n_(T-k), and n_k = 0 above T as it is below 0
        (Hassanzadeh and Simis, "Plane Cremona maps: saturation and
        regularity of the base ideal", J. Algebra 2012; for J_f this is
        the self-duality of N(f) about T, see also Sernesi, "The local
        cohomology of the jacobian ring", Doc. Math. 19, 2014).

        The table itself follows from m_k = dim (S/J)_k and the
        coefficients c_k of ((1 - t^e)/(1 - t))^3:

        - the Koszul complex has H_2 = H_3 = 0, so m_k - dim (H_1)_k =
          c_k;
        - by local duality H_1 ≅ Ext^2(S/J, S)(-3e) gives dim (H_1)_k =
          h^1_m(S/J)_(T-k);
        - Grothendieck-Serre gives m_j - tau = n_j - h^1_m(S/J)_j;
        - at j = T - k, with n_(T-k) = n_k: n_k = m_k + m_(T-k) - c_k -
          tau.

        The m_k are ranks the slice chain of J has already built, so the
        descent from I_(T+1) = J_(T+1) steps only where n_k > 0, and
        each such step checks its kernel against n_k.

        A degree m certified by ``FormsIdeal.regular_degree`` bounds
        reg(J) <= m, and the saturation gives reg(J) = r_J + 1
        (``reg_jacobian``); an m below that raises.
        """
        self.data = data                # the FormsIdeal of J
        self.top = top = 3 * data.e - 3     # the largest degree of the table
        m = [slice_dim(k) - data.rank_at(k) for k in range(top + 1)]
        c = smooth_reference_dims(data.e + 1, top)
        # quotient dimensions for degrees 0..top
        self.n_table = table = [m[k] + m[top - k] - c[k] - tau
                                for k in range(top + 1)]
        if any(n < 0 for n in table):
            raise KmaxExhaustedError(
                f"negative quotient dimension predicted: {table}")
        # the lifts that span I_k over J_k, at each k with n_k > 0
        self.extras: dict[int, list[list[int]]] = {}
        self._irref: dict[int, tuple] = {}
        self._shifts: dict[int, list] = {}
        for k in range(top, -1, -1):
            if table[k]:
                self._step(k)
        nonzero = [k for k, n in enumerate(table) if n]
        # the least degree with nonzero quotient, and the largest quotient
        self.sigma = nonzero[0] if nonzero else None
        self.nu = max(table, default=0)
        regular = data.regular_degree()
        if regular is not None and regular[0] <= self.reg_jacobian():
            raise KmaxExhaustedError(
                f"regularity check certified degree {regular[0]}, below "
                f"reg(J) = r_J + 1 = {self.reg_jacobian() + 1}")

    def _step(self, k: int):
        """One degree of the descent, run only where the identity of the
        constructor gives n_k > 0: the steps with n_k = 0 do no work, as
        I_k = J_k there.

        The new lifts are the kernel of g -> LINEAR_FORM * g mod I_(k+1)
        on the complement of J_k.  That kernel contains the true one,
        {g : x g, y g, z g in I_(k+1)}, whose dimension is n_k, so a
        kernel of dimension n_k is the true one; ``kernel_int`` reads
        its canonical basis off the row space, the annihilator of the
        kernel, so the lifts do not depend on the form.  A kernel of
        another dimension (the form passes through a singular point)
        makes this step alone take the kernel of x, y and z together,
        which must have dimension n_k, or the ranks of J and the kernel
        disagree and it raises.  Where I_(k+1) = S_(k+1), I_k = S_k and
        no matrix is built."""
        n_k = self.n_table[k]
        dim_here = slice_dim(k)
        jpiv, jrows = self.data.rref_at(k)
        ipiv, irows = self.i_rref(k + 1)
        comp_here = complement(jpiv, dim_here)
        comp_next = complement(ipiv, slice_dim(k + 1))

        if not comp_next:
            if len(comp_here) != n_k:
                raise _mismatch(k, len(comp_here), n_k)
            self.extras[k] = [_unit(c, dim_here) for c in comp_here]
            self._irref[k] = (list(range(dim_here)),
                              [_unit(c, dim_here) for c in range(dim_here)])
            return

        kern = kernel_int(colon_rows(k, LINEAR_FORM, comp_here, comp_next,
                                     ipiv, irows), len(comp_here))
        if len(kern) != n_k:
            rows = [row for var in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                    for row in colon_rows(k, var, comp_here, comp_next,
                                          ipiv, irows)]
            kern = kernel_int(rows, len(comp_here))
            if len(kern) != n_k:
                raise _mismatch(k, len(kern), n_k)

        extras = []
        for w in kern:
            vec = [0] * dim_here
            for u, c in enumerate(comp_here):
                vec[c] = w[u]
            extras.append(vec)
        self.extras[k] = extras

        self._irref[k] = rref_extend(jpiv, [list(r) for r in jrows], extras,
                                     dim_here)

    @property
    def kmax(self) -> int:
        """Top degree of the slices of J the data was built on."""
        return self.data.kmax

    def i_rref(self, k: int):
        """Canonical RREF of the saturated slice at degree k: the slice
        of J wherever the quotient is zero."""
        got = self._irref.get(k)
        return self.data.rref_at(k) if got is None else got

    def i_dim(self, k: int) -> int:
        return self.data.rank_at(k) + self.n_dim(k)

    def n_dim(self, k: int) -> int:
        """dim of the quotient (saturation / ideal) at degree k."""
        return len(self.extras.get(k, ()))

    def lift_shifts(self, k: int) -> list:
        """The x, y and z shifts of each lift at degree k, cached: the
        generator scan and every sampled form of ``lefschetz_check``
        read them."""
        got = self._shifts.get(k)
        if got is None:
            got = self._shifts[k] = [
                tuple(shift_block_vector(vec, var, k, (0,))
                      for var in range(3))
                for vec in self.extras.get(k, ())]
        return got

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
        nonzero degree is the regularity).  Read off slices the descent
        has already built; T - ct is not used, so the regularity verdict
        stays an independent check.
        """
        def h(k):
            return slice_dim(k) - self.i_dim(k)

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
        """Minimal generators of I and of N = I/J, and e2, in one walk.

        The generators of I are one ``jacobian.minimal_generators`` walk
        over I, block (0,), on degrees 0..r_I + 2: dim_at is ``i_dim``
        and the candidates at k are the rows of RREF(I_k), so each
        generator is a canonical row, picked in order where it enlarges
        S_1 I_(k-1).  The walk stops at reg(I) + 1 = r_I + 2, where it
        only counts: generators of I lie in degrees at most reg(I), so a
        nonzero count there raises.  N/mN = I/(mI + J) is a quotient of
        I/mI, so those of N lie in degrees at most reg(I) too.

        With e the generator degree of J, Sh_e the variable shifts of
        the lifts at degree e - 1 and g_e = rank_growth(RREF(J_e),
        Sh_e):

        - I_(k-1) = J_(k-1) + lifts and J_k = S_1 J_(k-1) for k > e, so
          S_1 I_(k-1) = J_k + Sh_k for k > e and Sh_k for k <= e;
        - so mu_N(k) = n_k - dim(S_1 I_(k-1) + J_k)/J_k = mu_I(k) at
          every k != e, and mu_N(e) = n_e - g_e;
        - J_(e-1) = 0, so rank Sh_e = dim I_e - mu_I(e), and
          e2 = 3 - dim(J_e meet S_1 I_(e-1)) = 3 - rank Sh_e + g_e.

        When e > r_I + 1, S_1 I_(e-1) = I_e contains J_e, e2 = 3 - dim
        J_e, and mu_N(e) = 0.
        """
        data = self.data
        e = data.e
        top = self.reg_saturated() + 2
        degrees, module = minimal_generators(
            (0,), 0, top, self.i_dim, lambda k: self.i_rref(k)[1])
        if top in degrees:
            raise KmaxExhaustedError(
                f"a generator of the saturation in degree {top}, "
                "above reg(I)")
        n_degrees = [k for k in degrees if k != e]
        e2 = 3 - data.rank_at(e)
        if e < top:
            shifted = [vec for trio in self.lift_shifts(e - 1)
                       for vec in trio]
            grew = rank_growth(*data.rref_at(e), shifted, slice_dim(e))
            e2 = 3 - (self.i_dim(e) - degrees.count(e)) + grew
            n_degrees.extend([e] * (self.n_dim(e) - grew))
        return GeneratorScan(module, tuple(sorted(n_degrees)), e2)


def _unit(c: int, dim: int) -> list[int]:
    vec = [0] * dim
    vec[c] = 1
    return vec


def _mismatch(k: int, got: int, predicted: int) -> KmaxExhaustedError:
    return KmaxExhaustedError(
        f"saturation kernel of dimension {got} at degree {k}, "
        f"the Hilbert-function identity gives {predicted}")


def saturate(f) -> SaturationData:
    """Saturation data of the Jacobian ideal of a reduced curve; f
    itself when it already is saturation data."""
    if isinstance(f, SaturationData):
        return f
    cd = _data(f)
    # tjurina rejects non-reduced input
    return SaturationData(cd, cd.tjurina())


def n_table(f) -> list[int]:
    """Graded dimensions of the Jacobian module N(f), degrees 0..3d-6."""
    return list(saturate(f).n_table)


def n_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of N(f) as a graded S-module
    (see ``SaturationData.generators``)."""
    return list(saturate(f).generators.n_degrees)


def saturate_three_forms(g1, g2, g3) -> SaturationData:
    """Saturate the ideal of three forms of one degree e >= 1 and of
    codimension two, by the descent from 3e - 2 (see ``SaturationData``).

    The codimension check is exact, and the constant quotient dimension
    it reads is the tau of ``SaturationData``.  In codimension two the
    Hilbert function of S/J equals its constant Hilbert polynomial from
    3e - 2 on, since end H^0_m(S/J) <= 3e - 3 and end H^1_m(S/J) <=
    2e - 3 - mdr, mdr the least degree of a relation among the forms: the
    quotient dimensions at 3e - 2, 3e - 1 and 3e are equal and positive.
    A common factor h of degree c, J = hJ', adds dim (S/(h))_k, which
    grows by c per degree there, to the dimension of (S/J')_(k-c), which
    the same bound keeps constant; an ideal primary to the irrelevant
    ideal gives 0.  ``regular_degree`` runs first: where it certifies a
    degree, the three dimensions all read its tau (a common factor never
    passes it), and no slice above it plus one is built; where it finds
    the quotient above the complete-intersection bound, the forms share
    a factor, and the call raises with no slice above that degree built.
    """
    forms = tuple(primitivize(g) for g in (g1, g2, g3))
    degs = {g.degree for g in forms}
    if len(degs) != 1:
        raise WrongShapeError("the three forms must share one degree")
    e = degs.pop()
    if e < 1:
        raise WrongShapeError("constant forms cannot cut out a codim-2 ideal")
    data = FormsIdeal([g.int_vector() for g in forms], (e,) * 3)
    data.regular_degree()
    if data._excess is not None:
        raise NotCodimensionTwoError(
            f"quotient dimension at degree {data._excess} exceeds the "
            "complete-intersection bound: the forms share a common factor")
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
    return SaturationData(data, dims[0])


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
    MAX_ATTEMPTS of them.  A given ell must be three integers, not all
    zero, or WrongShapeError is raised.
    """
    if ell is not None and not (isinstance(ell, (tuple, list))
                                and len(ell) == 3 and any(ell)
                                and all(isinstance(v, int) for v in ell)):
        raise WrongShapeError(
            "ell must be a linear form: three integers, not all zero")
    sat = saturate(f)
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
            shifts = sat.lift_shifts(s)
            if not shifts:
                ranks.append(0)
                continue
            piv, rows = sat.data.rref_at(s + 1)
            images = [[form[0] * a + form[1] * b + form[2] * c
                       for a, b, c in zip(x, y, z)]
                      for x, y, z in shifts]
            ranks.append(rank_growth(piv, rows, images, slice_dim(s + 1)))
        expected = [min(table[s], table[s + 1]) for s in steps]
        ok = ranks == expected
        result = LefschetzData(form, ranks, expected, ok, attempts)
        if ok:
            return result
        best = result
    return best
