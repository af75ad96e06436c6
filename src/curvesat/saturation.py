"""Saturation of the Jacobian ideal, slice by slice.

One object, ``SaturationData``, is the saturation I of J: its
constructor runs the descent below, and it then carries I as the
slices of J plus a few lift vectors per degree, the table of N = I/J,
the regularities and the minimal generators.

Below its top degree the saturation I_f of J_f is characterized one
degree at a time: g lies in the degree-k slice exactly when x g, y g and
z g all lie in the degree-(k+1) slice.  For a reduced curve the Jacobian
module N(f) = I_f/J_f lives in degrees at most T = 3d - 6, so the
recursion starts from I_(T+1) = J_(T+1) and walks down to degree zero.
A step multiplies by one linear form l instead of x, y and z: the
candidates g with l g in the degree-(k+1) slice contain the slice, and
a count tells when they are exactly the slice.

Each step reads only slices of J and the lifts: candidate vectors are
drawn from the monomial complement of J_k (which has small dimension,
about tau), their multiples by l are reduced against the canonical
reduced echelon form of J_(k+1), and the lifts at k + 1 are projected
out at their markers (each lift's last nonzero column, zero in every
other lift), which leaves one row per monomial outside I_(k+1).  The
kernel of that small integer matrix gives the new slice as J_k plus a
handful of lift vectors.  The expensive eliminations thus stay on the
small-entry generator columns of J itself, the lifts span N(f) in that
degree, and no slice of I is built: ``SaturationData.i_rref`` builds
one on each read and keeps none, for the public generator walk and the
suite's checks only.

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
dimension differs from n_k.  That check compares the slice ranks of
J with the kernels, but it does not see every wrong lift: where
multiplication by l maps (S/J)_k onto (S/J)_(k+1), any n_(k+1) lifts
at k + 1 give a one-form kernel of dimension n_k, so a wrong one
passes step k.  The suite's ``saturation-oracle``, which multiplies
the lifts out, is the check that sees it.  The form l is
``jacobian.LINEAR_FORM`` and its matrix comes from
``jacobian.colon_rows``, shared with the regularity check that ends the
slice chain of J; the degree that check certifies is an upper bound
for reg(J), and the constructor raises when it lies below the
regularity the saturation gives.  Each matrix is eliminated once: a
step with no lift above it (the top step) has the matrix of the check
at k + 1 and reads the kernel the check took
(``FormsIdeal.h_kernel``).

The same descent, one-form steps and fallback included, saturates any
codimension-two ideal J generated by three forms of degree e, from the
base 3e - 2: the quotient I/J by its saturation I vanishes above
3e - 3 and is self-dual, n_k = n_(3e-3-k).  The Jacobian ideal is the
case e = d - 1, where 3e - 3 = T.  Both read tau, and the check that J
has codimension two, from ``jacobian.FormsIdeal.tau``.

The generator degrees of I and of N = I/J are counted, not picked
(``SaturationData.generators``): above the generator degree e of J,
S_1 I_(k-1) is J_k plus the x, y and z shifts of the lifts at degree
k - 1, so the count at k is n_k less the rank those shifts add to J_k,
read at one marker column per lift (``SaturationData.marked_shifts``,
which the Lefschetz check reads too); at e, where J_(e-1) = 0, it is
dim I_e less their rank.  Those of N are those of I except at e, where
they and the correction term e2 of the generator bound take the rank
the shifts add to J_e.  The generators themselves, the Nakayama walk of
``jacobian.minimal_generators`` over the slices of I, are built on
first use (``SaturationData.generator_module``) for the public
``resolution.min_generators``; no analysis reads them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (KmaxExhaustedError, NotCodimensionTwoError,
                     WrongShapeError)
# clear_row and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import (clear_row, kernel_int, rank_int,  # noqa: F401
                      rref_extend, rref_insert)
from .jacobian import (LINEAR_FORM, FormsIdeal, _data, colon_rows,
                       complement, marker, minimal_generators,
                       shift_block_vector, smooth_reference_dims)
from .poly import primitivize, slice_dim


@dataclass(frozen=True)
class GeneratorScan:
    """Minimal generator degrees of the saturation I and of N = I/J."""

    degrees: tuple          # generator degrees of I, ascending
    n_degrees: tuple        # generator degrees of N, ascending
    e2: int                 # 3 - dim(J_e meet S_1 * I_(e-1))


class SaturationData:
    """The saturation I of a Jacobian (or three-form) ideal J, slice by
    slice, and the quotient N = I/J."""

    def __init__(self, data: FormsIdeal):
        """Saturate the ideal J of data's forms of degree e, of
        codimension two with Hilbert polynomial tau = ``data.tau()``,
        tabulating I/J on degrees 0..T, T = 3e - 3; above T, I = J.

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
        # first, so that the slice chain stops where tau certifies it
        tau = data.tau()
        m = [data.milnor_dim(k) for k in range(top + 1)]
        c = smooth_reference_dims(data.e + 1, top)
        # quotient dimensions for degrees 0..top
        self.n_table = table = [m[k] + m[top - k] - c[k] - tau
                                for k in range(top + 1)]
        if any(n < 0 for n in table):
            raise KmaxExhaustedError(
                f"negative quotient dimension predicted: {table}")
        # the lifts that span I_k over J_k, at each k with n_k > 0
        self.extras: dict[int, list[list[int]]] = {}
        self._shifts: dict[int, list] = {}
        self._marked: dict[int, list] = {}
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
        on the complement of J_k, from the ``colon_rows`` matrix modulo
        the canonical RREF of J_(k+1) with the lifts at k + 1 projected
        out at their markers; no slice of I is built.  That kernel
        contains the true one, {g : x g, y g, z g in I_(k+1)}, whose
        dimension is n_k, so a kernel of dimension n_k is the true one;
        ``kernel_int`` reads its canonical basis off the row space, the
        annihilator of the kernel, so the lifts do not depend on the
        form.  A kernel of another dimension (the form passes through a
        singular point) makes this step alone take the kernel of x, y
        and z together, which must have dimension n_k, or the ranks of
        J and the kernel disagree and it raises.  The count does not
        vouch for the lifts at k + 1: where LINEAR_FORM maps (S/J)_k
        onto (S/J)_(k+1), a wrong lift there still leaves a kernel of
        dimension n_k, and only the suite's ``saturation-oracle`` (the
        lifts multiplied out) sees it.

        With no lift at k + 1 the one-form kernel is
        ``FormsIdeal.h_kernel(k)``, which the regularity check at k + 1
        has already taken, so each matrix is eliminated once.  Where
        I_(k+1) = S_(k+1), read off ``i_dim``, I_k = S_k and no matrix
        is built."""
        n_k = self.n_table[k]
        data = self.data
        dim_here = slice_dim(k)
        comp_here = complement(data.slice_at(k)[0], dim_here)
        ncomp = len(comp_here)
        if self.i_dim(k + 1) == slice_dim(k + 1):
            if ncomp != n_k:
                raise _mismatch(k, ncomp, n_k)
            self.extras[k] = [_unit(c, dim_here) for c in comp_here]
            return

        jpiv, jrows = data.rref_at(k + 1)
        lifts = self.extras.get(k + 1, ())
        if lifts:
            kern = kernel_int(colon_rows(k, LINEAR_FORM, comp_here, jpiv,
                                         jrows, lifts), ncomp)
        else:
            kern = data.h_kernel(k)
        if len(kern) != n_k:
            rows = [row for var in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                    for row in colon_rows(k, var, comp_here, jpiv, jrows,
                                          lifts)]
            kern = kernel_int(rows, ncomp)
            if len(kern) != n_k:
                raise _mismatch(k, len(kern), n_k)

        extras = []
        for w in kern:
            vec = [0] * dim_here
            for u, c in enumerate(comp_here):
                vec[c] = w[u]
            extras.append(vec)
        self.extras[k] = extras

    @property
    def kmax(self) -> int:
        """Top degree of the slices of J the data was built on."""
        return self.data.kmax

    def i_rref(self, k: int):
        """Canonical RREF of the saturated slice at degree k: the slice
        of J wherever the quotient is zero, else the canonical rows of
        J_k extended by the lifts (``rref_extend`` over a copy), built
        on each read and kept nowhere.  The descent and the analysis
        read none: only the public ``generator_module`` and the suite's
        check that the lifts' shifts stay in I read them, each degree
        once."""
        lifts = self.extras.get(k)
        if not lifts:
            return self.data.rref_at(k)
        jpiv, jrows = self.data.rref_at(k)
        return rref_extend(jpiv, [list(r) for r in jrows], lifts,
                           slice_dim(k))

    def i_dim(self, k: int) -> int:
        return self.data.rank_at(k) + self.n_dim(k)

    def n_dim(self, k: int) -> int:
        """dim of the quotient (saturation / ideal) at degree k."""
        return len(self.extras.get(k, ()))

    def lift_shifts(self, k: int) -> list:
        """The x, y and z shifts of each lift at degree k, cached: the
        generator count and ``marked_shifts`` read them."""
        got = self._shifts.get(k)
        if got is None:
            got = self._shifts[k] = [
                tuple(shift_block_vector(vec, var, k, (0,))
                      for var in range(3))
                for vec in self.extras.get(k, ())]
        return got

    def marked_shifts(self, s: int) -> list:
        """Per lift at degree s, the residuals (rx, ry, rz) of its x, y
        and z shifts modulo J_(s+1), read at the marker columns of the
        lifts at s + 1 and scaled to one lcm per lift; cached, as the
        generator count and every sampled form of ``lefschetz_check``
        read them.

        The shifts lie in I_(s+1), so these residuals are their classes
        in N_(s+1) in the basis of the lifts: the lifts at s + 1 are a
        basis of I_(s+1) modulo J_(s+1), supported on the monomials
        outside J_(s+1), each a canonical kernel vector
        (``exactla.kernel_from_rref``) written on those columns, or a
        unit vector.  Either way its last nonzero column, its marker, is
        zero in every other lift.  A vector v of I_(s+1) is u + sum c_j
        l_j with u in J_(s+1); its residual modulo the canonical RREF of
        J_(s+1) is zero at the pivots, so it is sum c_j l_j, and c_j is
        its entry at marker j over l_j's.  Each canonical row is zero at
        the other pivots, so the residual at a column m is

            v[m] - sum_i v[p_i] rows_i[m] / rows_i[p_i],

        scaled here by the lcm of the pivot entries the lift's three
        shifts divide by; no full residual is formed.  The rank of any
        set of combinations of them is thus the rank those combinations
        add to J_(s+1).
        """
        got = self._marked.get(s)
        if got is not None:
            return got
        trios = self.lift_shifts(s)
        lifts = self.extras.get(s + 1)
        if not trios or not lifts:
            got = [((), (), ()) for _ in trios]
        else:
            markers = [marker(lift) for lift in lifts]
            jpiv, jrows = self.data.rref_at(s + 1)
            at = {c: i for i, c in enumerate(jpiv)}
            got = []
            for trio in trios:
                hits = [[(jrows[at[c]], c, v)
                         for c, v in enumerate(vec) if v and c in at]
                        for vec in trio]
                scale = lcm(*(row[pc] for h in hits for row, pc, _ in h))
                got.append(tuple(
                    tuple(scale * vec[m]
                          - sum((scale // row[pc]) * v * row[m]
                                for row, pc, v in h)
                          for m in markers)
                    for vec, h in zip(trio, hits)))
        self._marked[s] = got
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
        """Minimal generator degrees of I and of N = I/J, and e2, counted
        off ranks the descent already holds; no generator is picked.

        Let e be the generator degree of J and Sh_k the x, y and z
        shifts of the lifts at degree k - 1 (``lift_shifts``), so that
        I_(k-1) = J_(k-1) + span(lifts) and S_1 I_(k-1) = S_1 J_(k-1) +
        Sh_k.  With g_k = dim((J_k + Sh_k)/J_k), the rank of their
        residuals at the lifts' markers (``marked_shifts``):

        - for k != e, S_1 J_(k-1) is J_k (k > e) or 0 = J_k (k < e), so
          S_1 I_(k-1) = J_k + Sh_k and mu_I(k) = n_k - g_k;
        - J_(e-1) = 0, so S_1 I_(e-1) = Sh_e and mu_I(e) = dim I_e -
          rank Sh_e;
        - mu_N(k) = n_k - dim(S_1 I_(k-1) + J_k)/J_k is mu_I(k) at every
          k != e, and mu_N(e) = n_e - g_e;
        - e2 = 3 - dim(J_e meet S_1 I_(e-1)) = 3 - rank Sh_e + g_e.

        The count runs over degrees 0..r_I + 2: generators of I lie in
        degrees at most reg(I) = r_I + 1, so a nonzero count at r_I + 2
        raises, as does a negative count.  N/mN = I/(mI + J) is a
        quotient of I/mI, so those of N lie in degrees at most reg(I)
        too.  When e > r_I + 1, S_1 I_(e-1) = I_e contains J_e, e2 = 3 -
        dim J_e, and mu_N(e) = 0.  The generators themselves are the
        walk of ``generator_module``, which only the public
        ``resolution.min_generators`` reads.
        """
        data = self.data
        e = data.e
        top = self.reg_saturated() + 2
        degrees: list[int] = []
        for k in range(top + 1):
            growth = rank_int([list(r) for trio in self.marked_shifts(k - 1)
                               for r in trio], len(self.extras.get(k, ())))
            if k == e:
                grew = growth
                spanned = rank_int([list(v) for trio in self.lift_shifts(k - 1)
                                    for v in trio], slice_dim(k))
                count = self.i_dim(k) - spanned
            else:
                count = self.n_dim(k) - growth
            if count < 0:
                raise KmaxExhaustedError(
                    f"negative generator count {count} at degree {k}")
            degrees.extend([k] * count)
        if top in degrees:
            raise KmaxExhaustedError(
                f"a generator of the saturation in degree {top}, "
                "above reg(I)")
        n_degrees = [k for k in degrees if k != e]
        e2 = 3 - data.rank_at(e)
        if e < top:
            e2 = 3 - spanned + grew
            n_degrees.extend([e] * (self.n_dim(e) - grew))
        return GeneratorScan(tuple(degrees), tuple(sorted(n_degrees)), e2)

    @cached_property
    def generator_module(self) -> FormsIdeal:
        """The minimal generators of I as a module, from one
        ``jacobian.minimal_generators`` walk over I, block (0,), on
        degrees 0..r_I + 2: dim_at is ``i_dim`` and the candidates at k
        are the rows of RREF(I_k), so each generator is a canonical row,
        picked in order where it enlarges S_1 I_(k-1).  The walk stops
        at reg(I) + 1 = r_I + 2, where it only counts, and raises on a
        generator there.  Computed on first use: only
        ``resolution.min_generators`` reads it."""
        top = self.reg_saturated() + 2
        degrees, module = minimal_generators(
            (0,), 0, top, self.i_dim, lambda k: self.i_rref(k)[1])
        if top in degrees:
            raise KmaxExhaustedError(
                f"a generator of the saturation in degree {top}, "
                "above reg(I)")
        return module


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
    return SaturationData(_data(f))


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

    ``FormsIdeal.tau`` checks the codimension exactly and raises where
    the forms share a common factor; an ideal primary to the irrelevant
    ideal, tau = 0, is refused here.

    The function stays public although no analysis calls it: the paper
    discusses these saturations, such as those of the base ideals of
    plane Cremona maps (Hassanzadeh and Simis, J. Algebra 2012), and it
    is the one path that runs the descent on forms that are not the
    partials of a curve, where e need not be d - 1.
    """
    forms = tuple(primitivize(g) for g in (g1, g2, g3))
    degs = {g.degree for g in forms}
    if len(degs) != 1:
        raise WrongShapeError("the three forms must share one degree")
    e = degs.pop()
    if e < 1:
        raise WrongShapeError("constant forms cannot cut out a codim-2 ideal")
    data = FormsIdeal([g.int_vector() for g in forms], (e,) * 3)
    if data.tau() == 0:
        raise NotCodimensionTwoError(
            "quotient by the three forms is finite dimensional "
            "(ideal is primary to the irrelevant maximal ideal)")
    return SaturationData(data)


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
            # the images lie in I_(s+1): their rank at the markers is
            # the rank they add to J_(s+1)
            images = [[form[0] * a + form[1] * b + form[2] * c
                       for a, b, c in zip(x, y, z)]
                      for x, y, z in sat.marked_shifts(s)]
            ranks.append(rank_int(images, len(sat.extras.get(s + 1, ()))))
        expected = [min(table[s], table[s + 1]) for s in steps]
        ok = ranks == expected
        result = LefschetzData(form, ranks, expected, ok, attempts)
        if ok:
            return result
        best = result
    return best
