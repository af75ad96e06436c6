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

Each step is one call, ``FormsIdeal.colon_lifts(k, lifts)``, which reads
only slices of J and the lifts: candidate vectors are drawn from the
monomial complement of J_k (which has small dimension, about tau),
their multiples are reduced against the canonical reduced echelon form
of J_(k+1), and the lifts at k + 1 are projected out at their markers
(each lift's last nonzero column, zero in every other lift), which
leaves one row per monomial outside I_(k+1).  The kernel of that small
integer matrix gives the new slice as J_k plus a handful of lift
vectors.  The expensive eliminations thus stay on the small-entry
generator columns of J itself, the lifts span N(f) in that degree, and
no slice of I is built, here or by any reader of the lifts.

Which kernel a step takes is settled before the descent starts, by the
regularity check that ends the slice chain of J
(``FormsIdeal.regular_degree``).  Where it certified a degree, its
linear form h misses the singular scheme and is a nonzerodivisor on
S/I, so multiplication by h alone gives the colon, and the step takes
that one-form kernel (``FormsIdeal.h_kernel``, the one place h is
read); where it certified none, the step takes the kernel of x, y and
z together.  Where the lifts at k + 1 fill (S/J)_(k+1), I_k = S_k and
no matrix is built.  The code here names no linear form.

The dimensions n_k of N are known before the descent starts: they
follow from the Hilbert function m_k of S/J alone,
n_k = m_k + m_(T-k) - c_k - tau (see ``SaturationData``), with ranks
the slice chain of J has already built.  N lives only in degrees
sigma..T - sigma, so most steps have n_k = 0; those do no work, and
I_k is J_k's cached slice.  Every other step checks its kernel's
dimension against n_k and raises on any other.  That check compares
the slice ranks of J with the kernels, but it does not see every wrong
lift: where multiplication by h maps (S/J)_k onto (S/J)_(k+1), any
n_(k+1) lifts at k + 1 give a one-form kernel of dimension n_k, so a
wrong one passes step k.  The suite's ``saturation-oracle``, which
multiplies the lifts out and reads the residuals of their shifts on
every monomial outside J_(k+1) (``SaturationData.shift_residuals``),
is the check that sees it.  The degree the
regularity check certifies is an upper bound for reg(J), and the
constructor raises when it lies below the regularity the saturation
gives.  Each matrix is eliminated once: a step with no lift above it
(the top step) has the matrix of the check at k + 1, and ``h_kernel``
keeps the kernel the check took.

The same descent saturates any codimension-two ideal J generated by
three forms of degree e, from the base 3e - 2: the quotient I/J by its
saturation I vanishes above 3e - 3 and is self-dual, n_k = n_(3e-3-k).
The Jacobian ideal is the case e = d - 1, where 3e - 3 = T.  Both read
tau, and the check that J has codimension two, from
``jacobian.FormsIdeal.tau``.

The minimal generators of I are picked in one pass
(``SaturationData.generators``), and their number is the count every
table reads.  Above the generator degree e of J, S_1 I_(k-1) is J_k
plus the x, y and z shifts of the lifts at degree k - 1, so its
classes in N_k are those shifts read at one marker column per lift
(``SaturationData.marked_shifts``, which the Lefschetz check reads
too), and a lift at k is a generator where its marker enlarges their
span.  At e, where J_(e-1) = 0, the shifts themselves are the span,
and the forms of J are offered before the lifts.  The generators of N
are the picked lifts, and the correction term e2 of the generator bound
counts the picked forms.  No slice of I is built, and the public
``resolution.min_generators`` reads the same picks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (KmaxExhaustedError, NotCodimensionTwoError,
                     WrongShapeError)
# clear_row, kernel_int and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import (IncrementalSpan, clear_row,  # noqa: F401
                      kernel_int, primitive, rank_int, rref_insert)
from .jacobian import (FormsIdeal, _data, marker, shift_block_vector,
                       smooth_reference_dims)
from .poly import primitivize, slice_dim


@dataclass(frozen=True)
class GeneratorScan:
    """Minimal generators of the saturation I, and the generator degrees
    of N = I/J."""

    degrees: tuple          # generator degrees of I, ascending
    vectors: tuple          # the generators of I, primitive, as degrees
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

        The new lifts are ``data.colon_lifts(k, lifts)`` with the lifts
        at k + 1: the canonical basis of {g : x g, y g, z g in I_(k+1)}
        on the complement of J_k, taken modulo the canonical RREF of
        J_(k+1) with those lifts projected out at their markers, so no
        slice of I is built.  That space has dimension n_k, and a
        kernel of any other dimension means the ranks of J and the
        kernel disagree: it raises.  The count does not vouch for the
        lifts at k + 1: where multiplication by the form of a certified
        ideal maps (S/J)_k onto (S/J)_(k+1), a wrong lift there still
        leaves a kernel of dimension n_k, and only the suite's
        ``saturation-oracle`` (the lifts multiplied out) sees it."""
        lifts = self.data.colon_lifts(k, self.extras.get(k + 1, ()))
        if len(lifts) != self.n_table[k]:
            raise _mismatch(k, len(lifts), self.n_table[k])
        self.extras[k] = lifts

    @property
    def kmax(self) -> int:
        """Top degree of the slices of J the data was built on."""
        return self.data.kmax

    def i_dim(self, k: int) -> int:
        return self.data.rank_at(k) + self.n_dim(k)

    def n_dim(self, k: int) -> int:
        """dim of the quotient (saturation / ideal) at degree k."""
        return len(self.extras.get(k, ()))

    def lift_shifts(self, k: int) -> list:
        """The x, y and z shifts of each lift at degree k, fresh lists on
        each read: the generator pick and ``shift_residuals`` read
        them."""
        return [tuple(shift_block_vector(vec, var, k, (0,))
                      for var in range(3))
                for vec in self.extras.get(k, ())]

    def shift_residuals(self, s: int, columns) -> list:
        """Per lift at degree s, the residuals (rx, ry, rz) of its x, y
        and z shifts modulo J_(s+1), read at columns, monomials outside
        J_(s+1), and scaled to one lcm per lift; no full residual is
        formed.

        Each canonical row of J_(s+1) is zero at the other pivots, so
        the residual of a vector v at a column m off the pivots p_i is

            v[m] - sum_i v[p_i] rows_i[m] / rows_i[p_i],

        scaled here by the lcm of the pivot entries the lift's three
        shifts divide by.  ``marked_shifts`` reads the lifts' markers at
        s + 1; the suite's ``saturation-oracle`` reads every monomial
        outside J_(s+1).
        """
        trios = self.lift_shifts(s)
        if not trios or not columns:
            return [((), (), ()) for _ in trios]
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
                      for m in columns)
                for vec, h in zip(trio, hits)))
        return got

    def marked_shifts(self, s: int) -> list:
        """``shift_residuals`` of the lifts at degree s read at the
        marker columns of the lifts at s + 1; cached, as the generator
        pick and every sampled form of ``lefschetz_check`` read them.

        The shifts lie in I_(s+1), so these residuals are their classes
        in N_(s+1) in the basis of the lifts: the lifts at s + 1 are a
        basis of I_(s+1) modulo J_(s+1), supported on the monomials
        outside J_(s+1), each a canonical kernel vector
        (``exactla.kernel_from_rref``) written on those columns, or a
        unit vector.  Either way its last nonzero column, its marker, is
        zero in every other lift.  A vector v of I_(s+1) is u + sum c_j
        l_j with u in J_(s+1); its residual modulo the canonical RREF of
        J_(s+1) is sum c_j l_j, and c_j is its entry at marker j over
        l_j's.  The rank of any set of combinations of them is thus the
        rank those combinations add to J_(s+1).
        """
        got = self._marked.get(s)
        if got is None:
            got = self._marked[s] = self.shift_residuals(
                s, [marker(lift) for lift in self.extras.get(s + 1, ())])
        return got

    def end_degree(self) -> int | None:
        """Largest degree with nonzero quotient, None when the quotient is
        0: T - sigma, as n_k = n_(T-k)."""
        return None if self.sigma is None else self.top - self.sigma

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
        """Minimal generators of I, picked in one pass over degrees
        0..r_I + 2, with the generator degrees of N = I/J and e2.

        Let e be the generator degree of J and Sh_k the x, y and z
        shifts of the lifts at degree k - 1 (``lift_shifts``), so that
        I_(k-1) = J_(k-1) + span(lifts) and S_1 I_(k-1) = S_1 J_(k-1) +
        Sh_k.  The generators at k are the candidates that enlarge a
        span of S_1 I_(k-1), offered in order:

        - for k != e, S_1 J_(k-1) is J_k (k > e) or 0 = J_k (k < e), so
          S_1 I_(k-1) = J_k + Sh_k, and its classes in N_k are the
          residuals of Sh_k at the lifts' markers (``marked_shifts``):
          the span has width n_k, and the candidates are the lifts at
          k, each the unit vector of its marker;
        - J_(e-1) = 0, so S_1 I_(e-1) = Sh_e: the span is Sh_e itself,
          in S_e, and the candidates are the forms of J and then the
          lifts at e.

        Every pick is a generator of N too, except a form of J: the
        forms are picked exactly where J_e leaves S_1 I_(e-1), so e2 =
        3 - dim(J_e meet S_1 I_(e-1)) is 3 - dim J_e plus their number.
        Where e > r_I + 1 none is picked: S_1 I_(e-1) = I_e contains
        J_e, e2 = 3 - dim J_e, and N has no generator at e.

        The count, n_k (dim I_e at e) less the rank of the span, is
        taken before the picks: a negative count, or picks other than
        the count, raise.  Generators of I lie in degrees at most reg(I)
        = r_I + 1, so a pick at r_I + 2 raises too.  N/mN = I/(mI + J)
        is a quotient of I/mI, so those of N lie in degrees at most
        reg(I) too.  The picks are the generators of the public
        ``resolution.min_generators``.
        """
        data = self.data
        e = data.e
        top = self.reg_saturated() + 2
        degrees, vectors, n_degrees = [], [], []
        nforms = 0
        for k in range(top + 1):
            lifts = self.extras.get(k, ())
            # the span of S_1 I_(k-1), the forms offered before the
            # lifts, and each lift's coordinates in the span
            if k == e:
                span = IncrementalSpan(slice_dim(k))
                span.extend(v for trio in self.lift_shifts(k - 1)
                            for v in trio)
                count = self.i_dim(k) - len(span.pivots)
                offered, coords = data.vectors, lifts
            else:
                span = IncrementalSpan(len(lifts))
                span.extend(r for trio in self.marked_shifts(k - 1)
                            for r in trio)
                count = self.n_dim(k) - len(span.pivots)
                offered = ()
                coords = [[int(i == j) for i in range(len(lifts))]
                          for j in range(len(lifts))]
            if count < 0:
                raise KmaxExhaustedError(
                    f"negative generator count {count} at degree {k}")
            forms = [v for v in offered if span.insert(v)]
            kept = [lift for lift, c in zip(lifts, coords) if span.insert(c)]
            if len(forms) + len(kept) != count:
                raise KmaxExhaustedError(
                    f"{len(forms) + len(kept)} generators picked at "
                    f"degree {k}, the count is {count}")
            degrees.extend([k] * count)
            vectors.extend(tuple(primitive(v)) for v in forms + kept)
            n_degrees.extend([k] * len(kept))
            nforms += len(forms)
        if top in degrees:
            raise KmaxExhaustedError(
                f"a generator of the saturation in degree {top}, "
                "above reg(I)")
        return GeneratorScan(tuple(degrees), tuple(vectors),
                             tuple(n_degrees), 3 - data.rank_at(e) + nforms)


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
