"""Graded data of the Jacobian ideal of a plane curve.

For a reduced curve C: f = 0 of degree d the three partial derivatives
generate the Jacobian ideal J_f, and almost every invariant computed by
this package is a statement about ranks of multiplication maps into its
graded slices: the Hilbert function of the Milnor algebra M(f) = S/J_f,
the total Tjurina number tau(C), the minimal degree mdr(f) of a Jacobian
syzygy, and the graded module AR(f) of all syzygies a f_x + b f_y +
c f_z = 0.

``FormsIdeal`` is the one graded module type: the submodule of
⊕_b S(-t_b) generated by integer vectors of given degrees, with the
canonical echelon form of each slice and the relations among its
generators: those of one degree are the canonical kernel
(``FormsIdeal.kernel_at``) of the generator map, whose columns are the
generators' monomial multiples (``poly.mono_multiples``).  J_f is the
ideal case, one block and three generators of degree d - 1.
``minimal_generators`` is the one Nakayama walk, which picks minimal
generators of a module degree by degree: over the kernel of a
generator map (``FormsIdeal.relations``) the relations among the
generators, and so AR(f) (``CurveData.ar_min_generators``).  It only
yields vectors: no analysis and no public degree function runs it.
Those read closed forms, the degrees of AR(f) off the Milnor table and
N(f) (``resolution.ar_min_generators``), and the S/I_f table takes the
generators of I_f that the saturation picks at its lifts' markers
(``saturation.SaturationData.generators``, no walk over slices of I_f)
and reads its relations off the Hilbert function.

One chain carries every slice upward: ``ShiftChain``, an
``exactla.IncrementalSpan`` in forward echelon form, stepped one degree
at a time.  The walk reads only ranks and whether a vector enlarges its
slice, which depend on the span alone, so it does no back substitution.
The one back phase runs in ``FormsIdeal.slice_at`` on a slice of an
ideal before its chain steps from it, and in ``FormsIdeal.rref_at`` on
the slices whose rows are read: the ones it hands to the saturation
steps, to ``colon_rows`` and to the lifts' shift residuals that the
generator pick, the Lefschetz check and the suite's saturation oracle
read, which are canonical reduced echelon forms.  A rank or
pivot read of the top slice takes none.  A walk steps its chain at
every degree up to its top and carries every block; the module of its
picks starts with no slice built, and a relation walk over it steps
that module's own chain.

The chain of an ideal stops early: ``FormsIdeal.regular_degree`` checks
the Bayer-Stillman criterion with one linear form h (``LINEAR_FORM``) as
the chain goes up, and the first degree m that passes proves that the
Hilbert function of S/J is a constant tau from m on.  Every higher rank
is then dim S_k - tau, so no slice above m + 1 is eliminated; on the
catalog curves m = reg(J_f) = r_J + 1.  For a reduced curve J_f has
codimension two, which bounds each dim (S/J)_k by the Hilbert function
of a complete intersection of two forms of degree d - 1; where the chain
passes that bound f has a repeated factor, and the chain stops there.
Where no degree passes (h vanishes at a singular point, or f has a
repeated factor the bound has not caught) the chain runs to kmax - 1,
where ``FormsIdeal.tau`` checks that the Hilbert function stabilizes.
``colon_rows`` builds the matrix of multiplication by a linear form
modulo a slice of J, with a saturation step's lift vectors projected
out.  ``FormsIdeal.colon_lifts(k, lifts)`` is a whole saturation step,
and ``FormsIdeal.h_kernel(k, lifts)`` the one place h is read: it
takes the canonical kernel of that matrix for h, for the regularity
check and for the steps of a certified ideal.  The kernel with no
lifts is kept per degree: the check reads its dimension and the top
saturation step its vectors, so that matrix is eliminated once.

``CurveData`` is the per-curve cache built on J_f.  It works on a
canonical integer representative of f (rescaling f changes nothing) so
that every matrix is integer from the start.

Determinism: the slice bases handed out are canonical reduced echelon
forms, kernels are canonical, and generator picks walk candidates in
canonical order and keep those that enlarge a span, so repeated runs
give identical answers.
"""

from __future__ import annotations

from math import lcm

from .errors import (CoefficientTooLargeError, ConstantPolynomialError,
                     KmaxExhaustedError, NonReducedInputError,
                     NotCodimensionTwoError, SmoothCurveError,
                     WrongShapeError, ZeroPolynomialError)
# rank_int, rref_insert, rref_int and poly_columns_int are unused here
# but stay bound: perfbench/spans.py patches this module's names
from .exactla import (IncrementalSpan, back_phase,  # noqa: F401
                      complement, kernel_int, rank_int, rref_insert,
                      rref_int)
from .poly import (MAX_COEFF_BITS, HomogeneousPoly,  # noqa: F401
                   coefficient_bits, mono_multiples, partials,
                   poly_columns_int, primitivize, shift_maps, slice_dim,
                   twists_dim)


def shift_block_vector(vec, var: int, k_from: int, block_shifts) -> list[int]:
    """Multiply a block vector of degree k_from by the variable var.

    The vector lives in ⊕_b S(-t_b); multiplication by a variable is a
    re-indexing of each block into the next degree.
    """
    out = [0] * sum(slice_dim(k_from + 1 - t) for t in block_shifts)
    off_in = 0
    off_out = 0
    for t in block_shifts:
        sin = slice_dim(k_from - t)
        sout = slice_dim(k_from + 1 - t)
        if sin:
            sh = shift_maps(k_from - t)[var]
            for i, v in enumerate(vec[off_in:off_in + sin]):
                if v:
                    out[off_out + sh[i]] = v
        off_in += sin
        off_out += sout
    return out


# The linear form h of the regularity check and of the one-form
# saturation step, read only by ``FormsIdeal.h_kernel``.  Small
# coefficients pass through singular points of arrangements whose lines
# have coefficients in [-3, 3], where the check never passes and every
# step takes the kernel of x, y and z; large ones make the step
# matrix's entries grow.
LINEAR_FORM = (1, 11, 101)


def marker(lift) -> int:
    """A lift's marker: its last nonzero column (see ``colon_rows``)."""
    return max(c for c, v in enumerate(lift) if v)


def colon_rows(k: int, form, comp_here, jpiv, jrows, lifts=()) -> list:
    """Integer matrix of multiplication by the linear form with
    coefficients form, from the complement monomials comp_here of
    degree k into S_(k+1) modulo J_(k+1) + span(lifts), with (jpiv,
    jrows) the canonical RREF of J_(k+1) and lifts vectors of degree
    k + 1 zero at its pivots: one row per monomial outside J_(k+1)
    that is no lift's marker.

    The image of a monomial under one term lands on one monomial t: on
    a complement column npc itself when t = npc, else on the pivot of a
    row i of J_(k+1), where its residual has -jrows[i][npc] /
    jrows[i][jpiv[i]] at npc.  Each such row is scaled to integers by
    the lcm of the pivot entries it touches (``kernel_int`` strips its
    content).  Each row of J_(k+1) that some term lands on is read once,
    as its nonzero entries on the complement columns, and every such
    entry is filed under its column, so the row at npc reads its own
    list of hits and no other.

    The lifts are projected out, not merged into the slice.  A lift's
    marker is its last nonzero column, which must be zero in every
    other lift, as it is for canonical kernel vectors and unit vectors.
    A residual r modulo J_(k+1) lies in span(lifts) exactly when r -
    sum_j (r[m_j] / l_j[m_j]) l_j is zero, so the row at each other
    column c has the row at marker m_j subtracted l_j[c] / l_j[m_j]
    times, in one combined update scaled by the lcm of the row scales,
    and the marker rows are dropped.  What is left has one row per
    monomial outside I_(k+1) = J_(k+1) + span(lifts) and the kernel of
    multiplication modulo I_(k+1), with no slice of I_(k+1) built.
    """
    terms = [(sh, coef) for sh, coef in zip(shift_maps(k), form) if coef]
    piv_index = {c: i for i, c in enumerate(jpiv)}
    comp_next = complement(jpiv, slice_dim(k + 1))
    direct: dict[int, list] = {}
    # per complement column npc, (u, coef * jrows[i][npc], pivot entry)
    # for every term of monomial u landing on the pivot of row i; per
    # such row i, its (npc, entry, pivot entry) off the pivot, read once
    hits_at: dict[int, list] = {}
    off_pivot: dict[int, list] = {}
    for u, c in enumerate(comp_here):
        for sh, coef in terms:
            t = sh[c]
            i = piv_index.get(t)
            if i is None:
                direct.setdefault(t, []).append((u, coef))
                continue
            entries = off_pivot.get(i)
            if entries is None:
                jrow = jrows[i]
                entries = off_pivot[i] = [(npc, jrow[npc], jrow[t])
                                          for npc in comp_next if jrow[npc]]
            for npc, v, a in entries:
                hits_at.setdefault(npc, []).append((u, coef * v, a))
    ncomp = len(comp_here)

    def scaled_row(npc):
        """(row, scale): scale times the residual functional at npc."""
        hits = hits_at.get(npc, ())
        scale = lcm(*(a for _, _, a in hits))
        row = [0] * ncomp
        for u, coef in direct.get(npc, ()):
            row[u] = coef * scale
        for u, b, a in hits:
            row[u] -= b * (scale // a)
        return row, scale

    # per lift: its marker, its entry there and its row there, scaled
    marked = []
    for lift in lifts:
        m = marker(lift)
        row, scale = scaled_row(m)
        marked.append((m, lift, scale * lift[m], row))
    markers = {m for m, _, _, _ in marked}
    rows = []
    for npc in comp_next:
        if npc in markers:
            continue
        row, scale = scaled_row(npc)
        hits = [(lift[npc], den, mrow) for _, lift, den, mrow in marked
                if lift[npc]]
        if hits:
            big = lcm(scale, *(den for _, den, _ in hits))
            up = big // scale
            if up != 1:
                row = [up * v for v in row]
            for c, den, mrow in hits:
                mult = (big // den) * c
                for u, v in enumerate(mrow):
                    if v:
                        row[u] -= mult * v
        rows.append(row)
    return rows


class ShiftChain(IncrementalSpan):
    """One slice of a graded submodule M of ⊕_b S(-t_b), moved up one
    degree at a time: an ``IncrementalSpan``, rows with distinct leading
    columns in pivot order.

    ``step(extra)`` replaces the degree-k slice by the degree-(k+1)
    slice S_1*M_k + span(extra).  The x shift re-indexes each block into
    the next degree without moving any index inside it, so an echelon
    basis of M_k with every block padded by zeros is an echelon basis of
    x*M_k, on the x-shifted pivots.  Call the rows of the degree-(k+1)
    basis whose pivot is not such an x-shifted pivot its new rows
    N_(k+1) (at the first slice, all rows).  The leading columns of a
    span are the same for every echelon basis of it, so their pivots are
    not leading positions of x*M_k, and counting dimensions gives
    M_(k+1) = x*M_k + span N_(k+1).  As S_1*M_k lies in M_(k+1),
    y*M_(k+1) = xy*M_k + y*span N_(k+1) lies in x*M_(k+1) + y*span
    N_(k+1), likewise for z, and

        S_1*M_(k+1) = x*M_(k+1) + y*span N_(k+1) + z*span N_(k+1)

    for any echelon basis, canonical or not.

    So each step is one ``extend`` of the padded rows by the y and z
    shifts of the new rows and by extra, on fresh lists: a slice read
    before a step is never written again.  ``insert`` adds one vector to
    the current slice as one residual row; its pivot is not an
    x-shifted one, so the new rows stay the rows on the other pivots.
    The slice is a forward echelon form, never back-substituted here:
    the walk of ``minimal_generators`` reads only the pivot count and
    ``insert``'s answers, which depend on the span alone, and
    ``FormsIdeal.slice_at`` runs the back phase on the slices of a
    module that a step starts from or whose rows ``rref_at`` hands out.
    """

    def __init__(self, block_shifts, k: int):
        super().__init__(sum(slice_dim(k - t) for t in block_shifts))
        self.block_shifts = tuple(block_shifts)
        self.k = k
        self._x_pivots: set = set()

    def step(self, extra=()) -> None:
        k = self.k
        blocks = []                   # (start, end, start at k+1) per block
        x_index = []                  # x shift of each index at degree k
        start = out = 0
        for t in self.block_shifts:
            size = slice_dim(k - t)
            blocks.append((start, start + size, out))
            x_index.extend(range(out, out + size))
            start += size
            out += slice_dim(k + 1 - t)
        x_rows = []
        for row in self.rows:
            shifted = [0] * out
            for lo, hi, at in blocks:
                shifted[at:at + hi - lo] = row[lo:hi]
            x_rows.append(shifted)
        x_pivots = [x_index[pc] for pc in self.pivots]
        new = [row for pc, row in zip(self.pivots, self.rows)
               if pc not in self._x_pivots]
        vecs = [shift_block_vector(row, var, k, self.block_shifts)
                for var in (1, 2) for row in new]
        vecs.extend(extra)
        # taken before extend rewrites the pivots list in place
        self._x_pivots = set(x_pivots)
        self.pivots, self.rows, self.ncols = x_pivots, x_rows, out
        self.extend(vecs)
        self.k += 1


class FormsIdeal:
    """Graded slices of the submodule M of ⊕_b S(-t_b) generated by
    integer vectors v_i of degrees a_i.

    An ideal of forms is one block, block_shifts (0,), with every a_i
    the degree e of the forms.  Zero generators are kept, so kernel
    coordinates always have one block per generator.  kmax = max(3e, 1),
    with e the least generator degree (0 when there is none), is the top
    degree the saturation and the Hilbert-function checks read.  On an
    ideal, ``regular_degree`` may certify a degree m from which the
    Hilbert function of S/J is a constant tau; the chain then stops at
    m + 1, at m when tau = 0, and every higher rank is dim S_k - tau.
    """

    not_codim_two = NotCodimensionTwoError

    def __init__(self, vectors, degrees, block_shifts=(0,)):
        self.vectors = tuple(vectors)
        self.degrees = tuple(degrees)
        self.block_shifts = tuple(block_shifts)
        self.e = min(self.degrees, default=0)
        self.kmax = max(3 * self.e, 1)
        # the canonical slices, every one below the chain's top
        self._rref: dict[int, tuple] = {}
        # the top slice built so far, see slice_at
        self._chain = ShiftChain(self.block_shifts, self.e - 1)
        # (m, tau) once regular_degree certifies m, the degree where it
        # found S/J above the complete-intersection bound, and the last
        # degree it tested
        self._regular: tuple | None = None
        self._excess: int | None = None
        self._tested = max(self.degrees, default=0) - 1
        self._tau: int | None = None
        self._h_kernels: dict[int, list] = {}

    # -- module slices --------------------------------------------------

    def milnor_dim(self, k: int) -> int:
        """dim (S/J)_k, for an ideal J (one block)."""
        return slice_dim(k) - self.rank_at(k)

    def relation_dim(self, k: int) -> int:
        """dim K_k, the relations of total degree k among the generators."""
        return (sum(slice_dim(k - a) for a in self.degrees)
                - self.rank_at(k))

    def rank_at(self, k: int) -> int:
        """Rank of the degree-k slice: dim S_k - tau at k >= m once
        ``regular_degree`` has certified (m, tau), else the pivot count
        of ``slice_at``."""
        if self._regular is not None and k >= self._regular[0]:
            return slice_dim(k) - self._regular[1]
        return len(self.slice_at(k)[0])

    def slice_at(self, k: int):
        """(pivots, rows) of the degree-k slice, an echelon form whose
        pivots are those of the canonical RREF; its rows are canonical
        below the top slice of the chain.

        Slices are chained upward from e: each degree is one
        ``ShiftChain.step``, as M_k = S_1*M_(k-1) + span(v_i : a_i = k).
        A slice is back-phased (``back_phase``, the only one a chain of
        this module runs) before the chain steps from it, so every step
        starts from canonical rows, or when ``rref_at`` hands its rows
        out.  A rank or pivot read of the top slice takes no back phase:
        the one above the degree ``regular_degree`` certifies is built
        for its rank alone.
        """
        if k < self.e:
            return [], []
        chain = self._chain
        while chain.k < k:
            self._canonical()
            chain.step([v for v, a in zip(self.vectors, self.degrees)
                        if a == chain.k + 1])
        got = self._rref.get(k)
        return (chain.pivots, chain.rows) if got is None else got

    def _canonical(self) -> None:
        """Back-phase the chain's top slice, once, and keep it."""
        chain = self._chain
        if chain.k >= self.e and chain.k not in self._rref:
            back_phase(chain.pivots, chain.rows, chain.ncols)
            self._rref[chain.k] = (chain.pivots, chain.rows)

    def rref_at(self, k: int):
        """Canonical RREF (pivots, rows) of the degree-k slice
        (``slice_at``, back-phased)."""
        if k < self.e:
            return [], []
        self.slice_at(k)
        if k == self._chain.k:
            self._canonical()
        return self._rref[k]

    def regular_degree(self):
        """(m, tau) for the least degree m at which the check below
        passes, or None: then dim (S/J)_k = tau for every k >= m.

        For the ideal J of the forms (one block) and A = S/J, with h =
        ``LINEAR_FORM``, the check at a degree m with J generated in
        degrees <= m passes when ×h : A_m -> A_(m+1) is injective and
        ×h : A_(m-1) -> A_m is surjective, the criterion of Bayer and
        Stillman ("A criterion for detecting m-regularity", Invent.
        Math. 87, 1987, Thm 1.10) that J is m-regular.  It is tried only
        where H(m) = H(m+1) <= H(m-1), which both maps need, and there
        it is one kernel, ``h_kernel(m - 1)``, of dimension H(m-1) - H(m)
        for surjectivity: S_m = hS_(m-1) + J_m gives S_(m+1) = hS_m +
        S_1 J_m, so ×h maps A_m onto A_(m+1), a space of the same
        dimension, and is injective.  Why a pass is exact:

        1. Surjectivity gives (J, h)_m = S_m, so ×h is onto from degree
           m - 1 up and A/hA has finite length.
        2. For injectivity above m, take hg in J with g of degree j > m
           and write hg = sum c_i f_i.  Mod h, (c_i) is a syzygy of the
           images of the generators in S/hS, a ring in two variables.
        3. Those images contain every form of degree m, so their
           syzygies are generated in degrees <= m + 1, and (c_i) mod h
           is a combination of such syzygies with coefficients s of
           positive degree.  The lifted syzygies give multipliers q in
           (J : h) of degree <= m, and g is a combination of the s*q
           and of the generators.  Then (J : h)_m = J_m puts each s*q
           in J, so g lies in J.

        So ×h is bijective A_k -> A_(k+1) for all k >= m: H(k) = H(m) =:
        tau, and dim A <= 1.  A repeated factor of the forms makes dim A
        = 2, and then no degree passes.

        Every tested degree m is also held to a complete-intersection
        bound.  Let a be the top generator degree.  If J has codimension
        two, as J_f has for a reduced curve, so has the ideal J_a
        generates, with the same radical, and two general forms g_1, g_2
        of J_a are a regular sequence, so H(m) <= dim (S/(g_1, g_2))_m =
        ``twists_dim(((a, a), (2a,)), m)``.  The first m above it is
        recorded in ``_excess`` and the chain stops there: the forms
        share a factor, and ``tau`` raises.

        The chain is stepped up from the top generator degree one degree
        at a time, each degree tested once; it stops at the first pass
        or at kmax - 1, the top slice ``tau`` reads.  From a pass on
        ``rank_at`` reads dim S_k - tau at k >= m, so no slice above
        m + 1 is built.

        The first m with J_m = S_m is certified as (m, 0) before slice
        m + 1 is built: S_(m+1) = S_1 J_m lies in J, and the check
        would pass there.  No earlier degree can pass, as its tau would
        be the constant H(m) = 0, so m is the one the check certifies;
        a smooth curve saves its largest slice.  Only ideals call this:
        the relation walks of ``relations`` stop two or three degrees
        above the regularity anyway.
        """
        a = max(self.degrees, default=0)
        m = self._tested + 1
        while (self._regular is None and self._excess is None
               and m <= self.kmax - 2):
            dim = self.milnor_dim(m)
            if not dim:
                self._regular = (m, 0)
            elif dim > twists_dim(((a, a), (2 * a,)), m):
                self._excess = m
            else:
                low, high = [self.milnor_dim(k) for k in (m - 1, m + 1)]
                if (high == dim <= low
                        and len(self.h_kernel(m - 1)) == low - dim):
                    self._regular = (m, dim)
            self._tested = m
            m += 1
        return self._regular

    def tau(self) -> int:
        """tau = dim (S/J)_k for k >= 3e - 2, J the ideal of three forms
        of degree e; raises ``not_codim_two`` when the forms share a
        common factor (for J_f: when f has a repeated factor).

        In codimension two the Hilbert function of S/J equals its
        constant Hilbert polynomial from 3e - 2 on, since end
        H^0_m(S/J) <= 3e - 3 and end H^1_m(S/J) <= 2e - 3 - mdr, mdr the
        least degree of a relation among the forms; an ideal primary to
        the irrelevant ideal gives tau = 0.  Two degrees are enough: if
        J = hJ' with deg h = c >= 1, h the greatest common factor, then
        dim (S/J)_k = dim (S/(h))_k + dim (S/J')_(k-c), and from 3e - 2
        on the first term grows by c per degree while the second, by
        the same bound, is constant.  ``regular_degree`` runs first, so
        the chain stops where it certifies a degree (a common factor
        never passes) or leaves the complete-intersection bound.
        """
        if self._tau is None:
            self.regular_degree()
            if self._excess is not None:
                raise self.not_codim_two(
                    "quotient dimension does not stabilize: at degree "
                    f"{self._excess} it exceeds the complete-intersection "
                    "bound, so the forms share a common factor "
                    "(for J_f: f has a repeated factor)")
            low, high = [self.milnor_dim(k)
                         for k in (3 * self.e - 2, 3 * self.e - 1)]
            if low != high:
                raise self.not_codim_two(
                    f"quotient dimension does not stabilize ({low} -> "
                    f"{high}): the forms share a common factor "
                    "(for J_f: f has a repeated factor)")
            self._tau = low
        return self._tau

    def colon_lifts(self, k: int, lifts) -> list[list[int]]:
        """The lifts at degree k of the saturation I, full vectors, from
        lifts, those at k + 1: the canonical basis (``kernel_int``) of
        the g outside J_k with x g, y g, z g in J_(k+1) + span(lifts).
        Where the lifts fill (S/J)_(k+1), the unit vectors outside J_k.
        Where ``regular_degree`` certified a degree, (J, h)_m = S_m, so
        h misses V(J) and is a nonzerodivisor on the saturated S/I: the
        kernel of ×h alone (``h_kernel``) is exact.  Otherwise that of
        the x, y and z ``colon_rows`` matrices stacked."""
        comp_here = complement(self.slice_at(k)[0], slice_dim(k))
        if len(lifts) == self.milnor_dim(k + 1):
            kern = [[int(u == v) for v in range(len(comp_here))]
                    for u in range(len(comp_here))]
        elif self.regular_degree() is not None:
            kern = self.h_kernel(k, lifts)
        else:
            kern = self._colon_kernel(k, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                      lifts)
        out = []
        for w in kern:
            vec = [0] * slice_dim(k)
            for c, v in zip(comp_here, w):
                vec[c] = v
            out.append(vec)
        return out

    def h_kernel(self, k: int, lifts=()) -> list[list[int]]:
        """Canonical kernel (``kernel_int``) of ×h from the monomials
        outside J_k into S_(k+1) modulo J_(k+1) + span(lifts), h =
        ``LINEAR_FORM``, the one place h is read, with lifts vectors of
        degree k + 1 as ``colon_lifts`` passes them.  A kernel with no
        lifts is eliminated once per k and kept: the regularity check
        at k + 1 reads its dimension, and the saturation step at k,
        where no lift sits at k + 1, its vectors."""
        got = None if lifts else self._h_kernels.get(k)
        if got is None:
            got = self._colon_kernel(k, (LINEAR_FORM,), lifts)
            if not lifts:
                self._h_kernels[k] = got
        return got

    def _colon_kernel(self, k: int, forms, lifts) -> list[list[int]]:
        """Canonical kernel of the ``colon_rows`` matrices of forms,
        stacked, on the monomials outside J_k."""
        comp_here = complement(self.slice_at(k)[0], slice_dim(k))
        jpiv, jrows = self.rref_at(k + 1)
        return kernel_int([row for form in forms
                           for row in colon_rows(k, form, comp_here, jpiv,
                                                 jrows, lifts)],
                          len(comp_here))

    # -- relations among the generators --------------------------------

    def kernel_at(self, m: int) -> list[list[int]]:
        """Canonical basis of the relations of total degree m + e among
        the generators: tuples (h_i) with sum h_i v_i = 0, in the
        coordinates of ⊕_i S(-a_i)."""
        k = m + self.e
        cols = [col for v, a in zip(self.vectors, self.degrees)
                for col in mono_multiples(v, a, k, self.block_shifts)]
        return kernel_int([list(t) for t in zip(*cols)], len(cols))

    def relations(self, top: int):
        """Minimal relations among the generators in total degrees up to
        top, a bound the caller states: (degrees, module), the
        ``minimal_generators`` walk of the kernel K ⊂ ⊕_i S(-a_i) of the
        generator map, of dimensions ``relation_dim``, over the
        canonical ``kernel_at(k - e)``.  degrees are total degrees, the
        twists of a resolution."""
        return minimal_generators(
            self.degrees, self.e, top, self.relation_dim,
            lambda k: self.kernel_at(k - self.e))


def minimal_generators(block_shifts, start: int, top: int, dim_at,
                       candidates_at):
    """Minimal generators, in degrees start..top, of a graded submodule
    K of ⊕_b S(-t_b) with dim K_k = dim_at(k) and K_k spanned by
    candidates_at(k): (degrees, module), one Nakayama walk.

    A ``ShiftChain`` carries S_1 M_(k-1), M the module of the picks so
    far, in forward echelon form; the new generators at k number
    dim_at(k) minus its rank.  Below top the candidates that enlarge
    the chain are picked in order, so the picks depend only on the
    spans and that order; at top they are counted and not picked.  A
    negative count, or picks other than the count, raises.  degrees
    includes the count at top; module is the ``FormsIdeal`` of the
    picks.
    """
    degrees: list[int] = []
    vectors: list[list[int]] = []
    chain = ShiftChain(block_shifts, start - 1)
    for k in range(start, top + 1):
        chain.step()
        count = dim_at(k) - len(chain.pivots)
        if count < 0:
            raise KmaxExhaustedError(
                f"negative generator count {count} at degree {k}")
        degrees.extend([k] * count)
        if count and k < top:
            picked = [vec for vec in candidates_at(k) if chain.insert(vec)]
            if len(picked) != count:
                raise KmaxExhaustedError(
                    f"{len(picked)} generators picked at degree {k}, "
                    f"the count is {count}")
            vectors.extend(picked)
    return degrees, FormsIdeal(vectors, [k for k in degrees if k < top],
                               block_shifts)


class CurveData(FormsIdeal):
    """All cached graded computations for one curve."""

    not_codim_two = NonReducedInputError

    def __init__(self, f: HomogeneousPoly):
        if f.is_zero():
            raise ZeroPolynomialError("the zero polynomial defines no curve")
        if f.degree < 1:
            raise ConstantPolynomialError("a curve needs degree at least 1")
        self.f = primitivize(f)
        # clearing denominators, or an arrangement's product, can grow
        # coefficients past the parser's cap
        bits = coefficient_bits(self.f.terms.values())
        if bits > MAX_COEFF_BITS:
            raise CoefficientTooLargeError(
                f"a coefficient of {bits} bits exceeds the cap of "
                f"{MAX_COEFF_BITS} bits")
        self.d = f.degree
        self.T = 3 * (self.d - 2)
        super().__init__([g.int_vector() for g in partials(self.f)],
                         (self.d - 1,) * 3)

    # -- Milnor algebra -------------------------------------------------

    def milnor_dims(self) -> list[int]:
        """dim M(f)_k for k = 0..kmax; above a degree ``regular_degree``
        certifies they are read as tau, so the chain stops there too.
        ``tjurina`` runs first, so a non-reduced f raises where the chain
        leaves the reduced bound rather than after stepping to kmax."""
        self.tjurina()
        return [self.milnor_dim(k) for k in range(self.kmax + 1)]

    def tjurina(self) -> int:
        """Total Tjurina number, ``tau`` of J_f."""
        return self.tau()

    def is_smooth(self) -> bool:
        return self.tjurina() == 0

    # -- Jacobian syzygies ---------------------------------------------

    def mdr(self) -> int:
        """Minimal degree of a Jacobian syzygy (Koszul forces mdr <= d-1).
        ``tjurina`` runs first, so a non-reduced f raises."""
        self.tjurina()
        for m in range(self.d):
            if self.relation_dim(m + self.e):
                return m
        raise KmaxExhaustedError("no Jacobian syzygy up to degree d-1")

    def ar_min_generators(self, top: int):
        """Minimal generators of AR(f) in degrees up to top: (degrees,
        module), with module AR(f)(-(d-1)) in total degrees, read off
        ``relations(top + d)``.  The caller states top, a bound on the
        generator degrees: r_J - d + 3 from the regularity r_J of M(f)
        (``SaturationData.reg_jacobian``), or 2(d-1), which bounds them
        for reduced f: AR(f)(-(d-1)) sits in position two of the
        resolution of M(f), of regularity at most T = 3(d-2), so the
        degrees are at most T - d + 3 < 2(d-1).
        """
        module = self.relations(top + self.d)[1]
        return [a - (self.d - 1) for a in module.degrees], module

    # -- comparison with a smooth curve --------------------------------

    def smooth_dims(self) -> list[int]:
        return smooth_reference_dims(self.d, self.kmax)

    def coincidence_threshold(self) -> int:
        """Largest k below which M(f) looks like the smooth reference."""
        if self.is_smooth():
            raise SmoothCurveError(
                "the coincidence threshold is defined for singular curves")
        ref = self.smooth_dims()
        for k in range(self.kmax + 1):
            if self.milnor_dim(k) != ref[k]:
                return k - 1
        raise KmaxExhaustedError(
            "Milnor dimensions never left the smooth reference")


def smooth_reference_dims(d: int, kmax: int) -> list[int]:
    """Hilbert function of the Milnor algebra of any smooth degree-d curve.

    The partials of a smooth curve form a regular sequence of three
    forms of degree e = d - 1, so their Koszul complex resolves it, with
    twists (e)^3, (2e)^3 and (3e): on degrees 0..kmax, the series
    ((1 - t^e) / (1 - t))^3, zero in degrees above 3(d-2).
    """
    e = d - 1
    twists = ((e,) * 3, (2 * e,) * 3, (3 * e,))
    return [twists_dim(twists, k) for k in range(kmax + 1)]


# -- module-level wrappers --------------------------------------------


def _data(f) -> CurveData:
    """The ``CurveData`` of a curve given as a polynomial, as its
    ``CurveData`` or as the ``SaturationData`` of its Jacobian ideal."""
    if isinstance(f, CurveData):
        return f
    if isinstance(f, HomogeneousPoly):
        return CurveData(f)
    from .saturation import SaturationData   # saturation imports this module
    if isinstance(f, SaturationData):
        if isinstance(f.data, CurveData):
            return f.data
        raise WrongShapeError(
            "the saturation data of three forms carries no curve")
    raise WrongShapeError(
        "expected a curve: a HomogeneousPoly, its CurveData or its "
        f"SaturationData, not {type(f).__name__}")


def milnor_dims(f) -> list[int]:
    return _data(f).milnor_dims()


def tjurina(f) -> int:
    return _data(f).tjurina()


def mdr(f) -> int:
    return _data(f).mdr()


def ct(f) -> int:
    return _data(f).coincidence_threshold()
