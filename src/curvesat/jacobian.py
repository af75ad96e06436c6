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
canonical echelon form of each slice (chained upward by ``ShiftChain``)
and the relations among its generators.  J_f is the ideal case, one
block and three generators of degree d - 1.  ``minimal_generators`` is
the one Nakayama walk, which picks minimal generators of a module
degree by degree: over the slices of I_f it gives the generators of
I_f (``saturation.SaturationData.generators``), and over the kernel of
a generator map (``FormsIdeal.relations``) AR(f) from J_f and the later
positions of the two resolutions in ``resolution``.

Two kinds of chain carry the slices.  Slices whose rows are read, the
ones ``FormsIdeal.rref_at`` hands to the saturation steps, to
``colon_rows``, to the generator walk as candidates and to the
Lefschetz check, are canonical reduced echelon forms (``ShiftChain``).
The walk reads only ranks and whether a vector enlarges its slice,
which depend on the span alone, so its chain (``EchelonChain``) keeps
a forward echelon form and does no back substitution.

The chain of an ideal stops early: ``FormsIdeal.regular_degree``
checks the Bayer-Stillman criterion with one linear form h
(``LINEAR_FORM``) as the chain goes up, and the first degree m that
passes proves that the Hilbert function of S/J is a constant tau from
m on.  Every higher rank is then dim S_k - tau, so no slice above
m + 1 is eliminated; on the catalog curves m = reg(J_f) = r_J + 1.
Where no degree passes (h vanishes at a singular point, or f has a
repeated factor) the chain runs to kmax and tau comes from the
stabilization check of ``CurveData.tjurina``.  ``colon_rows`` builds
the matrix of multiplication by h modulo a slice, for this check and
for the saturation steps.

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

from .errors import (ConstantPolynomialError, KmaxExhaustedError,
                     NonReducedInputError, SmoothCurveError,
                     ZeroPolynomialError)
# rref_insert, rref_int and poly_columns_int are unused here but stay
# bound: perfbench/spans.py patches this module's names
from .exactla import (IncrementalSpan, kernel_int, rank_int,  # noqa: F401
                      rref_extend, rref_insert, rref_int)
from .poly import (HomogeneousPoly, monomial_basis,  # noqa: F401
                   monomial_index, partials, poly_columns_int, primitivize,
                   shift_maps, slice_dim)


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
            for i in range(sin):
                v = vec[off_in + i]
                if v:
                    out[off_out + sh[i]] = v
        off_in += sin
        off_out += sout
    return out


def mono_multiples(vec, k_from: int, k_to: int, block_shifts) -> list:
    """The multiples of a block vector of degree k_from by every monomial
    of degree k_to - k_from, in ``monomial_basis`` order."""
    terms = []                    # (block offset at k_to, monomial, value)
    off_in = 0
    off_out = 0
    for t in block_shifts:
        basis_in = monomial_basis(k_from - t)
        for i, v in enumerate(vec[off_in:off_in + len(basis_in)]):
            if v:
                terms.append((off_out, basis_in[i], v))
        off_in += len(basis_in)
        off_out += slice_dim(k_to - t)
    out = []
    for mu in monomial_basis(k_to - k_from):
        col = [0] * off_out
        for off, mono, v in terms:
            col[off + monomial_index(mono * mu)] = v
        out.append(col)
    return out


# The linear form h of the one-form saturation step and of the
# regularity check.  Small coefficients pass through singular points of
# arrangements whose lines have coefficients in [-3, 3], where the step
# falls back to x, y and z and the check never passes; large ones make
# the step matrix's entries grow.
LINEAR_FORM = (1, 11, 101)


def complement(pivots, ncols: int) -> list[int]:
    """The columns below ncols that are not pivots: the monomials
    outside a slice, given the pivots of its RREF."""
    pivset = set(pivots)
    return [c for c in range(ncols) if c not in pivset]


def colon_rows(k: int, form, comp_here, comp_next, ipiv, irows) -> list:
    """Integer matrix of multiplication by the linear form with
    coefficients form, from the complement monomials comp_here of
    degree k into S_(k+1) modulo the canonical RREF (ipiv, irows) of a
    slice I_(k+1): one row per complement column npc in comp_next.

    The image of a monomial under one term lands on one monomial t: on
    npc itself when t = npc, else on the pivot of a row i of I_(k+1),
    where its residual has -irows[i][npc] / irows[i][ipiv[i]] at npc.
    Each row is scaled to integers by the lcm of the pivot entries it
    touches (``kernel_int`` strips its content).
    """
    terms = [(sh, coef) for sh, coef in zip(shift_maps(k), form) if coef]
    piv_index = {c: i for i, c in enumerate(ipiv)}
    direct: dict[int, list] = {}
    at_pivot = []
    for u, c in enumerate(comp_here):
        for sh, coef in terms:
            t = sh[c]
            i = piv_index.get(t)
            if i is None:
                direct.setdefault(t, []).append((u, coef))
            else:
                at_pivot.append((u, coef, i))
    ncomp = len(comp_here)
    rows = []
    for npc in comp_next:
        hits = [(u, coef * irows[i][npc], irows[i][ipiv[i]])
                for u, coef, i in at_pivot if irows[i][npc]]
        scale = lcm(*(a for _, _, a in hits))
        row = [0] * ncomp
        for u, coef in direct.get(npc, ()):
            row[u] = coef * scale
        for u, b, a in hits:
            row[u] -= b * (scale // a)
        rows.append(row)
    return rows


class ShiftChain:
    """Canonical RREF of one slice of a graded submodule M of
    ⊕_b S(-t_b), moved up one degree at a time.

    ``step(extra)`` replaces the degree-k slice by the degree-(k+1)
    slice S_1*M_k + span(extra).  The x shift re-indexes each block into
    the next degree without moving any index inside it, so an echelon
    basis of M_k with every block padded by zeros is an echelon basis of
    x*M_k, on the x-shifted pivots; a canonical RREF stays canonical.
    Call the rows of the degree-(k+1) basis whose pivot is not such an
    x-shifted pivot its new rows N_(k+1) (at the first slice, all rows).
    The leading columns of a span are the same for every echelon basis
    of it, so their pivots are not leading positions of x*M_k, and
    counting dimensions gives M_(k+1) = x*M_k + span N_(k+1).  As
    S_1*M_k lies in M_(k+1), y*M_(k+1) = xy*M_k + y*span N_(k+1) lies
    in x*M_(k+1) + y*span N_(k+1), likewise for z, and

        S_1*M_(k+1) = x*M_(k+1) + y*span N_(k+1) + z*span N_(k+1)

    for any echelon basis, canonical or not.

    So each step is one ``rref_extend`` of the padded rows by the y and
    z shifts of the new rows and by extra.  ``step`` only reads the
    current rows, so a slice handed out before a step stays valid.

    This canonical chain carries the slices ``FormsIdeal.rref_at``
    hands out, whose rows the saturation steps, ``colon_rows``, the
    candidates of the generator walk and the Lefschetz check read.  The
    walk of ``minimal_generators`` reads no rows and uses
    ``EchelonChain``.
    """

    def __init__(self, block_shifts, k: int):
        self.block_shifts = tuple(block_shifts)
        self.k = k
        self.pivots: list = []
        self.rows: list = []
        self._x_pivots: set = set()

    def ncols(self) -> int:
        return sum(slice_dim(self.k - t) for t in self.block_shifts)

    def _next(self, extra):
        """(x_pivots, x_rows, vecs, ncols) of the next degree: the
        padded rows x*M_k, the y and z shifts of the new rows and extra,
        and the width of the degree-(k+1) slice."""
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
        return x_pivots, x_rows, vecs, out

    def step(self, extra=()) -> None:
        x_pivots, x_rows, vecs, ncols = self._next(extra)
        self.pivots, self.rows = rref_extend(x_pivots, x_rows, vecs, ncols)
        self._x_pivots = set(x_pivots)
        self.k += 1


class EchelonChain(ShiftChain):
    """A ``ShiftChain`` whose slices are forward echelon forms, for the
    walk of ``minimal_generators``.

    The slice is an ``IncrementalSpan``: rows with distinct leading
    columns in pivot order, never back-substituted.  A step keeps the
    padded x-shifted rows as they are, reduces the y and z shifts of the
    new rows and extra against them one after another, and merges the
    forward phase of the nonzero residuals in by pivot; ``next_rank``
    is the x-shifted pivot count plus the rank of those residuals.
    ``insert``, after a first step, adds one vector to the current
    slice, in place, as one residual row; its pivot is not an x-shifted
    one, so the new rows stay the rows on the other pivots.  The walk
    reads only the pivot count, ``next_rank`` and ``insert``'s answers,
    which depend on the span alone, so they are those of the canonical
    chain; no back substitution is spent on rows nobody reads.
    """

    def step(self, extra=()) -> None:
        x_pivots, x_rows, vecs, ncols = self._next(extra)
        self._span = IncrementalSpan(ncols, x_pivots, x_rows)
        self._span.extend(vecs)
        # pivots and rows are the span's own lists, which insert grows
        self.pivots, self.rows = self._span.pivots, self._span.rows
        self._x_pivots = set(x_pivots)
        self.k += 1

    def next_rank(self, extra=()) -> int:
        """Rank of the slice ``step(extra)`` would build; the chain
        does not move."""
        x_pivots, x_rows, vecs, ncols = self._next(extra)
        return len(x_pivots) + IncrementalSpan(
            ncols, x_pivots, x_rows).growth(vecs)

    def insert(self, vec) -> bool:
        """Add one vector to the current slice; True when it grew."""
        return self._span.insert(vec)


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
    m + 1 and every higher rank is dim S_k - tau.
    """

    def __init__(self, vectors, degrees, block_shifts=(0,)):
        self.vectors = tuple(vectors)
        self.degrees = tuple(degrees)
        self.block_shifts = tuple(block_shifts)
        self.e = min(self.degrees, default=0)
        self.kmax = max(3 * self.e, 1)
        self._rref: dict[int, tuple] = {}
        # the top slice built so far, see rref_at
        self._chain = ShiftChain(self.block_shifts, self.e - 1)
        # slice ranks handed on by the walk that built this module
        self._ranks: dict[int, int] = {}
        # (m, tau) once regular_degree certifies m, and the last degree
        # it tested
        self._regular: tuple | None = None
        self._tested = max(self.degrees, default=0) - 1

    # -- module slices --------------------------------------------------

    def rank_at(self, k: int) -> int:
        """Rank of the degree-k slice: handed on by the
        ``minimal_generators`` walk that built the module, dim S_k - tau
        at k >= m once ``regular_degree`` has certified (m, tau), else
        read off ``rref_at``."""
        rank = self._ranks.get(k)
        if rank is not None:
            return rank
        if self._regular is not None and k >= self._regular[0]:
            return slice_dim(k) - self._regular[1]
        return len(self.rref_at(k)[0])

    def rref_at(self, k: int):
        """Canonical RREF (pivots, rows) of the degree-k slice.

        Slices are chained upward from e: each degree is one
        ``ShiftChain.step``, as M_k = S_1*M_(k-1) + span(v_i : a_i = k).
        """
        if k < self.e:
            return [], []
        chain = self._chain
        while chain.k < k:
            chain.step([v for v, a in zip(self.vectors, self.degrees)
                        if a == chain.k + 1])
            self._rref[chain.k] = (chain.pivots, chain.rows)
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
        it is one ``rank_int`` of a ``colon_rows`` matrix, for
        surjectivity: S_m = hS_(m-1) + J_m gives S_(m+1) = hS_m +
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

        The chain is stepped up from the top generator degree one degree
        at a time, each degree tested once; it stops at the first pass
        or at kmax - 1, the top slice ``CurveData.tjurina``'s
        stabilization check reads.  From a pass on ``rank_at`` reads
        dim S_k - tau at k >= m, so no slice above m + 1 is built.  Only
        ideals call this: the relation walks of ``relations`` stop two
        or three degrees above the regularity anyway.
        """
        m = self._tested + 1
        while self._regular is None and m <= self.kmax - 2:
            dims = [slice_dim(k) - self.rank_at(k) for k in (m - 1, m, m + 1)]
            if dims[1] == dims[2] <= dims[0] and self._h_onto(m):
                self._regular = (m, dims[1])
            self._tested = m
            m += 1
        return self._regular

    def _h_onto(self, m: int) -> bool:
        """×h maps A_(m-1) onto A_m, for A = S/J and h = ``LINEAR_FORM``
        (see ``regular_degree``)."""
        comp_here = complement(self.rref_at(m - 1)[0], slice_dim(m - 1))
        piv, rows = self.rref_at(m)
        comp_next = complement(piv, slice_dim(m))
        if not comp_next:
            return True
        return len(comp_next) == rank_int(
            colon_rows(m - 1, LINEAR_FORM, comp_here, comp_next, piv, rows),
            len(comp_here))

    # -- relations among the generators --------------------------------

    def kernel_at(self, m: int) -> list[list[int]]:
        """Canonical basis of the relations of total degree m + e among
        the generators: tuples (h_i) with sum h_i v_i = 0, in the
        coordinates of ⊕_i S(-a_i)."""
        if m < 0:
            return []
        k = m + self.e
        cols = [col for v, a in zip(self.vectors, self.degrees)
                for col in mono_multiples(v, a, k, self.block_shifts)]
        return kernel_int([list(t) for t in zip(*cols)], len(cols))

    def relations(self, top: int):
        """Minimal relations among the generators in total degrees up to
        top, a bound the caller states: (degrees, module), the
        ``minimal_generators`` walk of the kernel K ⊂ ⊕_i S(-a_i) of the
        generator map, dim K_k = sum dim S_(k-a_i) - dim M_k, over the
        canonical ``kernel_at(k - e)``.  degrees are total degrees, the
        twists of a resolution."""
        return minimal_generators(
            self.degrees, self.e, top,
            lambda k: (sum(slice_dim(k - a) for a in self.degrees)
                       - self.rank_at(k)),
            lambda k: self.kernel_at(k - self.e))


def minimal_generators(block_shifts, start: int, top: int, dim_at,
                       candidates_at):
    """Minimal generators, in degrees start..top, of a graded submodule
    K of ⊕_b S(-t_b) with dim K_k = dim_at(k) and K_k spanned by
    candidates_at(k): (degrees, module), one Nakayama walk.

    An ``EchelonChain`` carries S_1 M_(k-1), M the module of the picks
    so far; the new generators at k number dim_at(k) minus its rank.
    Below top the candidates that enlarge the chain are picked in
    order, so the picks depend only on the spans and that order; at top
    they are only counted, from ``EchelonChain.next_rank``.  A negative
    count, or picks other than the count, raises.  degrees includes the
    count at top; module, the ``FormsIdeal`` of the picks, is handed the
    chain's ranks on start..top, so a walk over it rebuilds no slice.
    """
    degrees: list[int] = []
    vectors: list[list[int]] = []
    ranks: dict[int, int] = {}
    chain = EchelonChain(block_shifts, start - 1)
    for k in range(start, top + 1):
        if k == top:
            rank = chain.next_rank()
        else:
            chain.step()
            rank = len(chain.pivots)
        count = dim_at(k) - rank
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
            rank += count
        ranks[k] = rank
    module = FormsIdeal(vectors, [k for k in degrees if k < top],
                        block_shifts)
    module._ranks = ranks
    return degrees, module


class CurveData(FormsIdeal):
    """All cached graded computations for one curve."""

    def __init__(self, f: HomogeneousPoly):
        if f.is_zero():
            raise ZeroPolynomialError("the zero polynomial defines no curve")
        if f.degree < 1:
            raise ConstantPolynomialError("a curve needs degree at least 1")
        self.f = primitivize(f)
        self.d = f.degree
        self.T = 3 * (self.d - 2)
        super().__init__([g.int_vector() for g in partials(self.f)],
                         (self.d - 1,) * 3)
        self._tau: int | None = None
        self._mdr: int | None = None

    # -- Milnor algebra -------------------------------------------------

    def milnor_dim(self, k: int) -> int:
        return slice_dim(k) - self.rank_at(k) if k >= 0 else 0

    def milnor_dims(self) -> list[int]:
        """dim M(f)_k for k = 0..kmax; above a degree ``regular_degree``
        certifies they are read as tau, so the chain stops there too."""
        self.regular_degree()
        return [self.milnor_dim(k) for k in range(self.kmax + 1)]

    def tjurina(self) -> int:
        """Total Tjurina number, read off where the Hilbert function of
        M(f) stabilizes.

        ``regular_degree`` certifies a degree m <= 3d - 5 and tau =
        dim M(f)_m where it can; the ranks at 3d - 5 and 3d - 4 then
        both read tau.  Where no degree is certified they are real
        slices, and their comparison is the stabilization check:
        failure to stabilize means f was not reduced."""
        if self._tau is None:
            if self.d == 1:
                self._tau = 0
            else:
                self.regular_degree()
                m1 = self.milnor_dim(3 * self.d - 5)
                m2 = self.milnor_dim(3 * self.d - 4)
                if m1 != m2:
                    raise NonReducedInputError(
                        f"Milnor algebra does not stabilize ({m1} -> {m2}): "
                        "f has a repeated factor")
                self._tau = m1
        return self._tau

    def is_smooth(self) -> bool:
        return self.tjurina() == 0

    # -- Jacobian syzygies ---------------------------------------------

    def ar_dim(self, m: int) -> int:
        if m < 0:
            return 0
        return 3 * slice_dim(m) - self.rank_at(m + self.d - 1)

    def mdr(self) -> int:
        """Minimal degree of a Jacobian syzygy (Koszul forces mdr <= d-1)."""
        if self._mdr is None:
            for m in range(self.d):
                if self.ar_dim(m):
                    self._mdr = m
                    break
            else:
                raise KmaxExhaustedError("no Jacobian syzygy up to degree d-1")
        return self._mdr

    def ar_min_generators(self, top: int):
        """Minimal generators of AR(f) in degrees up to top: (degrees,
        module), with module AR(f)(-(d-1)) in total degrees, read off
        ``relations(top + d)``.  The caller states top, a bound on the
        generator degrees: r_J - d + 3 from the regularity r_J of M(f)
        (``SaturationData.reg_jacobian``), or the closed bound 2(d-1).
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

    The partials of a smooth curve form a regular sequence, so the
    series is ((1 - t^(d-1)) / (1 - t))^3: the cube of 1 + t + ... +
    t^(d-2), and zero in degrees above 3(d-2).
    """
    base = [1] * (d - 1)
    conv = base
    for _ in range(2):
        out = [0] * (len(conv) + len(base) - 1) if conv and base else []
        for i, a in enumerate(conv):
            for j, b in enumerate(base):
                out[i + j] += a * b
        conv = out
    dims = conv + [0] * (kmax + 1)
    return dims[:kmax + 1]


# -- module-level wrappers --------------------------------------------


def _data(f) -> CurveData:
    if isinstance(f, CurveData):
        return f
    return CurveData(f)


def milnor_dims(f) -> list[int]:
    return _data(f).milnor_dims()


def tjurina(f) -> int:
    return _data(f).tjurina()


def mdr(f) -> int:
    return _data(f).mdr()


def ar_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of AR(f).

    The scan runs to the closed bound 2(d-1): AR(f)(-(d-1)) sits in
    position two of the resolution of M(f), whose regularity is at most
    T = 3(d-2) for a reduced curve, so AR(f) is generated in degrees at
    most T - d + 3 < 2(d-1).
    """
    cd = _data(f)
    degrees, _ = cd.ar_min_generators(2 * (cd.d - 1))
    return sorted(degrees)


def ct(f) -> int:
    return _data(f).coincidence_threshold()
