"""Graded data of the Jacobian ideal of a plane curve.

For a reduced curve C: f = 0 of degree d the three partial derivatives
generate the Jacobian ideal J_f, and almost every invariant computed by
this package is a statement about ranks of multiplication maps into its
graded slices: the Hilbert function of the Milnor algebra M(f) = S/J_f,
the total Tjurina number tau(C), the minimal degree mdr(f) of a Jacobian
syzygy, and the graded module AR(f) of all syzygies a f_x + b f_y +
c f_z = 0.

``CurveData`` is the per-curve cache those computations share.  It works
on a canonical integer representative of f (rescaling f changes nothing)
so that every matrix is integer from the start.  Raw generator columns
(mono * f_i) are rebuilt on demand and kept small; only ranks, echelon
forms and kernels are cached.

Determinism: slice bases are canonical reduced echelon forms, kernels
are canonical, and generator picks walk candidates in canonical order,
so repeated runs give identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (KmaxExhaustedError, NonReducedInputError,
                     SmoothCurveError, WrongShapeError, ZeroPolynomialError)
# rref_insert is unused here but stays bound: perfbench/spans.py patches
# this module's name
from .exactla import (IncrementalSpan, kernel_int, rank_int,  # noqa: F401
                      rref_extend, rref_insert, rref_int)
from .poly import (HomogeneousPoly, partials, poly_columns_int, primitivize,
                   shift_maps, slice_dim)


@dataclass
class GradedSubspace:
    """Graded slices of a submodule of a free module ⊕_b S(-t_b).

    ``slices`` maps degree k to a list of integer basis vectors against
    the concatenated monomial bases of the blocks at that degree.
    """

    block_shifts: tuple
    slices: dict

    def dim(self, k: int) -> int:
        return len(self.slices.get(k, ()))

    def ambient_dim(self, k: int) -> int:
        return sum(slice_dim(k - t) for t in self.block_shifts)


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


def shifted_spanning_set(basis, k_from: int, block_shifts) -> list[list[int]]:
    """All variable multiples of the given degree-k_from basis vectors."""
    out = []
    for var in range(3):
        for vec in basis:
            out.append(shift_block_vector(vec, var, k_from, block_shifts))
    return out


class FormsIdeal:
    """Graded slices of an ideal generated by equal-degree forms.

    Generators must have integer coefficients (zero generators are kept
    so kernel coordinates always have one block per generator).
    """

    def __init__(self, gens, kmax: int):
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise WrongShapeError("generators must share one degree")
        self.gens = tuple(gens)
        self.e = degs.pop()
        self.kmax = kmax
        self._rref: dict[int, tuple] = {}
        # (degree, new rows) of the top slice built so far, see rref_at
        self._new_rows: tuple = (None, [])
        self._kernel: dict[int, list] = {}

    # -- ideal slices ---------------------------------------------------

    def columns(self, k: int) -> list[list[int]]:
        """Fresh raw spanning vectors mono * g_i of the degree-k slice."""
        if k < self.e:
            return []
        cols = []
        for g in self.gens:
            if not g.is_zero():
                cols.extend(poly_columns_int(g, k - self.e))
        return cols

    def rank_at(self, k: int) -> int:
        if k < self.e:
            return 0
        return len(self.rref_at(k)[0])

    def rref_at(self, k: int):
        """Canonical RREF (pivots, rows) of the degree-k slice.

        Slices are chained upward from the generator degree e.  The x
        shift re-indexes a slice into the next one without moving any
        index, so RREF(J_(k-1)) padded with zeros is the RREF of
        x*J_(k-1).  Let N_k be the rows of RREF(J_k) whose pivot is not
        such an x-shifted pivot (at k = e, all of RREF(J_e)); then
        J_k = x*J_(k-1) + span N_k.  So y*J_(k-1) = xy*J_(k-2) +
        y*span N_(k-1) lies in x*J_(k-1) + y*span N_(k-1), likewise for
        z, and

            J_k = x*J_(k-1) + y*span N_(k-1) + z*span N_(k-1).

        Each degree above e is one ``rref_extend`` of the padded rows
        by the y and z shifts of N_(k-1) alone; only the top degree's
        N is kept.
        """
        got = self._rref.get(k)
        if got is None:
            lo = k
            while lo > self.e and (lo - 1) not in self._rref:
                lo -= 1
            for kk in range(lo, k + 1):
                if kk not in self._rref:
                    self._build_rref(kk)
            got = self._rref[k]
        return got

    def _build_rref(self, k: int) -> None:
        if k <= self.e:
            got = rref_int(self.columns(k), slice_dim(k))
            if k == self.e:
                self._new_rows = (k, got[1])
        else:
            top, new = self._new_rows
            assert top == k - 1, "slices are built upward one degree at a time"
            ppiv, prows = self._rref[k - 1]
            ncols = slice_dim(k)
            pad = [0] * (ncols - slice_dim(k - 1))
            maps = shift_maps(k - 1)
            vecs = []
            for var in (1, 2):
                sh = maps[var]
                for r in new:
                    vec = [0] * ncols
                    for i, v in enumerate(r):
                        if v:
                            vec[sh[i]] = v
                    vecs.append(vec)
            got = rref_extend(ppiv, [list(r) + pad for r in prows], vecs,
                              ncols)
            old = set(ppiv)
            self._new_rows = (k, [r for pc, r in zip(*got) if pc not in old])
        self._rref[k] = got

    # -- syzygies among the generators ---------------------------------

    def kernel_at(self, m: int) -> list[list[int]]:
        """Canonical basis of degree-m syzygy tuples among the generators."""
        if m < 0:
            return []
        got = self._kernel.get(m)
        if got is None:
            nrows = slice_dim(m + self.e)
            cols = []
            for g in self.gens:
                if g.is_zero():
                    cols.extend([0] * nrows for _ in range(slice_dim(m)))
                else:
                    cols.extend(poly_columns_int(g, m))
            if cols:
                rows = [list(t) for t in zip(*cols)]
            else:
                rows = []
            got = kernel_int(rows, len(cols))
            self._kernel[m] = got
        return got


class CurveData(FormsIdeal):
    """All cached graded computations for one curve."""

    def __init__(self, f: HomogeneousPoly, kmax: int | None = None):
        if f.is_zero():
            raise ZeroPolynomialError("the zero polynomial defines no curve")
        if f.degree < 1:
            raise WrongShapeError("a curve needs degree at least 1")
        self.f_input = f
        self.f = primitivize(f)
        self.d = f.degree
        self.T = 3 * (self.d - 2)
        if kmax is None:
            kmax = max(3 * self.d - 3, 1)
        super().__init__(partials(self.f), kmax)
        self._tau: int | None = None
        self._mdr: int | None = None
        self._ar_gens: dict[bool, tuple] = {}

    # -- Milnor algebra -------------------------------------------------

    def milnor_dim(self, k: int) -> int:
        return slice_dim(k) - self.rank_at(k) if k >= 0 else 0

    def milnor_dims(self) -> list[int]:
        return [self.milnor_dim(k) for k in range(self.kmax + 1)]

    def tjurina(self) -> int:
        """Total Tjurina number, read off where the Hilbert function of
        M(f) stabilizes; failure to stabilize means f was not reduced."""
        if self._tau is None:
            if self.d == 1:
                self._tau = 0
            else:
                m1 = self.milnor_dim(3 * self.d - 5)
                m2 = self.milnor_dim(3 * self.d - 4)
                if m1 != m2:
                    raise NonReducedInputError(
                        f"Milnor algebra keeps shrinking ({m1} -> {m2}): "
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

    def ar_min_generators(self, early_stop: bool = True):
        """Minimal generators of AR(f): (degrees, vectors, counts).

        Degree-by-degree Nakayama count dim AR_m - dim S_1 AR_{m-1};
        explicit generators are canonical kernel vectors that enlarge
        the span of the variable multiples, picked in canonical order.
        The scan runs to the closed bound 2(d-1); with early_stop it
        leaves after two quiet degrees past max(mdr, d), which the
        Hilbert series cross-check downstream re-validates.
        """
        got = self._ar_gens.get(early_stop)
        if got is not None:
            return got
        cap = 2 * (self.d - 1)
        degrees: list[int] = []
        vectors: list[list[int]] = []
        counts: dict[int, int] = {}
        quiet = 0
        for m in range(self.mdr(), cap + 1):
            dim_here = self.ar_dim(m)
            prev = self.ar_kernel(m - 1)
            shifted = shifted_spanning_set(prev, m - 1, (0, 0, 0))
            base_rank = rank_int([list(v) for v in shifted],
                                 3 * slice_dim(m)) if shifted else 0
            count = dim_here - base_rank
            counts[m] = count
            if count:
                quiet = 0
                span = IncrementalSpan(3 * slice_dim(m))
                for vec in shifted:
                    span.insert(vec)
                picked = 0
                for vec in self.ar_kernel(m):
                    if span.insert(vec):
                        degrees.append(m)
                        vectors.append(list(vec))
                        picked += 1
                if picked != count:
                    raise KmaxExhaustedError(
                        "inconsistent syzygy generator count")
            else:
                quiet += 1
                if early_stop and quiet >= 2 and m >= self.d:
                    break
        got = (degrees, vectors, counts)
        self._ar_gens[early_stop] = got
        return got

    def ar_kernel(self, m: int) -> list[list[int]]:
        return self.kernel_at(m)

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


def _data(f, kmax=None) -> CurveData:
    if isinstance(f, CurveData):
        return f
    return CurveData(f, kmax)


def jacobian_slices(f, kmax: int | None = None) -> GradedSubspace:
    """Canonical bases of the graded slices of J_f up to kmax."""
    cd = _data(f, kmax)
    return GradedSubspace((0,), {
        k: [list(r) for r in cd.rref_at(k)[1]] for k in range(cd.kmax + 1)})


def milnor_dims(f, kmax: int | None = None) -> list[int]:
    return _data(f, kmax).milnor_dims()


def tjurina(f) -> int:
    return _data(f).tjurina()


def mdr(f) -> int:
    return _data(f).mdr()


def ar_slices(f, kmax: int | None = None) -> GradedSubspace:
    """Canonical bases of the Jacobian syzygy module up to degree kmax."""
    cd = _data(f)
    top = cd.kmax if kmax is None else kmax
    return GradedSubspace((0, 0, 0), {
        m: [list(v) for v in cd.ar_kernel(m)] for m in range(top + 1)})


def ar_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of AR(f)."""
    degrees, _, _ = _data(f).ar_min_generators()
    return sorted(degrees)


def ct(f) -> int:
    return _data(f).coincidence_threshold()
