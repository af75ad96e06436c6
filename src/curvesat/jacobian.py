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

from .errors import (KmaxExhaustedError, NonReducedInputError,
                     SmoothCurveError, WrongShapeError, ZeroPolynomialError)
# rank_int is unused here but stays bound: perfbench/spans.py patches
# this module's name
from .exactla import (kernel_int, rank_int, rref_extend,  # noqa: F401
                      rref_insert, rref_int)
from .poly import (HomogeneousPoly, partials, poly_columns_int, primitivize,
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


class ShiftChain:
    """Canonical RREF of one slice of a graded submodule M of
    ⊕_b S(-t_b), moved up one degree at a time.

    ``step(extra)`` replaces the degree-k slice by the degree-(k+1)
    slice S_1*M_k + span(extra).  The x shift re-indexes each block into
    the next degree without moving any index inside it, so RREF(M_k)
    with every block padded by zeros is the RREF of x*M_k.  Call the
    rows of RREF(M_(k+1)) whose pivot is not such an x-shifted pivot its
    new rows N_(k+1) (at the first slice, all rows).  Their pivots are
    not leading positions of x*M_k, so counting dimensions gives
    M_(k+1) = x*M_k + span N_(k+1).  As S_1*M_k lies in M_(k+1),
    y*M_(k+1) = xy*M_k + y*span N_(k+1) lies in x*M_(k+1) +
    y*span N_(k+1), likewise for z, and

        S_1*M_(k+1) = x*M_(k+1) + y*span N_(k+1) + z*span N_(k+1).

    So each step is one ``rref_extend`` of the padded rows by the y and
    z shifts of the new rows and by extra.  Vectors added to the current
    slice with ``insert`` or ``extend`` only add pivots, which are not
    x-shifted ones, so the new rows stay the rows on the other pivots.
    Those two change the current rows in place; ``step`` only reads
    them, so a slice handed out before a step stays valid.
    """

    def __init__(self, block_shifts, k: int, pivots=(), rows=()):
        self.block_shifts = tuple(block_shifts)
        self.k = k
        self.pivots = list(pivots)
        self.rows = list(rows)
        self._x_pivots: set = set()

    def ncols(self) -> int:
        return sum(slice_dim(self.k - t) for t in self.block_shifts)

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
        self.pivots, self.rows = rref_extend(x_pivots, x_rows, vecs, out)
        self._x_pivots = set(x_pivots)
        self.k = k + 1

    def insert(self, vec) -> bool:
        """Add one vector to the current slice; True when it grew."""
        return rref_insert(self.pivots, self.rows, vec, self.ncols())

    def extend(self, vecs) -> None:
        """Add vectors to the current slice."""
        self.pivots, self.rows = rref_extend(self.pivots, self.rows, vecs,
                                             self.ncols())


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
        # the top slice built so far, see rref_at
        self._chain: ShiftChain | None = None
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

        Slices are chained upward from the generator degree e: each
        degree above e is one ``ShiftChain.step``, as J_k = S_1*J_(k-1).
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
                self._chain = ShiftChain((0,), k, *got)
        else:
            chain = self._chain
            assert chain.k == k - 1, "slices are built upward one at a time"
            chain.step()
            got = (chain.pivots, chain.rows)
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
        self._ar_gens: dict[int, tuple] = {}

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
        vectors).

        Degree-by-degree Nakayama count dim AR_m - dim S_1 AR_(m-1),
        with S_1 AR_(m-1) one ``ShiftChain`` step from AR_(m-1).  Only
        where that count is positive is the kernel ``kernel_at(m)``
        computed: its canonical vectors that enlarge the span, picked in
        canonical order, are the generators, and the span they reach is
        AR_m.  The caller states top, a bound on the generator degrees:
        r_J - d + 3 from the regularity r_J of M(f)
        (``SaturationData.reg_jacobian``), or the closed bound 2(d-1).
        """
        got = self._ar_gens.get(top)
        if got is not None:
            return got
        degrees: list[int] = []
        vectors: list[list[int]] = []
        start = self.mdr()
        chain = ShiftChain((0, 0, 0), start - 1)
        for m in range(start, top + 1):
            chain.step()
            count = self.ar_dim(m) - len(chain.pivots)
            if not count:
                continue
            picked = 0
            for vec in self.kernel_at(m):
                if chain.insert(vec):
                    degrees.append(m)
                    vectors.append(list(vec))
                    picked += 1
            if picked != count:
                raise KmaxExhaustedError(
                    "inconsistent syzygy generator count")
        got = (degrees, vectors)
        self._ar_gens[top] = got
        return got

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


def milnor_dims(f, kmax: int | None = None) -> list[int]:
    return _data(f, kmax).milnor_dims()


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
