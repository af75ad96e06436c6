"""Minimal graded free resolutions of S/J_f and S/I_f.

Generators and syzygies are found degree by degree with Nakayama counts:
new generators at degree k are dim V_k minus the rank of the variable
shifts of the previous slice.  The AR(f) and relation scans walk a
shift chain (``jacobian.ShiftChain``): the span of those shifts comes
from the previous slice's echelon form in one step, so a kernel is
computed only in a degree where a new generator or relation appears.
Every scan stops at a top degree read off the regularity
(``SaturationData.reg_saturated`` and ``reg_jacobian``): a module of
regularity r has its generators in degrees at most r and their
relations in degrees at most r + 1.  Each finished table is then
certified against the Hilbert function of the module on the whole
degree range; a failed certificate raises FreenessCheckFailed.  No
Groebner bases anywhere: everything is exact linear algebra against
fixed monomial bases.

Explicit generator polynomials are picked canonically (rows of the
canonical slice basis, in order, that enlarge the span of the shifts),
so repeated runs reproduce them bit for bit; those of the saturation
come from ``SaturationData.generators``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FreenessCheckFailedError, WrongShapeError
# rank_int and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import kernel_int, rank_int, rref_insert  # noqa: F401
from .jacobian import CurveData, ShiftChain
from .poly import monomial_basis, monomial_index, slice_dim
from .saturation import SaturationData, saturate


@dataclass(frozen=True)
class BettiTable:
    """Twist multisets of a minimal graded free resolution of a cyclic
    module S/M: twists[p-1] lists position p, sorted ascending."""

    twists: tuple

    @property
    def pd(self) -> int:
        return len(self.twists)

    def position(self, p: int) -> tuple:
        return self.twists[p - 1] if 1 <= p <= self.pd else ()

    def to_jsonable(self):
        return [list(t) for t in self.twists]


def regularity(table: BettiTable) -> int:
    """Castelnuovo-Mumford regularity from a length-two table:
    max(a_i - 1, b_j - 2) over generators a and relations b."""
    if table.pd != 2:
        raise WrongShapeError("expected a projective dimension 2 table")
    a, b = table.twists
    if not a:
        raise WrongShapeError("empty generator position")
    return max([v - 1 for v in a] + [v - 2 for v in b])


def regularity_total(table: BettiTable) -> int:
    """max over all positions (twist - position), with the S in position
    zero contributing 0; agrees with ``regularity`` whenever some a_i
    is positive."""
    best = 0
    for p, twists in enumerate(table.twists, start=1):
        for t in twists:
            best = max(best, t - p)
    return best


def _mono_mult_block_vector(vec, mu, k_from, block_shifts):
    """Multiply a block vector of degree k_from by the monomial mu."""
    k_to = k_from + mu.degree
    out = [0] * sum(slice_dim(k_to - t) for t in block_shifts)
    off_in = 0
    off_out = 0
    for t in block_shifts:
        basis_in = monomial_basis(k_from - t)
        for i, v in enumerate(vec[off_in:off_in + len(basis_in)]):
            if v:
                out[off_out + monomial_index(basis_in[i] * mu)] = v
        off_in += len(basis_in)
        off_out += slice_dim(k_to - t)
    return out


def _syzygy_kernel(vectors, degrees, block_shifts, k):
    """Kernel of (h_i) -> sum h_i v_i at total degree k, in the
    concatenated coordinates of ⊕_i S(-deg_i)."""
    cols = []
    for vec, e in zip(vectors, degrees):
        for mu in monomial_basis(k - e):
            cols.append(_mono_mult_block_vector(vec, mu, e, block_shifts))
    if not cols:
        return []
    rows = [list(t) for t in zip(*cols)]
    return kernel_int(rows, len(cols))


def module_syzygy_degrees(vectors, degrees, block_shifts, top):
    """Minimal relation degrees among the given module generators.

    Nakayama scan over the degrees min(degrees)..top; the caller states
    top, a bound on the relation degrees.  Two ``ShiftChain``s walk up
    together: the image M_k of the generator map, with the degree-k
    generators added at each step, gives dim K_k = sum dim S_(k-a_i) -
    dim M_k for its kernel K; the kernel chain gives S_1 K_(k-1), and
    the new relations at k number dim K_k - dim S_1 K_(k-1).  Only
    where that count is positive and k < top is K_k itself computed
    (``_syzygy_kernel``), to carry the kernel chain up.
    """
    if not vectors:
        return []
    start = min(degrees)
    image = ShiftChain(block_shifts, start - 1)
    kernel = ShiftChain(degrees, start - 1)
    found = []
    for k in range(start, top + 1):
        image.step([v for v, e in zip(vectors, degrees) if e == k])
        kernel.step()
        count = (sum(slice_dim(k - e) for e in degrees)
                 - len(image.pivots) - len(kernel.pivots))
        found.extend([k] * count)
        if count and k < top:
            kernel.extend(_syzygy_kernel(vectors, degrees, block_shifts, k))
    return found


def _sat(f) -> SaturationData:
    if isinstance(f, SaturationData):
        return f
    return saturate(f)


def min_generators(f):
    """Minimal generators of the saturated ideal: (degrees, polynomials),
    read off the generator scan (``SaturationData.generators``), which
    covers degrees 0..r_I + 1 = reg(I)."""
    scan = _sat(f).generators
    return list(scan.i_degrees), list(scan.i_gens)


def syzygies(gens, f=None, kmax=None):
    """Minimal relation degrees among ideal generators.

    When saturation data (or a curve) is supplied, the scan stops at
    r_I + 2: relations of I sit in degrees at most reg(I) + 1 =
    reg(S/I) + 2.  The finished resolution is then checked against the
    Hilbert function of the ideal on all degrees up to kmax; a mismatch
    raises FreenessCheckFailed.  Without it the caller must state the
    top degree kmax of the scan; relations above kmax are not found,
    and that result is not certified.  With neither, WrongShapeError is
    raised: arbitrary generators have no stated bound here.
    """
    a = [g.degree for g in gens]
    vectors = [g.int_vector() for g in gens]
    if f is None:
        if kmax is None:
            raise WrongShapeError(
                "syzygies without saturation data needs kmax")
        return module_syzygy_degrees(vectors, a, (0,), kmax)
    sat = _sat(f)
    b = module_syzygy_degrees(vectors, a, (0,), sat.reg_saturated() + 2)
    _check_ideal_resolution(sat, a, b)
    return b


def _check_ideal_resolution(sat: SaturationData, a, b):
    if b and len(b) != len(a) - 1:
        raise FreenessCheckFailedError(
            f"rank mismatch: {len(a)} generators vs {len(b)} relations")
    for k in range(sat.kmax + 1):
        predicted = (slice_dim(k)
                     - sum(slice_dim(k - ai) for ai in a)
                     + sum(slice_dim(k - bj) for bj in b))
        actual = slice_dim(k) - sat.engine.i_dim(k)
        if predicted != actual:
            raise FreenessCheckFailedError(
                f"Hilbert function of S/I disagrees at degree {k}: "
                f"resolution says {predicted}, slices say {actual}")


def betti_saturated(f) -> BettiTable:
    """Betti table of S/I_f: (generators, relations), Hilbert-certified."""
    sat = _sat(f)
    a, gens = min_generators(sat)
    b = syzygies(gens, sat)
    return BettiTable((tuple(sorted(a)), tuple(sorted(b))))


def betti_jacobian(f) -> BettiTable:
    """Betti table of S/J_f = M(f) for a curve with mdr >= 1.

    Positions: the three partials, then the minimal Jacobian syzygies
    shifted by d-1, then their own relations.  With r_J = reg(S/J_f)
    (``SaturationData.reg_jacobian``), a twist t in position p obeys
    t - p <= r_J, so syzygy generators sit in degrees at most
    r_J - d + 3 and their relations in degrees at most r_J - d + 4.
    The whole table is certified against the Hilbert function of M(f);
    a mismatch raises FreenessCheckFailed.
    """
    sat = _sat(f)
    cd = sat.engine.data
    if not isinstance(cd, CurveData):
        raise WrongShapeError("the S/J_f table needs the Jacobian of a curve")
    if cd.mdr() == 0:
        raise WrongShapeError(
            "mdr = 0: the partials are not minimal generators of J_f")
    d = cd.d
    r_j = sat.reg_jacobian()
    ar_degs, ar_vecs = cd.ar_min_generators(r_j - d + 3)
    rels = module_syzygy_degrees(ar_vecs, ar_degs, (0, 0, 0), r_j - d + 4)
    twists = [(d - 1,) * 3, tuple(sorted(e + d - 1 for e in ar_degs))]
    if rels:
        twists.append(tuple(sorted(m + d - 1 for m in rels)))
    table = BettiTable(tuple(twists))
    if not _milnor_consistent(cd, table):
        raise FreenessCheckFailedError(
            "Betti table of S/J_f fails its Hilbert function check")
    return table


def _milnor_consistent(cd: CurveData, table: BettiTable) -> bool:
    for k in range(cd.kmax + 1):
        predicted = slice_dim(k)
        sign = -1
        for twists in table.twists:
            predicted += sign * sum(slice_dim(k - t) for t in twists)
            sign = -sign
        if predicted != cd.milnor_dim(k):
            return False
    return True
