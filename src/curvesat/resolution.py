"""Minimal graded free resolutions of S/J_f and S/I_f.

Generators and syzygies are found degree by degree with Nakayama counts:
new generators at degree k are dim V_k minus the rank of the variable
shifts of the previous slice.  Scans stop after two quiet degrees past a
regularity-informed floor; every finished table is then certified
against the Hilbert function of the module on the whole degree range,
and a failed certificate rescans without the early stop before giving
up.  No Groebner bases anywhere: everything is exact linear algebra
against fixed monomial bases.

Explicit generator polynomials are picked canonically (rows of the
canonical slice basis, in order, that enlarge the span of the shifts),
so repeated runs reproduce them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (FreenessCheckFailedError, KmaxExhaustedError,
                     WrongShapeError)
from .exactla import kernel_int, rank_int, rref_extend, rref_insert
from .jacobian import CurveData, shift_block_vector
from .poly import (HomogeneousPoly, monomial_basis, monomial_index,
                   slice_dim)
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
        return [], 0
    rows = [list(t) for t in zip(*cols)]
    return kernel_int(rows, len(cols)), len(cols)


def module_syzygy_degrees(vectors, degrees, block_shifts, cap, floor,
                          early_stop=True):
    """Minimal relation degrees among the given module generators.

    Nakayama scan with kernels of the generator map; stops after two
    quiet degrees past the floor (and past every found relation), or at
    the cap, raising KmaxExhausted when the cap cuts off an active scan.
    """
    if not vectors:
        return []
    source_shifts = tuple(degrees)
    found = []
    quiet = 0
    prev_kernel = []
    start = min(degrees)
    k = start
    while True:
        kern, _ = _syzygy_kernel(vectors, degrees, block_shifts, k)
        if prev_kernel:
            shifted = []
            for var in range(3):
                for v in prev_kernel:
                    shifted.append(
                        shift_block_vector(v, var, k - 1, source_shifts))
            base = rank_int(shifted, sum(slice_dim(k - e) for e in degrees))
        else:
            base = 0
        count = len(kern) - base
        if count:
            found.extend([k] * count)
            quiet = 0
        else:
            quiet += 1
        prev_kernel = kern
        k += 1
        stop_floor = max(floor, (max(found) + 2) if found else floor)
        if early_stop and quiet >= 2 and k > stop_floor:
            break
        if k > cap:
            if quiet < 2:
                raise KmaxExhaustedError(
                    f"syzygy scan still active at its degree cap {cap}")
            break
    return found


def _sat(f) -> SaturationData:
    if isinstance(f, SaturationData):
        return f
    return saturate(f)


def min_generators(f):
    """Minimal generators of the saturated ideal: (degrees, polynomials).

    Counts come from comparing each slice with the variable shifts of
    the previous one; explicit generators are canonical basis rows that
    enlarge the shift span.
    """
    sat = _sat(f)
    engine = sat.engine
    data = engine.data
    e = data.e
    kmax = sat.kmax
    if isinstance(data, CurveData) and not data.is_smooth():
        floor = data.T - data.coincidence_threshold() + 2
    else:
        floor = e + 2
    degrees = []
    gens = []
    quiet = 0
    k = 0
    while True:
        dim_i = engine.i_dim(k)
        count = 0
        if dim_i:
            if k >= e + 1:
                piv, rows = data.rref_at(k)
                rows = [list(r) for r in rows]
            else:
                piv, rows = [], []
            shifted = [shift_block_vector(vec, var, k - 1, (0,))
                       for vec in engine.extras.get(k - 1, ())
                       for var in range(3)]
            piv, rows = rref_extend(piv, rows, shifted, slice_dim(k))
            count = dim_i - len(piv)
            if count:
                picked = 0
                for row in engine.i_rref(k)[1]:
                    if rref_insert(piv, rows, list(row), slice_dim(k)):
                        degrees.append(k)
                        gens.append(HomogeneousPoly.from_vector(k, row))
                        picked += 1
                if picked != count:
                    raise KmaxExhaustedError(
                        "inconsistent generator count for the saturation")
        if count:
            quiet = 0
        else:
            quiet += 1
        k += 1
        stop_floor = max(floor, (max(degrees) + 2) if degrees else floor)
        if quiet >= 2 and degrees and k > stop_floor:
            break
        # saturated slices stay valid one degree past kmax (the stored
        # extras at kmax still feed the shift construction there)
        if k > kmax + 1:
            raise KmaxExhaustedError(
                f"generator scan for the saturation ran past kmax={kmax}")
    return degrees, gens


def syzygies(gens, f=None, kmax=None):
    """Minimal relation degrees among ideal generators, certified.

    When saturation data (or a curve) is supplied, the finished
    resolution is checked against the Hilbert function of the ideal on
    all degrees up to kmax; a mismatch raises FreenessCheckFailed.
    """
    sat = _sat(f) if f is not None else None
    a = [g.degree for g in gens]
    vectors = [g.int_vector() for g in gens]
    if sat is not None:
        kmax = sat.kmax
        data = sat.engine.data
        if isinstance(data, CurveData) and not data.is_smooth():
            floor = data.T - data.coincidence_threshold() + 3
        else:
            floor = (max(a) + 2) if a else 2
    else:
        floor = (max(a) + 2) if a else 2
        if kmax is None:
            kmax = (max(a) + 6) if a else 6
    # headroom past the floor so the two quiet degrees fit under the cap
    cap = max(kmax, floor + 2)
    b = module_syzygy_degrees(vectors, a, (0,), cap, floor)
    if sat is not None:
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
    shifted by d-1, then their own relations.  The whole table is
    certified against the Hilbert function of M(f); on mismatch the
    scans rerun without their early stop before failing.
    """
    cd = f if isinstance(f, CurveData) else CurveData(f)
    if cd.mdr() == 0:
        raise WrongShapeError(
            "mdr = 0: the partials are not minimal generators of J_f")
    d = cd.d
    for early in (True, False):
        ar_degs, ar_vecs, _ = cd.ar_min_generators(early_stop=early)
        rel_floor = max(ar_degs) + 2
        rel_cap = max(cd.kmax - (d - 1) + 2, rel_floor + 2)
        try:
            rels = module_syzygy_degrees(ar_vecs, ar_degs, (0, 0, 0),
                                         rel_cap, rel_floor, early_stop=early)
        except KmaxExhaustedError:
            # an undercounted generator set can run the relation scan
            # off its cap; the full rescan settles it
            if early:
                continue
            raise
        table = BettiTable((
            (d - 1,) * 3,
            tuple(sorted(e + d - 1 for e in ar_degs)),
            tuple(sorted(m + d - 1 for m in rels)),
        ) if rels else (
            (d - 1,) * 3,
            tuple(sorted(e + d - 1 for e in ar_degs)),
        ))
        if _milnor_consistent(cd, table):
            return table
    raise FreenessCheckFailedError(
        "Betti table of S/J_f fails its Hilbert function check")


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
