"""Minimal graded free resolutions of S/J_f and S/I_f.

Every entry point takes a curve or the ``SaturationData`` of one;
``saturate`` hands the latter back unchanged, so one saturation object
serves both tables, and its slices, regularities and generators are all
read off it.  Every position of either table past the first comes from
one Nakayama walk, ``jacobian.minimal_generators``: the generators of
I_f are that walk over the slices of I_f (``SaturationData.generators``),
and each later position holds the minimal relations among the previous
position's generators, the walk over their kernel
(``jacobian.FormsIdeal.relations``): the partials give AR(f), AR(f)
gives its relations, the generators of I_f give theirs.  The walk
carries the span of what it has picked up a forward echelon chain
(``jacobian.EchelonChain``), never back-substituted, so candidates are
read only in a degree below the top where a generator appears, and at
the top degree generators are only counted.  The module a walk returns
carries the slice ranks that walk reached, so the walk over its
relations rebuilds no slice: only the slices of J_f, whose rows the
saturation reads, are eliminated as canonical echelon forms.  Every
walk stops at a top degree read off the regularity
(``SaturationData.reg_saturated`` and ``reg_jacobian``): a module of
regularity r has its generators in degrees at most r and their
relations in degrees at most r + 1.  Both tables end in one
certificate, ``_certify``, which checks the twists against the Hilbert
function of the quotient (read off the slices) on degrees 0..kmax and
raises FreenessCheckFailed on a mismatch.  No Groebner bases anywhere:
everything is exact linear algebra against fixed monomial bases.

The generators of I_f are integer rows of the canonical slice basis,
picked in order, so repeated runs reproduce them bit for bit; only
``min_generators`` turns them into polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FreenessCheckFailedError, WrongShapeError
# kernel_int, rank_int and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import kernel_int, rank_int, rref_insert  # noqa: F401
from .jacobian import CurveData
from .poly import HomogeneousPoly, slice_dim
from .saturation import saturate


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
    """Castelnuovo-Mumford regularity of S/M: max(t - p) over the
    twists t of each position p, with the S in position zero
    contributing 0.  For a length-two table with some a_i > 0 this is
    max(a_i - 1, b_j - 2) over generators a and relations b."""
    best = 0
    for p, twists in enumerate(table.twists, start=1):
        for t in twists:
            best = max(best, t - p)
    return best


def min_generators(f):
    """Minimal generators of the saturated ideal: (degrees, polynomials),
    read off the generator scan (``SaturationData.generators``), which
    covers degrees 0..r_I + 1 = reg(I)."""
    gens = saturate(f).generators.module
    return list(gens.degrees), [HomogeneousPoly.from_vector(k, row)
                                for k, row in zip(gens.degrees,
                                                  gens.vectors)]


def _certify(twists, hilbert, kmax: int, name: str):
    """Check the twists of a free resolution of S/M against the Hilbert
    function of S/M on degrees 0..kmax: dim S_k plus the alternating
    sum over positions p of the dim S_(k-t), sign (-1)^p, must equal
    hilbert(k).  A mismatch raises FreenessCheckFailed."""
    for k in range(kmax + 1):
        predicted = slice_dim(k)
        sign = -1
        for position in twists:
            predicted += sign * sum(slice_dim(k - t) for t in position)
            sign = -sign
        actual = hilbert(k)
        if predicted != actual:
            raise FreenessCheckFailedError(
                f"Betti table of {name} fails its Hilbert function check "
                f"at degree {k}: resolution says {predicted}, slices say "
                f"{actual}")


def betti_saturated(f) -> BettiTable:
    """Betti table of S/I_f: (generators, relations), Hilbert-certified.

    The generators are the module of the scan
    (``SaturationData.generators``), their relations one
    ``FormsIdeal.relations`` walk over it up to r_I + 2: relations of I
    sit in degrees at most reg(I) + 1 = reg(S/I) + 2.  The walk reads
    the ranks the generator walk handed on, so no slice of I is
    eliminated again.  S/I has projective dimension at most two, so a
    nonzero relation position has one entry fewer than the generator
    position."""
    sat = saturate(f)
    gens = sat.generators.module
    a = gens.degrees
    b = gens.relations(sat.reg_saturated() + 2)[0]
    if b and len(b) != len(a) - 1:
        raise FreenessCheckFailedError(
            f"rank mismatch: {len(a)} generators vs {len(b)} relations")
    _certify((a, b), lambda k: slice_dim(k) - sat.i_dim(k), sat.kmax, "S/I_f")
    return BettiTable((tuple(sorted(a)), tuple(sorted(b))))


def betti_jacobian(f) -> BettiTable:
    """Betti table of S/J_f = M(f) for a curve with mdr >= 1.

    Positions: the three partials, then the minimal Jacobian syzygies
    (``CurveData.ar_min_generators``), then their own relations, each
    a ``FormsIdeal.relations`` walk in total degrees, so the twists are
    the degrees the walks return.  With r_J = reg(S/J_f)
    (``SaturationData.reg_jacobian``), a twist t in position p obeys
    t - p <= r_J: syzygy generators sit in degrees at most r_J - d + 3
    and their relations in total degrees at most r_J + 3.  The walk
    over the syzygies reads the ranks the first walk handed on.  The
    whole table is certified against the Hilbert function of M(f); a
    mismatch raises FreenessCheckFailed.
    """
    sat = saturate(f)
    cd = sat.data
    if not isinstance(cd, CurveData):
        raise WrongShapeError("the S/J_f table needs the Jacobian of a curve")
    if cd.mdr() == 0:
        raise WrongShapeError(
            "mdr = 0: the partials are not minimal generators of J_f")
    r_j = sat.reg_jacobian()
    ar = cd.ar_min_generators(r_j - cd.d + 3)[1]
    rels = ar.relations(r_j + 3)[0]
    twists = [cd.degrees, ar.degrees]
    if rels:
        twists.append(tuple(rels))
    _certify(twists, cd.milnor_dim, cd.kmax, "S/J_f")
    return BettiTable(tuple(twists))
