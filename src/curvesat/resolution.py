"""Minimal graded free resolutions of S/J_f and S/I_f.

Every entry point takes a curve or the ``SaturationData`` of one;
``saturate`` hands the latter back unchanged, so one saturation object
serves both tables, and its slices, regularities and generators are all
read off it.  No Groebner bases anywhere: everything is exact linear
algebra against fixed monomial bases, or arithmetic on numbers it
already gave.

S/I_f comes from one Nakayama walk, ``jacobian.minimal_generators``,
run twice: its generators are that walk over the slices of I_f
(``SaturationData.generators``), and its relations the walk over the
kernel of the generator map (``jacobian.FormsIdeal.relations``).  The
module the first walk returns carries the slice ranks it reached, so
the relation walk rebuilds no slice.  The walk stops at r_I + 2, read
off the regularity r_I = ``SaturationData.reg_saturated``: an ideal of
regularity r_I + 1 has its relations in degrees at most r_I + 2.  The
table ends in one certificate, ``_certify``, which checks the twists
against the Hilbert function of S/I_f on degrees 0..kmax and raises
FreenessCheckFailed on a mismatch.

S/J_f takes no elimination of its own: its table is a closed form in
the Milnor table m_k and the generator degrees g_j of N(f) = I_f/J_f,
both of which the analysis already has (see ``jacobian_twists``).  The
AR(f) walk, ``CurveData.ar_min_generators``, which also yields the
syzygy vectors, serves the public ``ar_min_generators`` and not the
table.

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
from .poly import HomogeneousPoly, slice_dim, twists_dim
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
    function of S/M on degrees 0..kmax: the alternating sum
    ``twists_dim(twists, k)`` must equal hilbert(k).  A mismatch raises
    FreenessCheckFailed."""
    for k in range(kmax + 1):
        predicted = twists_dim(twists, k)
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


def jacobian_twists(f) -> tuple:
    """Twists of a free resolution of S/J_f whose first position is the
    three partials, (d - 1)^3, and whose later positions are minimal:
    AR(f)(-(d - 1)) in position 2, its relations in position 3 when
    there are any.  For mdr >= 1 this is the minimal resolution
    (``betti_jacobian``); for mdr = 0 the partials are not minimal, but
    position 2 still gives the generator degrees of AR(f) as b - (d - 1).

    No AR(f) kernel is taken.  The Hilbert series of M(f) = S/J_f is
    P(t)/(1 - t)^3 with the numerator

        P(t) = (1 - t)^3 sum m_k t^k = 1 - 3t^(d-1) + sum t^(b_i)
                                        - sum t^(c_j),

    m_k = ``milnor_dims()`` up to kmax = 3d - 3 and tau above it (the
    table is tau from 3d - 5 on, see ``FormsIdeal.tau``), so P has
    degree at most kmax + 3.  The last twists are c_j = 3d - 3 - g_j,
    g_j the minimal generator degrees of N(f)
    (``SaturationData.generators``): by graded local duality N(f) =
    H^0_m(S/J_f) is dual to Ext^3(S/J_f, S)(-3), and N(f) is self-dual
    about T = 3d - 6 (Sernesi, "The local cohomology of the Jacobian
    ring", Doc. Math. 19, 2014), so Ext^3(S/J_f, S) = N(f)(3d - 3), with
    minimal generators in degrees g_j - 3d + 3 = -c_j.  Ext^3 is the
    cokernel of the dual of the last map of the resolution, which is
    minimal, so those generators are the dual basis of the last free
    module, ⊕ S(c_j).  With the first and last positions known no
    cancellation is left to guess:

        sum t^(b_i) = P(t) - 1 + 3t^(d-1) + sum t^(c_j),

    and a negative coefficient there raises FreenessCheckFailed.  By
    construction the twists reproduce m_k in every degree.
    """
    sat = saturate(f)
    cd = sat.data
    if not isinstance(cd, CurveData):
        raise WrongShapeError("the S/J_f table needs the Jacobian of a curve")
    # the Milnor table padded by three zeros below and tau above kmax
    h = [0] * 3 + cd.milnor_dims() + [cd.tjurina()] * 3
    series = [h[n + 3] - 3 * h[n + 2] + 3 * h[n + 1] - h[n]
              for n in range(len(h) - 3)]
    last = sorted(3 * cd.d - 3 - g for g in sat.generators.n_degrees)
    series[0] -= 1
    series[cd.d - 1] += 3
    for c in last:
        series[c] += 1
    if any(n < 0 for n in series):
        raise FreenessCheckFailedError(
            "S/J_f twists of position 2 have a negative count: the "
            "Milnor table and the generator degrees "
            f"{list(sat.generators.n_degrees)} of N(f) disagree")
    middle = tuple(t for t, n in enumerate(series) for _ in range(n))
    return ((cd.d - 1,) * 3, middle) + ((tuple(last),) if last else ())


def betti_jacobian(f) -> BettiTable:
    """Betti table of S/J_f = M(f) for a curve with mdr >= 1: the three
    partials, the minimal generators of AR(f)(-(d - 1)) and their
    relations, in the closed form of ``jacobian_twists``.  With mdr = 0
    the partials are not minimal generators of J_f, and WrongShapeError
    is raised."""
    sat = saturate(f)
    twists = jacobian_twists(sat)
    if sat.data.mdr() == 0:
        raise WrongShapeError(
            "mdr = 0: the partials are not minimal generators of J_f")
    return BettiTable(twists)
