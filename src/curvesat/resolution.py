"""Minimal graded free resolutions of S/J_f and S/I_f.

Every entry point takes a curve or the ``SaturationData`` of one;
``saturate`` hands the latter back unchanged, so one saturation object
serves both tables, and its slices, regularities and generators are all
read off it.  No Groebner bases anywhere: everything is exact linear
algebra against fixed monomial bases, or arithmetic on numbers it
already gave.

Neither table takes an elimination of its own; each is a closed form
in numbers the analysis already has.  S/I_f (``betti_saturated``)
takes its generator degrees a_i from the count of
``SaturationData.generators`` and its relation twists from the Hilbert
numerator of S/I_f: S/I_f has projective dimension at most two, so
1 - sum t^(a_i) + sum t^(b_j) = (1 - t)^3 sum h_I(k) t^k fixes the b_j.
S/J_f (``jacobian_twists``) is a closed form in the Milnor table m_k
and the generator degrees g_j of N(f) = I_f/J_f.  Both reproduce their
Hilbert functions by construction, and a negative count raises
FreenessCheckFailed.

The public degree functions read these closed forms, so
``ar_min_generators`` is position 2 of ``jacobian_twists`` less d - 1.
``min_generators`` reads the generators that the count of
``SaturationData.generators`` picks: forms of J_f and lifts, which are
canonical kernel vectors, taken in order, so repeated runs reproduce
them bit for bit.  The Nakayama walk, ``jacobian.minimal_generators``,
only yields vectors, and no analysis runs it: over the relations of the
partials it is ``CurveData.ar_min_generators``, which yields the
syzygy vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FreenessCheckFailedError, WrongShapeError
# kernel_int, rank_int and rref_insert are unused here but stay bound:
# perfbench/spans.py patches this module's names
from .exactla import kernel_int, rank_int, rref_insert  # noqa: F401
from .jacobian import _data
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
    the picks of ``SaturationData.generators``, which cover degrees
    0..r_I + 1 = reg(I)."""
    scan = saturate(f).generators
    return list(scan.degrees), [HomogeneousPoly.from_vector(k, vec)
                                for k, vec in zip(scan.degrees,
                                                  scan.vectors)]


def _numerator(values, tail: int) -> list[int]:
    """The coefficients of (1 - t)^3 sum h_k t^k in degrees 0..K + 3,
    where h_k = values[k] for k <= K and tail above K: the Hilbert
    numerator of a module whose Hilbert function is constant from K
    on."""
    # h padded by three zeros below and the tail above K
    h = [0] * 3 + list(values) + [tail] * 3
    return [h[n + 3] - 3 * h[n + 2] + 3 * h[n + 1] - h[n]
            for n in range(len(h) - 3)]


def _middle_twists(values, tail: int, known, message: str) -> tuple:
    """The middle twists, ascending: ``_numerator`` - 1 + sum t^c over
    the known twists c of the first and last positions; a negative
    count raises FreenessCheckFailed with message."""
    series = _numerator(values, tail)
    series[0] -= 1
    for c in known:
        series[c] += 1
    if any(n < 0 for n in series):
        raise FreenessCheckFailedError(message)
    return tuple(t for t, n in enumerate(series) for _ in range(n))


def betti_saturated(f) -> BettiTable:
    """Betti table of S/I_f: (generators, relations), in closed form.

    The generator degrees a_i are the count of the scan
    (``SaturationData.generators``).  I is saturated, so S/I has depth
    at least one and, by Auslander-Buchsbaum, projective dimension at
    most two: its Hilbert numerator is

        P(t) = (1 - t)^3 sum h_I(k) t^k = 1 - sum t^(a_i) + sum t^(b_j),

    h_I(k) = dim S_k - ``i_dim(k)`` up to kmax and tau above it (I_k =
    J_k from 3e - 2 on).  With the generators known no cancellation is
    left to guess, and the relation twists are

        sum t^(b_j) = P(t) - 1 + sum t^(a_i).

    A negative coefficient there raises FreenessCheckFailed.  By
    construction the twists reproduce h_I in every degree, and P(1) =
    P'(1) = 0, P''(1) = 2 tau give len(b) = len(a) - 1, sum b = sum a
    and sum b^2 - sum a^2 = 2 tau."""
    sat = saturate(f)
    a = sat.generators.degrees
    b = _middle_twists(
        [slice_dim(k) - sat.i_dim(k) for k in range(sat.kmax + 1)],
        sat.data.tau(), a,
        "S/I_f relation twists have a negative count: the Hilbert "
        f"function of S/I_f and the generator degrees {list(a)} disagree")
    return BettiTable((tuple(a), b))


def jacobian_twists(f) -> tuple:
    """Twists of a free resolution of S/J_f whose first position is the
    three partials, (d - 1)^3, and whose later positions are minimal:
    AR(f)(-(d - 1)) in position 2, its relations in position 3 when
    there are any.  For mdr >= 1 this is the minimal resolution
    (``betti_jacobian``); for mdr = 0 the partials are not minimal, but
    position 2 still gives the generator degrees of AR(f) as b - (d - 1)
    (``ar_degrees``).

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
    cd = _data(sat)
    last = sorted(3 * cd.d - 3 - g for g in sat.generators.n_degrees)
    middle = _middle_twists(
        cd.milnor_dims(), cd.tjurina(), (cd.d - 1,) * 3 + tuple(last),
        "S/J_f twists of position 2 have a negative count: the Milnor "
        f"table and the generator degrees {list(sat.generators.n_degrees)} "
        "of N(f) disagree")
    return ((cd.d - 1,) * 3, middle) + ((tuple(last),) if last else ())


def ar_degrees(twists) -> list[int]:
    """The generator degrees of AR(f), ascending, from the twists of
    ``jacobian_twists``: position 2 less d - 1, that of position 1."""
    return [b - twists[0][0] for b in twists[1]]


def ar_min_generators(f) -> list[int]:
    """Sorted minimal generator degrees of AR(f), mdr = 0 included, with
    no AR(f) kernel taken (``CurveData.ar_min_generators`` walks for
    the generators themselves)."""
    return ar_degrees(jacobian_twists(f))


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
