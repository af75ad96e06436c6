"""Exact integer linear algebra: one fraction-free elimination kernel.

There is one kernel, in pure Python, and no Fraction entry points:
every vector is a list of Python ints.  Rational input is cleared to
integers before it gets here, each polynomial by ``poly.primitivize``;
scaling a row changes neither the row span nor the kernel, so ranks,
spans and kernels of the cleared matrix are those of the rational one.
``clear_row`` no longer receives that input and has no caller in the
package: ``saturation`` keeps it bound only for the benchmark's tracer
(``perfbench/spans.py``).

A forward echelon form is a list of rows with distinct leading
columns, its pivots, in increasing order.  Three building blocks carry
every exact operation:

- ``_eliminate``, the forward phase.  It is fraction-free: a pivot row
  p and a target row r with entries a = p[c], b = r[c] in the pivot
  column are combined as

      r := (a // g) * r - (b // g) * p,        g = gcd(a, b)

  and the result is divided by its content (gcd of its entries).
  Where a // g = 1 the target row is not scaled, so only the columns
  where the pivot row is nonzero change, and the update walks those
  alone, listed once per pivot; otherwise it walks every column right
  of the pivot.  Either way the arithmetic is the same, entry by entry.
  Pivoting is deterministic: columns are processed left to right, and
  the pivot is the row with the smallest nonzero entry in absolute
  value in the current column (the first such row, the scan stopping
  at a unit).  Every row below is scaled by a // g, so a small pivot
  keeps the growth down; a unit pivot scales nothing and entries grow
  only additively.  The choice changes the echelon rows but not the
  pivot columns or the canonical RREF, which depend on the row span
  alone, so no result of this module depends on it.
- ``_reduce``, the one reduction of a vector modulo a forward echelon
  form, by the same update, one row after another in pivot order.  A
  canonical RREF is a forward echelon form, so it is reduced the same
  way.
- ``back_phase``: from the bottom up, each echelon row is cleared of
  the pivot columns of the rows below it in one combined update
  (``_clear``) and made positive at its pivot.  The result is the
  canonical RREF of the span: primitive rows, positive pivots and
  zeros above and below each pivot, which depends on the span alone.

``rank_int`` is the forward phase, ``rref_int`` the forward and the
back phase, and ``kernel_int`` reads a canonical kernel basis off
``rref_int``.  ``IncrementalSpan.extend`` is the one way vectors join
a span: it reduces them (``_reduce``), runs the forward phase on their
residuals on the free columns (``complement``) and merges the new rows
in by pivot.  ``IncrementalSpan.insert`` is a one-vector ``extend``.
``rref_insert`` is ``insert`` followed by ``back_phase``, written back
into the caller's lists; no module of the package calls it, and three
of them keep it bound for the benchmark's tracer.
``IncrementalSpan`` keeps a span in forward echelon form, with no back
phase: its pivots, rank and grew/did-not-grow answers are those of the
canonical form.  The generator pick of
``saturation.SaturationData.generators`` reads ``insert``'s answers on
spans of its own, and ``jacobian.ShiftChain`` is one too: the Nakayama
walk of ``jacobian.minimal_generators`` reads its pivot count and
``insert``'s answers, and ``jacobian.FormsIdeal.slice_at`` runs
``back_phase`` on the slices a step starts from or whose rows
``rref_at`` hands out.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def clear_row(row: Sequence) -> list[int]:
    """Scale a rational row to integers (denominators cleared)."""
    den = 1
    for v in row:
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    if den == 1:
        return [int(v) for v in row]
    return [int(v * den) for v in row]


def primitive(vec: list[int]) -> list[int]:
    """vec divided by its content (gcd of its entries); vec if that is 1.
    Only the nonzero entries are read."""
    g = 0
    for v in filter(None, vec):
        g = gcd(g, v)
        if g == 1:
            return vec
    if g > 1:
        return [v // g for v in vec]
    return vec


def complement(pivots: Iterable[int], ncols: int) -> list[int]:
    """The columns below ncols that are not pivots, in increasing order:
    the free columns of an echelon form, and the monomials outside a
    slice of an ideal given the pivots of its RREF."""
    pivset = set(pivots)
    return [c for c in range(ncols) if c not in pivset]


def _eliminate(rows: list[list[int]], ncols: int) -> list[int]:
    """Forward phase in place; returns the pivot columns.

    Afterwards rows[:len(pivots)] are the echelon rows, primitive.
    Every row below the pivot row is zero left of the current column,
    so content stripping the whole row strips its live part.  A row
    whose multiplier a / gcd(a, b) is 1 changes only where the pivot
    row is nonzero, so its update reads the list of those columns,
    built at the first such row of the pivot; any other multiplier
    scales every entry, and the update walks every column.  On
    monomial-sparse matrices the unit pivots that the rule below
    prefers make the first case the common one.

    The pivot of a column is the row with the smallest |entry| there,
    the first among ties, and the scan stops at a unit.  A row below
    with entry b is scaled by a / gcd(a, b), so a small pivot entry a
    bounds the growth, and with a = ±1 nothing is scaled.  The pivot
    columns are the first columns where the rank of the leading columns
    grows, and the echelon rows span the input, so callers that read
    the pivots or reduce to the canonical RREF see the same result
    under any choice of pivot row.
    """
    nrows = len(rows)
    for i in range(nrows):
        rows[i] = primitive(rows[i])
    pivots = []
    r = 0
    for col in range(ncols):
        p, best = -1, 0
        for i in range(r, nrows):
            v = rows[i][col]
            if v:
                v = abs(v)
                if p < 0 or v < best:
                    p, best = i, v
                    if v == 1:
                        break
        if p < 0:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        a = prow[col]
        nonzero = None
        for j in range(r + 1, nrows):
            row = rows[j]
            b = row[col]
            if not b:
                continue
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            row[col] = 0
            if ma == 1:
                if nonzero is None:
                    nonzero = [(c, v) for c, v in enumerate(prow[col + 1:],
                                                            col + 1) if v]
                for c, v in nonzero:
                    row[c] -= mb * v
            else:
                for c in range(col + 1, ncols):
                    row[c] = ma * row[c] - mb * prow[c]
            rows[j] = primitive(row)
        pivots.append(col)
        r += 1
    return pivots


def _clear(row: list[int], pc: int, hits, cols) -> list[int]:
    """row cleared of the pivot columns of canonical RREF rows, at once.

    row has its pivot at pc; hits lists (q, prow), prow a canonical row
    with pivot column q where row[q] is nonzero.  Returns
    L*row - sum (L/a) row[q] prow, a = prow[q] and L the lcm of these a,
    content stripped: zero at every q, with row's pivot sign.  cols are
    the other columns where row or a prow can be nonzero, no pivot
    column among them.  row is consumed.
    """
    terms = [(prow, row[q], prow[q]) for q, prow in hits]
    scale = lcm(*(a for _, _, a in terms))
    if scale != 1:
        row[pc] *= scale
        for c in cols:
            row[c] *= scale
    for prow, b, a in terms:
        m = (scale // a) * b
        for c in cols:
            v = prow[c]
            if v:
                row[c] -= m * v
    for q, _ in hits:
        row[q] = 0
    return primitive(row)


def back_phase(pivots: Sequence[int], rows: list[list[int]],
               ncols: int) -> None:
    """Back phase in place: forward echelon rows with pivots become the
    canonical RREF of their span.

    Each row is cleared once (``_clear``), against the final rows below
    it, and made positive at its pivot.
    """
    npiv = len(pivots)
    # a row changes only at its own turn, after every row below it, so
    # its hits are read off the echelon rows in one pass up front
    hits = [[] for _ in range(npiv)]
    for j, pc in enumerate(pivots):
        for i in range(j):
            if rows[i][pc]:
                hits[i].append((pc, j))
    free = complement(pivots, ncols)
    for i in range(npiv - 1, -1, -1):
        pc = pivots[i]
        if hits[i]:
            rows[i] = _clear(rows[i], pc, [(q, rows[j]) for q, j in hits[i]],
                             free[bisect(free, pc):])
        row = rows[i]
        if row[pc] < 0:
            for c in range(pc, ncols):
                row[c] = -row[c]


def rank_int(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix; consumes its argument, whose first
    rank rows are left a forward echelon form of its row span
    (``_eliminate``)."""
    return len(_eliminate(rows, ncols))


def rref_int(rows: list[list[int]], ncols: int):
    """Canonical (pivots, rows) reduced echelon form; consumes its argument.

    The rows returned are the nonzero ones: primitive, with positive
    pivot entries and zeros above and below each pivot.
    """
    pivots = _eliminate(rows, ncols)
    del rows[len(pivots):]
    back_phase(pivots, rows, ncols)
    return pivots, rows


def kernel_from_rref(pivots: Sequence[int], rows: Sequence[Sequence[int]],
                     ncols: int) -> list[list[int]]:
    """Canonical kernel basis of a matrix given its canonical RREF.

    One primitive integer vector per free column, positive at that
    column, taken in column order.
    """
    out = []
    for fc in complement(pivots, ncols):
        touched = []
        for i, pc in enumerate(pivots):
            if pc > fc:
                break
            v = rows[i][fc]
            if v:
                touched.append((i, pc, v))
        scale = 1
        for i, pc, _ in touched:
            scale = lcm(scale, rows[i][pc])
        vec = [0] * ncols
        vec[fc] = scale
        for i, pc, v in touched:
            vec[pc] = -v * (scale // rows[i][pc])
        out.append(primitive(vec))
    return out


def kernel_int(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Canonical kernel basis of an integer matrix; consumes its argument."""
    pivots, red = rref_int(rows, ncols)
    return kernel_from_rref(pivots, red, ncols)


def _reduce(pivots: Sequence[int], rows: Sequence[Sequence[int]],
            vec: Sequence[int]) -> Sequence[int]:
    """vec reduced modulo a forward echelon form, one row after another.

    rows have distinct leading columns pivots, in increasing order.
    Each hit is one fraction-free update r := (a // g) * r - (b // g) *
    row, g = gcd(a, b), of a new list, so vec is never written and is
    returned itself when nothing hits it.  A row is zero left of its
    pivot, so it never refills an earlier pivot column, and the result
    is zero at every pivot.  It is nonzero exactly when vec lies outside
    the span, since a combination of rows with distinct leading columns
    is nonzero at the first of them.  The content is not stripped.
    """
    for pc, row in zip(pivots, rows):
        b = vec[pc]
        if b:
            a = row[pc]
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            vec = [ma * u - mb * v for u, v in zip(vec, row)]
    return vec


class IncrementalSpan:
    """Growing row span in forward echelon form.

    The rows have distinct leading columns, kept in pivot order, and are
    never back-substituted: a vector is reduced against them with
    ``_reduce``.  The pivot columns are the first columns where the rank
    of the leading columns grows, so they, the rank and the
    grew/did-not-grow answer of ``insert`` depend on the span alone, and
    generator selection built on it is deterministic.  The rows
    themselves depend on the order of insertion; the walk reads none.
    """

    def __init__(self, ncols: int, pivots=(), rows=()):
        self.ncols = ncols
        self.pivots = list(pivots)
        self.rows = list(rows)

    def insert(self, vec: Sequence[int]) -> bool:
        """Add one vector, a one-vector ``extend``; True when the span
        grew."""
        npiv = len(self.pivots)
        self.extend((vec,))
        return len(self.pivots) > npiv

    def extend(self, vecs: Iterable[Sequence[int]]) -> None:
        """Add vecs at once: their residuals (``_reduce``) on the free
        columns go through the forward phase (``_eliminate``), whose
        echelon rows are merged in by pivot.

        Neither vecs nor the rows already in the span are written; the
        pivots and rows lists are rewritten in place when the span grows.
        """
        free = complement(self.pivots, self.ncols)
        residuals = []
        for vec in vecs:
            res = _reduce(self.pivots, self.rows, vec)
            if any(res):
                residuals.append([res[c] for c in free])
        new = _eliminate(residuals, len(free))
        if not new:
            return
        merged = list(zip(self.pivots, self.rows))
        for j, red in zip(new, residuals):
            row = [0] * self.ncols
            for c, v in zip(free, red):
                if v:
                    row[c] = v
            merged.append((free[j], row))
        merged.sort(key=lambda t: t[0])
        self.pivots[:] = [pc for pc, _ in merged]
        self.rows[:] = [row for _, row in merged]


def rref_insert(pivots: list[int], rows: list[list[int]], vec: Sequence[int],
                ncols: int) -> bool:
    """Insert one vector into a forward echelon form in place; True when
    the span grew.

    (pivots, rows) may be any forward echelon form, a canonical RREF
    included; both lists are rewritten in place to the canonical RREF
    of the enlarged span: ``IncrementalSpan.insert`` followed by
    ``back_phase``.  The rows they held are consumed; vec is not
    modified.
    """
    span = IncrementalSpan(ncols, pivots, rows)
    grew = span.insert(vec)
    back_phase(span.pivots, span.rows, ncols)
    pivots[:], rows[:] = span.pivots, span.rows
    return grew
