"""Exact integer linear algebra: one fraction-free elimination kernel.

There is one kernel, in pure Python, and no Fraction entry points:
every vector is a list of Python ints.  Rational input is cleared to
integers row by row (``clear_row``) before it gets here; scaling a row
changes neither the row span nor the kernel, so ranks, spans and
kernels of the cleared matrix are those of the rational one.

Three building blocks carry every exact operation:

- ``_eliminate``, the forward phase.  It is fraction-free: a pivot row
  p and a target row r with entries a = p[c], b = r[c] in the pivot
  column are combined as

      r := (a // g) * r - (b // g) * p,        g = gcd(a, b)

  and the result is divided by its content (gcd of its entries).
  Pivoting is deterministic: columns are processed left to right, and
  the pivot is the row with the smallest nonzero entry in absolute
  value in the current column (the first such row, the scan stopping
  at a unit).  Every row below is scaled by a // g, so a small pivot
  keeps the growth down; a unit pivot scales nothing and entries grow
  only additively.  The choice changes the echelon rows but not the
  pivot columns or the canonical RREF, which depend on the row span
  alone, so no result of this module depends on it.
- ``_residuals``, the one-step reduction of vectors modulo a canonical
  RREF, whose rows are zero at every pivot but their own.
- ``_clear``, the one row update of a reduced echelon form: a row is
  cleared of all the pivot columns it hits in one combined step and
  stripped of its content once.

``rank_int`` is the forward phase.  ``rref_int`` adds one ``_clear``
per echelon row and positive pivots: the unique canonical integer
echelon form of the row span, from which ``kernel_int`` reads a
canonical kernel basis.  ``rank_growth``, ``rref_extend`` and
``rref_insert`` add vectors to a canonical RREF through ``_residuals``
(and ``_clear``).  ``IncrementalSpan`` keeps its own sequential
reduction in a cheaper, non-canonical echelon form; the program does
not use it, it stays as the chain-scan tests' reference and a benchmark
trace site.
"""

from __future__ import annotations

from bisect import bisect, insort
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
    """vec divided by its content (gcd of its entries); vec if that is 1."""
    g = 0
    for v in vec:
        if v:
            g = gcd(g, v)
            if g == 1:
                return vec
    if g > 1:
        return [v // g for v in vec]
    return vec


def _eliminate(rows: list[list[int]], ncols: int) -> list[int]:
    """Forward phase in place; returns the pivot columns.

    Afterwards rows[:len(pivots)] are the echelon rows, primitive.
    Every row below the pivot row is zero left of the current column,
    so content stripping the whole row strips its live part.

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
            v = abs(rows[i][col])
            if v and (p < 0 or v < best):
                p, best = i, v
                if v == 1:
                    break
        if p < 0:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        a = prow[col]
        for j in range(r + 1, nrows):
            row = rows[j]
            b = row[col]
            if not b:
                continue
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            row[col] = 0
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


def rank_int(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix; consumes its argument."""
    return len(_eliminate(rows, ncols))


def rref_int(rows: list[list[int]], ncols: int):
    """Canonical (pivots, rows) reduced echelon form; consumes its argument.

    The rows returned are the nonzero ones: primitive, with positive
    pivot entries and zeros above and below each pivot.  Each echelon
    row is cleared once (``_clear``), against the final rows below it.
    """
    pivots = _eliminate(rows, ncols)
    npiv = len(pivots)
    del rows[npiv:]
    # a row changes only at its own turn, after every row below it, so
    # its hits are read off the echelon rows in one pass up front
    hits = [[] for _ in range(npiv)]
    for j, pc in enumerate(pivots):
        for i in range(j):
            if rows[i][pc]:
                hits[i].append((pc, j))
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    for i in range(npiv - 1, -1, -1):
        pc = pivots[i]
        if hits[i]:
            rows[i] = _clear(rows[i], pc, [(q, rows[j]) for q, j in hits[i]],
                             free[bisect(free, pc):])
        row = rows[i]
        if row[pc] < 0:
            for c in range(pc, ncols):
                row[c] = -row[c]
    return pivots, rows


def kernel_from_rref(pivots: Sequence[int], rows: Sequence[Sequence[int]],
                     ncols: int) -> list[list[int]]:
    """Canonical kernel basis of a matrix given its canonical RREF.

    One primitive integer vector per free column, positive at that
    column, taken in column order.
    """
    pivset = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in pivset:
            continue
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


def _residuals(pivots: Sequence[int], rows: Sequence[Sequence[int]],
               vecs: Iterable[Sequence[int]], ncols: int):
    """(free, residuals): the free columns of a canonical RREF and the
    nonzero residuals of vecs modulo its span, on those columns.

    Each row of a canonical RREF is zero at every other pivot, so a
    vector v is reduced in one step, L*v - sum (L/a_i) v[p_i] row_i with
    L the lcm of the pivot entries a_i it hits, and its residual lives
    on the free columns alone.  Neither rows nor vecs are modified.
    """
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    residuals = []
    for vec in vecs:
        hits = [(row, vec[pc], row[pc])
                for pc, row in zip(pivots, rows) if vec[pc]]
        scale = lcm(*(a for _, _, a in hits))
        res = [scale * vec[c] for c in free]
        for row, b, a in hits:
            m = (scale // a) * b
            for j, c in enumerate(free):
                v = row[c]
                if v:
                    res[j] -= m * v
        if any(res):
            residuals.append(res)
    return free, residuals


def rref_insert(pivots: list[int], rows: list[list[int]], vec: Sequence[int],
                ncols: int) -> bool:
    """Insert one vector into a canonical RREF in place.

    Returns True when the span grew.  The updated (pivots, rows) stay the
    canonical RREF of the enlarged span: the residual of vec (see
    ``_residuals``), primitive with a positive leading entry, becomes a
    new row and is cleared out of the old rows it hits.
    """
    free, residuals = _residuals(pivots, rows, (vec,), ncols)
    if not residuals:
        return False
    res = primitive(residuals[0])
    lead = next(j for j, v in enumerate(res) if v)
    if res[lead] < 0:
        res = [-v for v in res]
    new = [0] * ncols
    for c, v in zip(free, res):
        new[c] = v
    pc = free[lead]
    cols = free[:lead] + free[lead + 1:]
    pos = bisect(pivots, pc)
    for i in range(pos):
        if rows[i][pc]:
            rows[i] = _clear(rows[i], pivots[i], [(pc, new)], cols)
    pivots.insert(pos, pc)
    rows.insert(pos, new)
    return True


def rank_growth(pivots: Sequence[int], rows: Sequence[Sequence[int]],
                vecs: Iterable[Sequence[int]], ncols: int) -> int:
    """dim(span rows + span vecs) - len(pivots).

    (pivots, rows) must be a canonical RREF; it is not consumed.  The
    growth is the rank of the residuals of vecs on the free columns.
    """
    free, residuals = _residuals(pivots, rows, vecs, ncols)
    return rank_int(residuals, len(free))


def rref_extend(pivots: Sequence[int], rows: list[list[int]],
                vecs: Iterable[Sequence[int]], ncols: int):
    """Canonical RREF (pivots, rows) of span(rows) + span(vecs).

    (pivots, rows) must be a canonical RREF; its rows are consumed.  The
    residuals of vecs (see ``_residuals``) are row-reduced on the
    free columns only, and each old row is then cleared of the new
    pivot columns in one combined update.
    """
    free, residuals = _residuals(pivots, rows, vecs, ncols)
    npiv, nred = rref_int(residuals, len(free))
    if not npiv:
        return list(pivots), rows

    new_pivots = [free[j] for j in npiv]
    new_rows = []
    for red in nred:
        row = [0] * ncols
        for j, v in enumerate(red):
            if v:
                row[free[j]] = v
        new_rows.append(row)

    # an old row keeps its pivot and the free columns left after this step
    taken = set(new_pivots)
    rest = [c for c in free if c not in taken]
    for i, (pc, row) in enumerate(zip(pivots, rows)):
        hits = [(q, new) for q, new in zip(new_pivots, new_rows) if row[q]]
        if hits:
            rows[i] = _clear(row, pc, hits, rest)

    merged = sorted(zip(list(pivots) + new_pivots, rows + new_rows),
                    key=lambda t: t[0])
    return [pc for pc, _ in merged], [row for _, row in merged]


class IncrementalSpan:
    """Growing row span with cheap membership tests.

    Rows are kept in (non-canonical) echelon form ordered by pivot; the
    grew/did-not-grow answer of ``insert`` depends only on the span, so
    generator selection built on it is deterministic.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[tuple[int, list[int]]] = []  # (pivot, row), sorted

    def __len__(self) -> int:
        return len(self._rows)

    def _residual(self, vec: list[int]) -> tuple[int, list[int]]:
        for pc, row in self._rows:
            b = vec[pc]
            if not b:
                continue
            a = row[pc]
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            for c in range(self.ncols):
                vec[c] = ma * vec[c] - mb * row[c]
        lead = -1
        for c in range(self.ncols):
            if vec[c]:
                lead = c
                break
        return lead, vec

    def contains(self, vec: Sequence[int]) -> bool:
        lead, _ = self._residual(list(vec))
        return lead < 0

    def insert(self, vec: Sequence[int]) -> bool:
        lead, res = self._residual(list(vec))
        if lead < 0:
            return False
        insort(self._rows, (lead, primitive(res)))
        return True
