"""Exact integer linear algebra: one fraction-free elimination kernel.

There is one kernel, in pure Python, and no Fraction entry points:
every vector is a list of Python ints.  Rational input is cleared to
integers row by row (``clear_row``) before it gets here; scaling a row
changes neither the row span nor the kernel, so ranks, spans and
kernels of the cleared matrix are those of the rational one.

The elimination is fraction-free: a pivot row p and a target row r with
entries a = p[c], b = r[c] in the pivot column are combined as

    r := (a // g) * r - (b // g) * p,        g = gcd(a, b)

and the result is divided by its content (gcd of its entries).  Pivoting
is deterministic: columns are processed left to right and the first row
with a nonzero entry in the current column wins.  Reduced echelon forms
finish with back substitution, content stripping and positive pivots,
which makes them the unique canonical integer echelon form of the row
span; kernel bases are canonical too, so repeated runs give identical
output.

``rref_int``, ``rank_int`` and ``kernel_int`` work on a whole matrix;
``rref_extend`` and ``rank_growth`` add vectors to a canonical RREF in
one step; ``rref_insert`` adds one vector at a time, and
``IncrementalSpan`` grows a span in a cheaper, non-canonical echelon
form.
"""

from __future__ import annotations

from bisect import insort
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
    """
    nrows = len(rows)
    for i in range(nrows):
        rows[i] = primitive(rows[i])
    pivots = []
    r = 0
    for col in range(ncols):
        p = -1
        for i in range(r, nrows):
            if rows[i][col]:
                p = i
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


def rank_int(rows: list[list[int]], ncols: int) -> int:
    """Rank of an integer matrix; consumes its argument."""
    return len(_eliminate(rows, ncols))


def rref_int(rows: list[list[int]], ncols: int):
    """Canonical (pivots, rows) reduced echelon form; consumes its argument.

    The rows returned are the nonzero ones: primitive, with positive
    pivot entries and zeros above and below each pivot.
    """
    pivots = _eliminate(rows, ncols)
    npiv = len(pivots)
    del rows[npiv:]
    for idx in range(npiv - 1, -1, -1):
        pc = pivots[idx]
        prow = rows[idx]
        a = prow[pc]
        for q in range(idx):
            row = rows[q]
            b = row[pc]
            if not b:
                continue
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            if ma != 1:
                for c in range(pivots[q], pc):
                    row[c] *= ma
            row[pc] = 0
            for c in range(pc + 1, ncols):
                row[c] = ma * row[c] - mb * prow[c]
            rows[q] = primitive(row)
    for idx in range(npiv):
        row = rows[idx]
        if row[pivots[idx]] < 0:
            for c in range(pivots[idx], ncols):
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


def reduce_row(pivots: Sequence[int], rows: Sequence[Sequence[int]],
               vec: list[int]) -> list[int]:
    """Residual of vec modulo the span of echelon rows (consumed, primitive).

    Zero residual means membership.  Works for any forward echelon form
    as long as rows are listed in increasing pivot order.
    """
    n = len(vec)
    for i, pc in enumerate(pivots):
        b = vec[pc]
        if not b:
            continue
        row = rows[i]
        a = row[pc]
        g = gcd(a, b)
        ma = a // g
        mb = b // g
        for c in range(n):
            vec[c] = ma * vec[c] - mb * row[c]
    return primitive(vec)


def rref_insert(pivots: list[int], rows: list[list[int]], vec: list[int],
                ncols: int) -> bool:
    """Insert one vector into a canonical RREF in place.

    Returns True when the span grew.  The updated (pivots, rows) stay the
    canonical RREF of the enlarged span.
    """
    vec = reduce_row(pivots, rows, list(vec))
    pc = -1
    for c in range(ncols):
        if vec[c]:
            pc = c
            break
    if pc < 0:
        return False
    if vec[pc] < 0:
        vec = [-v for v in vec]
    # clear column pc in the existing rows (only rows with pivot < pc can hit it)
    a = vec[pc]
    for i, opc in enumerate(pivots):
        if opc > pc:
            break
        row = rows[i]
        b = row[pc]
        if not b:
            continue
        g = gcd(a, b)
        ma = a // g
        mb = b // g
        for c in range(ncols):
            row[c] = ma * row[c] - mb * vec[c]
        rows[i] = row = primitive(row)
        if row[opc] < 0:
            for c in range(ncols):
                row[c] = -row[c]
    pos = 0
    while pos < len(pivots) and pivots[pos] < pc:
        pos += 1
    pivots.insert(pos, pc)
    rows.insert(pos, vec)
    return True


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
        hits = [(new, row[q], new[q])
                for q, new in zip(new_pivots, new_rows) if row[q]]
        if not hits:
            continue
        scale = lcm(*(a for _, _, a in hits))
        if scale != 1:
            row[pc] *= scale
            for c in rest:
                row[c] *= scale
        for new, b, a in hits:
            m = (scale // a) * b
            for c in rest:
                v = new[c]
                if v:
                    row[c] -= m * v
        for q in new_pivots:
            row[q] = 0
        rows[i] = primitive(row)

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
