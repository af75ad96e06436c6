"""Exact linear algebra over the rationals.

Public entry points take matrices of ``Fraction`` entries; internally
every row is scaled to integers (scaling a row changes neither the row
span nor the kernel) and handed to the fraction-free elimination backend.
Everything is deterministic: pivoting is first-nonzero in column order,
and reduced echelon forms and kernel bases are canonical, so repeated
runs and both backends give identical output.

The integer-level helpers (``rref_int``, ``kernel_int``, ``rref_insert``,
``rref_extend``, ``IncrementalSpan``) are the workhorses for the graded
computations in the rest of the package, which keep all vectors as
primitive integer lists.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import backend
from .errors import SubspaceNotContainedError, WrongShapeError

Rat = Fraction


@dataclass(frozen=True)
class QMatrix:
    """Immutable dense matrix with Fraction entries, stored row-major."""

    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "QMatrix":
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise WrongShapeError("ragged rows")
        else:
            ncols = 0
        return cls(len(data), ncols, data)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def transpose(self) -> "QMatrix":
        return QMatrix(self.ncols, self.nrows,
                       tuple(zip(*self.entries)) if self.entries else ())

    def int_rows(self) -> list[list[int]]:
        return [clear_row(row) for row in self.entries]


def clear_row(row: Sequence) -> list[int]:
    """Scale a rational row to integers (denominators cleared)."""
    den = 1
    for v in row:
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    if den == 1:
        return [int(v) for v in row]
    return [int(v * den) for v in row]


def int_rows(vectors: Iterable[Sequence]) -> list[list[int]]:
    return [clear_row(v) for v in vectors]


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


def rank_int(rows: list[list[int]], ncols: int) -> int:
    """Rank; consumes its argument."""
    return backend.rank_rows(rows, ncols)


def rref_int(rows: list[list[int]], ncols: int):
    """Canonical (pivots, rows) reduced echelon form; consumes its argument."""
    return backend.rref_rows(rows, ncols)


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
        gg = 0
        for v in row:
            if v:
                gg = gcd(gg, v)
                if gg == 1:
                    break
        if gg > 1:
            for c in range(ncols):
                row[c] //= gg
        if row[opc] < 0:
            for c in range(ncols):
                row[c] = -row[c]
    pos = 0
    while pos < len(pivots) and pivots[pos] < pc:
        pos += 1
    pivots.insert(pos, pc)
    rows.insert(pos, vec)
    return True


def rref_extend(pivots: Sequence[int], rows: list[list[int]],
                vecs: Iterable[Sequence[int]], ncols: int):
    """Canonical RREF (pivots, rows) of span(rows) + span(vecs).

    (pivots, rows) must be a canonical RREF; its rows are consumed.
    Each row of a canonical RREF is zero at every other pivot, so a
    vector v is reduced in one step, L*v - sum (L/a_i) v[p_i] row_i with
    L the lcm of the pivot entries a_i it hits, and its residual lives
    on the free columns alone.  The residuals are row-reduced on those
    columns only, and each old row is then cleared of the new pivot
    columns in one combined update.
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


def rank(m: QMatrix) -> int:
    return rank_int(m.int_rows(), m.ncols)


def kernel_basis(m: QMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, as primitive integer tuples."""
    return [tuple(v) for v in kernel_int(m.int_rows(), m.ncols)]


def quotient_dim(ambient: Iterable[Sequence], sub: Iterable[Sequence]) -> int:
    """dim span(ambient)/span(sub); error if sub is not contained in ambient."""
    arows = int_rows(ambient)
    brows = int_rows(sub)
    if not arows and not brows:
        return 0
    ncols = len(arows[0]) if arows else len(brows[0])
    ra = rank_int([list(r) for r in arows], ncols)
    rb = rank_int([list(r) for r in brows], ncols)
    rab = rank_int(arows + brows, ncols)
    if rab != ra:
        raise SubspaceNotContainedError(
            "sub spans a direction outside the ambient space")
    return ra - rb
