"""Exact integer linear algebra: ranks, kernels, canonical RREF."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from curvesat.exactla import (
    IncrementalSpan,
    _eliminate,
    back_phase,
    clear_row,
    kernel_from_rref,
    kernel_int,
    rank_int,
    rref_insert,
    rref_int,
)


def _growth(pivots, rows, vecs, ncols):
    """dim(span rows + span vecs) - len(pivots), through an
    ``IncrementalSpan`` that shares the rows; ``extend`` writes none."""
    span = IncrementalSpan(ncols, pivots, rows)
    span.extend(vecs)
    return len(span.pivots) - len(pivots)


def test_rank_identity():
    assert rank_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3


def test_rank_zero_matrix():
    assert rank_int([[0, 0], [0, 0]], 2) == 0


def test_rank_proportional_rows():
    assert rank_int([[1, 2], [2, 4], [3, 6]], 2) == 1


def test_kernel_of_identity_is_empty():
    assert kernel_int([[1, 0], [0, 1]], 2) == []


def test_kernel_of_difference_row():
    assert kernel_int([[1, -1]], 2) == [[1, 1]]


def test_clear_row_clears_denominators():
    # scales by the lcm of denominators; integer content is kept
    assert clear_row([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_row([Fraction(2), Fraction(4)]) == [2, 4]
    assert clear_row([0, 0]) == [0, 0]


def test_pivot_is_the_smallest_entry_of_its_column():
    rows = [[6, 1], [1, 5]]
    assert _eliminate(rows, 2) == [0, 1]
    assert rows == [[1, 5], [0, -1]]
    # the first of two smallest entries wins
    rows = [[4, 1], [-2, 3], [2, 7]]
    assert _eliminate(rows, 2) == [0, 1]
    assert rows[0] == [-2, 3]


def test_rref_is_canonical():
    # rows reduced upward, positive primitive pivots
    pivots, rows = rref_int([[2, 2, 4], [0, 3, 3]], 3)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 1]]


@st.composite
def int_matrices(draw, min_dim=1, max_dim=6, bound=9):
    nrows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    ncols = draw(st.integers(min_value=min_dim, max_value=max_dim))
    entries = st.integers(min_value=-bound, max_value=bound)
    rows = draw(st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    return rows, ncols


@st.composite
def hidden_unit_matrices(draw):
    """7x7 matrices of 40-bit entries with a +-1 below the top row in
    some columns, so the pivot search passes big entries to reach it."""
    rows, ncols = draw(int_matrices(min_dim=7, max_dim=7, bound=10 ** 12))
    for col in draw(st.sets(st.integers(0, ncols - 1), min_size=1)):
        i = draw(st.integers(min_value=1, max_value=len(rows) - 1))
        rows[i][col] = draw(st.sampled_from((1, -1)))
    return rows, ncols


# fraction-free elimination grows entries fast; 7x7 matrices with
# 40-bit entries keep the big-integer paths covered
small_or_large_matrices = st.one_of(
    int_matrices(), int_matrices(min_dim=7, max_dim=7, bound=10 ** 12),
    hidden_unit_matrices())


@given(int_matrices())
def test_rank_plus_nullity(mat):
    rows, ncols = mat
    r = rank_int([list(v) for v in rows], ncols)
    ker = kernel_int([list(v) for v in rows], ncols)
    assert r + len(ker) == ncols


@given(int_matrices())
def test_rank_equals_transpose_rank(mat):
    rows, ncols = mat
    cols = [list(t) for t in zip(*rows)]
    assert (rank_int([list(v) for v in rows], ncols)
            == rank_int(cols, len(rows)))


@given(int_matrices())
def test_kernel_vectors_annihilate(mat):
    rows, ncols = mat
    for vec in kernel_int([list(v) for v in rows], ncols):
        assert any(vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(small_or_large_matrices)
def test_rref_idempotent(mat):
    rows, ncols = mat
    piv1, red1 = rref_int([list(v) for v in rows], ncols)
    piv2, red2 = rref_int([list(v) for v in red1], ncols)
    assert piv1 == piv2
    assert red1 == red2


@given(int_matrices())
def test_rows_of_a_matrix_lie_in_its_rref_span(mat):
    rows, ncols = mat
    pivots, red = rref_int([list(v) for v in rows], ncols)
    before = (list(pivots), [list(r) for r in red])
    for row in rows:
        assert _growth(pivots, red, [list(row)], ncols) == 0
        assert not rref_insert(pivots, red, list(row), ncols)
    assert (pivots, red) == before


def test_rref_insert_residual_outside_span():
    pivots, red = rref_int([[1, 0, 0]], 3)
    assert rref_insert(pivots, red, [2, 3, 0], 3)
    assert (pivots, red) == ([0, 1], [[1, 0, 0], [0, 1, 0]])


# -- an engine-independent reference: Gauss-Jordan over Fraction -------


def _scaled(vec, at):
    """Rational vec as primitive integers, positive at column at."""
    den = lcm(*(Fraction(v).denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    if ints[at] < 0:
        g = -g
    return [v // g for v in ints]


def _fraction_rref(rows, ncols):
    """(pivots, rows) of the reduced echelon form over Q, pivots 1.

    It pivots on the first nonzero entry of a column, not on the
    engine's smallest one, so the two agree only through the row span.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[col]:
                f = row[col]
                mat[i] = [a - f * b for a, b in zip(row, mat[r])]
        pivots.append(col)
    return pivots, mat[:len(pivots)]


@given(small_or_large_matrices)
def test_exact_operations_match_a_fraction_reference(mat):
    rows, ncols = mat
    pivots, red = _fraction_rref(rows, ncols)
    want = (pivots, [_scaled(row, pc) for pc, row in zip(pivots, red)])
    assert rref_int([list(v) for v in rows], ncols) == want
    half = len(rows) // 2
    hpiv, hrows = rref_int([list(v) for v in rows[:half]], ncols)
    rest = [list(v) for v in rows[half:]]
    # counting the growth reads the RREF without consuming it
    assert _growth(hpiv, hrows, rest, ncols) == len(pivots) - len(hpiv)
    extended = (list(hpiv), [list(r) for r in hrows])
    for row in rest:
        rref_insert(*extended, list(row), ncols)
    assert extended == want
    built = ([], [])
    for row in rows:
        rref_insert(*built, list(row), ncols)
    assert built == want
    # the forward echelon span: same pivots and rank, rows of that span
    span = IncrementalSpan(ncols)
    for row in rows[:half]:
        span.insert(row)
    assert span.pivots == hpiv
    assert (_growth(span.pivots, span.rows, rest, ncols)
            == len(pivots) - len(hpiv))
    span.extend(rest)
    assert span.pivots == pivots
    assert rref_int([list(r) for r in span.rows], ncols) == want
    # null space: one vector per free column, 1 there, -row[fc] at pivots
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, red):
            vec[pc] = -row[fc]
        kernel.append(_scaled(vec, fc))
    assert kernel_int([list(v) for v in rows], ncols) == kernel


def test_incremental_span_membership():
    span = IncrementalSpan(3)
    assert span.insert([1, 1, 0])
    assert not span.insert([2, 2, 0])
    assert _growth(span.pivots, span.rows, [[3, 3, 0]], 3) == 0
    assert _growth(span.pivots, span.rows, [[1, 0, 0], [0, 1, 0]], 3) == 1
    assert span.insert([0, 0, 5])
    assert len(span.pivots) == 2
    assert span.rows == [[1, 1, 0], [0, 0, 1]]


@given(small_or_large_matrices, small_or_large_matrices)
def test_growth_and_extension_of_a_forward_echelon_form(mat, more):
    """A forward echelon form that is not back-substituted, as
    ``IncrementalSpan.extend`` builds it, is a valid input of a span
    that shares its rows and of ``rref_insert``, which runs the back
    phase even where the span does not grow."""
    rows, ncols = mat
    vecs = [(list(v) + [0] * ncols)[:ncols] for v in more[0]]
    span = IncrementalSpan(ncols)
    span.extend([list(v) for v in rows])
    pivots, red = _fraction_rref(rows + vecs, ncols)
    want = (pivots, [_scaled(row, pc) for pc, row in zip(pivots, red)])
    fpiv, frows = list(span.pivots), [list(r) for r in span.rows]
    assert _growth(fpiv, frows, vecs, ncols) == len(pivots) - len(fpiv)
    assert (fpiv, frows) == (span.pivots, span.rows)
    # a zero vector last grows nothing, so with no vecs only the back
    # phase runs
    for vec in vecs + [[0] * ncols]:
        rref_insert(fpiv, frows, list(vec), ncols)
    assert (fpiv, frows) == want


@given(small_or_large_matrices, small_or_large_matrices)
def test_a_span_never_aliases_its_input(mat, more):
    """``insert`` and ``extend`` write no vector they are given and keep
    none as a row, and ``extend`` on a span that shares rows leaves them
    as they were.  ``FormsIdeal.slice_at`` hands the
    partials of f to ``ShiftChain.step``, and ``back_phase`` rewrites
    a span's rows in place, so an aliased row would rewrite them."""
    rows, ncols = mat
    vecs = [(list(v) + [0] * ncols)[:ncols] for v in more[0]]
    given_vecs = rows + vecs
    before = [list(v) for v in given_vecs]
    span = IncrementalSpan(ncols)
    for row in rows:
        span.insert(row)
    shared = (list(span.pivots), [list(r) for r in span.rows])
    _growth(span.pivots, span.rows, vecs, ncols)
    assert (span.pivots, span.rows) == shared
    span.extend(vecs)
    assert not any(r is v for r in span.rows for v in given_vecs)
    back_phase(span.pivots, span.rows, ncols)
    assert given_vecs == before


def test_rank_growth_of_a_forward_form_with_shared_columns():
    # rows 0 and 1 of this forward form are both nonzero at column 1, so
    # a vector must be reduced against them one after the other
    pivots, rows = [0, 1], [[1, 1, 0], [0, 1, 1]]
    assert _growth(pivots, rows, [[1, 0, -1]], 3) == 0
    assert _growth(pivots, rows, [[1, 0, 0]], 3) == 1
    # a vector in the span leaves it as it was, and the back phase
    # still makes the form canonical
    assert not rref_insert(pivots, rows, [1, 0, -1], 3)
    assert (pivots, rows) == ([0, 1], [[1, 0, -1], [0, 1, 1]])


def _content_stripped(vec):
    """vec divided by its content, every entry read."""
    g = 0
    for v in vec:
        g = gcd(g, v)
    return [v // g for v in vec] if g > 1 else vec


def _dense_eliminate(rows, ncols):
    """The forward phase with every row update over every column to the
    right of the pivot, whatever the multiplier: the reference that
    ``_eliminate``, which skips the zero entries of the pivot row when
    the row below is not scaled, must agree with bit for bit."""
    nrows = len(rows)
    for i in range(nrows):
        rows[i] = _content_stripped(rows[i])
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
            rows[j] = _content_stripped(row)
        pivots.append(col)
        r += 1
    return pivots


ENTRY_KINDS = {
    "unit": st.sampled_from((1, -1)),
    "small": st.integers(min_value=-9, max_value=9).filter(bool),
    "wide": st.integers(min_value=-2 ** 300, max_value=2 ** 300).filter(bool),
}


@st.composite
def sparse_or_dense_matrices(draw):
    """Sparse (at least 90 % zeros) or dense integer matrices of ±1,
    small or 300-bit entries, some rows with a common content."""
    nrows = draw(st.integers(min_value=1, max_value=12))
    ncols = draw(st.integers(min_value=1, max_value=24))
    entry = st.one_of(*(ENTRY_KINDS[k] for k in draw(
        st.sets(st.sampled_from(sorted(ENTRY_KINDS)), min_size=1))))
    cells = nrows * ncols
    if draw(st.booleans()):
        nonzero = draw(st.sets(st.integers(0, cells - 1),
                               max_size=cells // 10))
    else:
        nonzero = range(cells)
    rows = [[0] * ncols for _ in range(nrows)]
    for cell in nonzero:
        rows[cell // ncols][cell % ncols] = draw(entry)
    # a repeated row makes a dependent row, a common factor a content
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        source = rows[draw(st.integers(0, nrows - 1))]
        factor = draw(st.sampled_from((1, -1, 2, 6, -35, 2 ** 70)))
        rows[i] = [factor * v for v in source]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_or_dense_matrices())
def test_forward_phase_matches_the_dense_update(mat):
    rows, ncols = mat
    got = [list(v) for v in rows]
    want = [list(v) for v in rows]
    pivots = _dense_eliminate(want, ncols)
    assert _eliminate(got, ncols) == pivots
    assert got == want
    del want[len(pivots):]
    back_phase(pivots, want, ncols)
    assert rref_int([list(v) for v in rows], ncols) == (pivots, want)
    assert (kernel_int([list(v) for v in rows], ncols)
            == kernel_from_rref(pivots, want, ncols))
