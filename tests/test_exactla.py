"""Exact integer linear algebra: ranks, kernels, canonical RREF."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from curvesat.exactla import (
    IncrementalSpan,
    clear_row,
    kernel_int,
    rank_growth,
    rank_int,
    reduce_row,
    rref_extend,
    rref_insert,
    rref_int,
)


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


# fraction-free elimination grows entries fast; 7x7 matrices with
# 40-bit entries keep the big-integer paths covered
small_or_large_matrices = st.one_of(
    int_matrices(), int_matrices(min_dim=7, max_dim=7, bound=10 ** 12))


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


@given(small_or_large_matrices)
def test_rref_insert_matches_batch(mat):
    # one-at-a-time insertion lands on the same canonical form, which
    # is what lets chained slice updates replace full eliminations
    rows, ncols = mat
    pivots, built = [], []
    for row in rows:
        rref_insert(pivots, built, list(row), ncols)
    bpiv, brows = rref_int([list(v) for v in rows], ncols)
    assert pivots == bpiv
    assert built == brows
    # so does extending the RREF of the first half by the rest at once
    half = len(rows) // 2
    hpiv, hrows = rref_int([list(v) for v in rows[:half]], ncols)
    rest = [list(v) for v in rows[half:]]
    # counting the growth reads the RREF without consuming it
    assert rank_growth(hpiv, hrows, rest, ncols) == len(bpiv) - len(hpiv)
    epiv, erows = rref_extend(hpiv, hrows, rest, ncols)
    assert epiv == bpiv
    assert erows == brows


@given(int_matrices())
def test_reduce_row_detects_membership(mat):
    rows, ncols = mat
    pivots, red = rref_int([list(v) for v in rows], ncols)
    for row in rows:
        assert reduce_row(pivots, red, list(row)) == [0] * ncols


def test_reduce_row_residual_outside_span():
    pivots, red = rref_int([[1, 0, 0]], 3)
    assert reduce_row(pivots, red, [2, 3, 0]) == [0, 1, 0]


def test_incremental_span_membership():
    span = IncrementalSpan(3)
    assert span.insert([1, 1, 0])
    assert not span.insert([2, 2, 0])
    assert span.contains([3, 3, 0])
    assert not span.contains([1, 0, 0])
    assert span.insert([0, 0, 5])
    assert len(span) == 2
