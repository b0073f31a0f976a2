"""Exact linear algebra: solve, rank, nullspace, echelon basis,
determinant and the unimodular inverse checked against their defining
identities on small integer matrices, singular and non-square ones
included."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manin_toric.latticefan import _inverse_unimodular
from manin_toric.ratlinalg import (det_fraction, echelon_basis,
                                   nullspace_fraction, rank_fraction,
                                   solve_fraction)

linalg_settings = settings(derandomize=True, deadline=None, database=None,
                           max_examples=150)

# a narrow entry range makes singular matrices common
entries = st.integers(-3, 3)


@st.composite
def matrices(draw, rows=None, cols=None, entries=entries):
    m = draw(st.integers(1, 5)) if rows is None else rows
    n = draw(st.integers(1, 5)) if cols is None else cols
    return [draw(st.lists(entries, min_size=n, max_size=n))
            for _ in range(m)]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return draw(matrices(rows=n, cols=n))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@linalg_settings
@given(square_matrices(), st.data())
def test_solve_satisfies_the_system(a, data):
    n = len(a)
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    columns = [[a[i][j] for i in range(n)] for j in range(n)]
    if rank_fraction(a) < n:
        with pytest.raises(ValueError, match="singular"):
            solve_fraction(columns, b)
        return
    x = solve_fraction(columns, b)
    assert all(isinstance(v, Fraction) for v in x)
    assert [dot(row, x) for row in a] == b


@linalg_settings
@given(matrices())
def test_rank_nullity(a):
    n = len(a[0])
    kernel = nullspace_fraction(a)
    assert rank_fraction(a) + len(kernel) == n
    assert rank_fraction(kernel) == len(kernel)
    for v in kernel:
        assert all(dot(row, v) == 0 for row in a)


@linalg_settings
@given(matrices(), st.randoms(use_true_random=False))
def test_echelon_basis_spans_the_row_space(a, rnd):
    basis = echelon_basis(a)
    r = rank_fraction(a)
    assert len(basis) == r
    assert rank_fraction(list(a) + list(basis)) == r
    assert all(isinstance(x, int) for row in basis for x in row)
    shuffled = list(a)
    rnd.shuffle(shuffled)
    assert echelon_basis(shuffled) == basis


@linalg_settings
@given(square_matrices())
def test_det_vanishes_exactly_below_full_rank(a):
    assert (det_fraction(a) == 0) == (rank_fraction(a) < len(a))


@linalg_settings
@given(st.integers(1, 4), st.data())
def test_inverse_unimodular_round_trips(n, data):
    # a product of row additions and swaps starting from the identity
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), entries),
        max_size=8))
    for src, dst, c in steps:
        if src == dst:
            u[0], u[src] = u[src], u[0]
        else:
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
    inv = _inverse_unimodular(u)
    assert all(isinstance(x, int) for row in inv for x in row)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[dot(row, col) for col in zip(*inv)] for row in u] == ident
    assert [list(row) for row in _inverse_unimodular(inv)] == u

