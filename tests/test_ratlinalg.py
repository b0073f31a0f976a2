"""Exact linear algebra: solve, rank, nullspace, echelon basis,
determinant and the inverse checked against their defining identities on
small integer matrices, singular and non-square ones included, and against
a Fraction Gauss-Jordan oracle on rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manin_toric.ratlinalg import (_inverse, det_fraction, echelon_basis,
                                   nullspace_fraction, primitive_vector,
                                   rank_fraction, solve_fraction)

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
    det, inv = _inverse(u)
    assert det in (1, -1) and det == det_fraction(u)
    assert all(isinstance(x, int) for row in inv for x in row)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[dot(row, col) for col in zip(*inv)] for row in u] == ident
    assert [list(row) for row in _inverse(inv)[1]] == u



def _rref(a, ncols=None):
    """The oracle: reduce the Fraction rows of a in place to reduced row
    echelon form by Gauss-Jordan in Fractions, pivoting in the first
    ncols columns; returns the pivot columns and the determinant factor
    (the product of the pivots, negated per row swap)."""
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots, det = [], Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            det = -det
        pv = a[row][col]
        det *= pv
        a[row] = [x / pv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return pivots, det


def _oracle(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    pivots, det = _rref(a)
    return a, pivots, det


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    """Square, wide and tall rational matrices with denominators, often
    rank-deficient: some get a rational combination of their rows."""
    a = draw(matrices(entries=rationals))
    if draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(a), max_size=len(a)))
        a.insert(draw(st.integers(0, len(a))),
                 [sum(c * r[j] for c, r in zip(coeffs, a))
                  for j in range(len(a[0]))])
    return a


@linalg_settings
@given(rational_matrices(), st.data())
def test_kernel_matches_the_fraction_oracle(a, data):
    n = len(a[0])
    red, pivots, det = _oracle(a)
    rank = len(pivots)
    assert rank_fraction(a) == rank
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        kernel.append(tuple(v))
    assert nullspace_fraction(a) == kernel
    assert echelon_basis(a) == tuple(primitive_vector(r)
                                     for r in red[:rank])
    if len(a) != n:
        return
    assert det_fraction(a) == (det if rank == n else 0)
    b = data.draw(st.lists(rationals, min_size=n, max_size=n))
    columns = [[a[i][j] for i in range(n)] for j in range(n)]
    det_a, inv = _inverse(a)
    if rank < n:
        with pytest.raises(ValueError, match="singular"):
            solve_fraction(columns, b)
        assert (det_a, inv) == (0, None)
        return
    aug = [[Fraction(x) for x in row] + [bi] for row, bi in zip(a, b)]
    _rref(aug, n)
    assert solve_fraction(columns, b) == [r[n] for r in aug]
    ident = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                           for j in range(n)]
             for i, row in enumerate(a)]
    _rref(ident, n)
    assert det_a == det
    assert [list(r) for r in inv] == [r[n:] for r in ident]
