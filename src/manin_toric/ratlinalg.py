"""Exact linear algebra over Q and Z used by the cone and lattice code.

One kernel, `_eliminate`: Bareiss's fraction-free Gauss-Jordan on
integer rows.  Rational input (anything Fraction reads exactly, floats
included) is scaled once, row by row, to integers, which changes neither
the row span nor the solution of a system; the determinant, rank, solve,
null space, echelon basis and inverse are short reads of the reduced
rows.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(the rows as ints, the product of their scales): each row times the
    least positive integer that clears its denominators."""
    out, scale = [], 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in fr))
        out.append([x.numerator * (s // x.denominator) for x in fr])
        scale *= s
    return out, scale


def _eliminate(a: list[list[int]], ncols: int | None = None):
    """Bareiss's fraction-free Gauss-Jordan on the integer rows a, in
    place, pivoting in the first ncols columns (all by default) so that
    later ones, such as a right-hand side, are carried along.  Returns the
    pivot columns, the last pivot d (1 if none) and the sign of the row
    swaps: row i is then d times row i of the reduced row echelon form,
    and det a = sign * d for square a of full rank.  Every division by
    the previous pivot is exact."""
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    d = sign = 1
    for col in range(ncols):
        k = len(pivots)
        if k == m:
            break
        p = next((i for i in range(k, m) if a[i][col]), None)
        if p is None:
            continue
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        pk, rk = a[k][col], a[k]
        for i in range(m):
            if i != k:
                f = a[i][col]
                a[i] = [(pk * x - f * y) // d for x, y in zip(a[i], rk)]
        d = pk
        pivots.append(col)
    return pivots, d, sign


def det_fraction(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a, scale = _integer_rows(rows)
    pivots, d, sign = _eliminate(a)
    return Fraction(sign * d, scale) if len(pivots) == n else Fraction(0)


def rank_fraction(rows: Sequence[Sequence]) -> int:
    return len(_eliminate(_integer_rows(rows)[0])[0])


def solve_fraction(columns: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve sum_j x_j * columns[j] = b exactly; raises on singular."""
    n = len(b)
    if len(columns) != n or any(len(c) != n for c in columns):
        raise ValueError("solve_fraction needs a square system")
    aug = _integer_rows([c[i] for c in columns] + [b[i]] for i in range(n))[0]
    pivots, d, _sign = _eliminate(aug, n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return [Fraction(r[n], d) for r in aug]


def _inverse(mat: Sequence[Sequence]):
    """(det mat, the rows of mat^-1) for a square mat, from one elimination
    of [mat | I], which ends at d [I | mat^-1]; the rows are None when mat
    is singular.  The determinant is an int for integer input; the
    entries are ints when d = +-1, as for an integer mat with det +-1,
    and Fractions otherwise."""
    n = len(mat)
    a, scale = _integer_rows(list(r) + [int(i == j) for j in range(n)]
                             for i, r in enumerate(mat))
    pivots, d, sign = _eliminate(a, n)
    if len(pivots) < n:
        return 0, None
    det = sign * d if scale == 1 else Fraction(sign * d, scale)
    if d in (1, -1):
        return det, tuple(tuple(d * x for x in r[n:]) for r in a)
    return det, tuple(tuple(Fraction(x, d) for x in r[n:]) for r in a)


def nullspace_fraction(rows: Sequence[Sequence]) -> list[Vec]:
    """Basis of {x : rows @ x = 0}, reduced echelon parameterization."""
    if not rows:
        raise ValueError("nullspace of empty matrix is ambiguous")
    a = _integer_rows(rows)[0]
    n = len(a[0])
    pivots, d, _sign = _eliminate(a)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-a[r][fc], d)
        basis.append(tuple(v))
    return basis


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale v by a positive rational to a primitive integer vector."""
    ints = _integer_rows([v])[0][0]
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def echelon_basis(rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical primitive integer basis of the row span (sorted echelon)."""
    a = _integer_rows(rows)[0]
    pivots, d, _sign = _eliminate(a)
    return tuple(primitive_vector([d * x for x in r]) for r in a[:len(pivots)])
