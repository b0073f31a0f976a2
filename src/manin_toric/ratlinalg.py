"""Exact linear algebra over Q and Z used by the cone and lattice code.

Everything works on lists/tuples of Fractions (or ints); nothing here
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple[Fraction, ...]


def to_fraction_rows(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def det_fraction(rows: Sequence[Sequence]) -> Fraction:
    a = to_fraction_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _rref(a: list[list[Fraction]], ncols: int | None = None) -> list[int]:
    """Reduce the rows of a in place to reduced row echelon form and
    return the pivot columns.

    Pivots are sought in the first ncols columns only (all by default);
    later columns, such as an augmented right-hand side, are carried
    along.  Row i then has its leading 1 in column pivots[i].
    """
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def rank_fraction(rows: Sequence[Sequence]) -> int:
    return len(_rref(to_fraction_rows(rows)))


def solve_fraction(columns: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve sum_j x_j * columns[j] = b exactly; raises on singular."""
    n = len(b)
    k = len(columns)
    if k != n or any(len(c) != n for c in columns):
        raise ValueError("solve_fraction needs a square system")
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(b[i])]
           for i in range(n)]
    if len(_rref(aug, n)) < n:
        raise ValueError("singular system")
    return [aug[i][n] for i in range(n)]


def nullspace_fraction(rows: Sequence[Sequence]) -> list[Vec]:
    """Basis of {x : rows @ x = 0}, reduced echelon parameterization."""
    a = to_fraction_rows(rows)
    if not a:
        raise ValueError("nullspace of empty matrix is ambiguous")
    n = len(a[0])
    pivots = _rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(tuple(v))
    return basis


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale v by a positive rational to a primitive integer vector."""
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def echelon_basis(rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Canonical primitive integer basis of the row span (sorted echelon)."""
    a = to_fraction_rows(rows)
    rank = len(_rref(a))
    return tuple(primitive_vector(r) for r in a[:rank])

