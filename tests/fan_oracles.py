"""Fans in random bases and labellings, and the exact-height oracle
that the tests share."""

import itertools
from fractions import Fraction

from manin_toric.latticefan import FanValidationError, PLFunction, make_fan


def projective_fan(n):
    """The fan of P^n: e_1, ..., e_n, -(e_1 + ... + e_n), every n of them
    a maximal cone."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return make_fan(n, rays, itertools.combinations(range(n + 1), n))


def disguise(fan, order, ops, flip):
    """fan in another labelling and basis: ray m of the result is
    A rays[order[m]], with A the product of the row operations
    row_i += k row_j of ops (indices mod dim) and, if flip, the negation
    of the first coordinate: a matrix of GL(Z)."""
    d = fan.dim
    A = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, k in ops:
        i, j = i % d, j % d
        if i != j:
            A[i] = [a + k * b for a, b in zip(A[i], A[j])]
    if flip:
        A[0] = [-a for a in A[0]]
    order = [m for m in order if m < len(fan.rays)]
    where = {old: new for new, old in enumerate(order)}
    rays = [tuple(sum(a * x for a, x in zip(row, fan.rays[old]))
                  for row in A) for old in order]
    cones = [[where[j] for j in cone] for cone in fan.max_cones]
    return make_fan(d, rays, cones), order


def _log_nonpositive(row, support):
    """Whether sum_p <row, n_p> log p <= 0, decided in integers."""
    num = den = 1
    for p, n in support:
        c = sum(r * x for r, x in zip(row, n))
        if c > 0:
            num *= p ** c
        elif c < 0:
            den *= p ** -c
    return num <= den


def cone_search_height(fan, lam, support):
    """Exact height of the valuation profile support under the integral
    lambda, by a cone search: s is the first maximal cone whose ray
    coordinates of -v = -sum_p n_p log p are all >= 0, each decided in
    integers, and the exponent of p is <m_t - m_s, n_p>, m the cone
    monomials and t the cone of n_p."""
    pl = PLFunction(fan, tuple(lam))
    mono = pl.monomials
    for s, inv in enumerate(fan.cone_inverses):
        if all(_log_nonpositive(row, support) for row in inv):
            break
    else:
        raise FanValidationError("no cone contains the archimedean vector")
    num = den = 1
    for p, n in support:
        t = pl.locate(n)[0]
        e = sum((a - b) * x for a, b, x in zip(mono[t], mono[s], n))
        if e != int(e):
            raise ValueError("integral lambda required")
        e = int(e)
        if e > 0:
            num *= p ** e
        elif e < 0:
            den *= p ** -e
    return Fraction(num, den)


def candidates_table(pl, kmax):
    """The DFS candidate table of counting._candidates, in plain Python:
    every n != 0 with phi(n) <= kmax, from the full box of ray coordinates
    of each maximal cone, as (phi, n, pl.pairings(n), s) sorted by phi
    then n, s the first index of the least pairing."""
    fan = pl.fan
    d = fan.dim
    found = {}
    for cone in fan.max_cones:
        lams = [pl.values[j] for j in cone]
        rays = [fan.rays[j] for j in cone]
        bounds = [kmax // lam for lam in lams]
        for coords in itertools.product(*(range(b + 1) for b in bounds)):
            phi = sum(a * lam for a, lam in zip(coords, lams))
            if phi == 0 or phi > kmax:
                continue
            n = tuple(sum(a * rays[i][k] for i, a in enumerate(coords))
                      for k in range(d))
            found.setdefault(n, phi)
    out = []
    for phi, n in sorted((phi, n) for n, phi in found.items()):
        P = pl.pairings(n)
        s = min(range(len(P)), key=P.__getitem__)
        out.append((phi, n, P, s))
    return out
