"""Fans in random bases and labellings, and the exact-height oracle
that the tests share."""

import itertools
from fractions import Fraction

from manin_toric.latticefan import FanValidationError, PLFunction, make_fan
from manin_toric.ratlinalg import solve_fraction


def projective_fan(n):
    """The fan of P^n: e_1, ..., e_n, -(e_1 + ... + e_n), every n of them
    a maximal cone."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return make_fan(n, rays, itertools.combinations(range(n + 1), n))


def hexagon_fan():
    """The fan of dP6, P^2 blown up in three points: six rays around the
    hexagon, each consecutive pair a maximal cone."""
    rays = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
    return make_fan(2, rays, [[i, (i + 1) % 6] for i in range(6)])


# rays around the plane twice, each consecutive pair a cone of
# determinant 1: every check of a fan but the covering degree passes
DOUBLE_WINDING = (2, ((1, 0), (-3, 1), (-1, 0), (-2, -1), (-3, -2), (-1, -1),
                      (2, 1), (-3, -1)),
                  tuple((i, (i + 1) % 8) for i in range(8)))


def covering_degree(rays, cones, v):
    """How many maximal cones hold the integer vector v, by exact
    membership: v's coordinates on each cone's rays, solved in
    Fractions, all >= 0.  None when v is on the boundary of a cone, where
    the count says nothing of the covering; cones on dependent rays hold
    no interior and are skipped."""
    hits = 0
    for cone in cones:
        try:
            x = solve_fraction([rays[j] for j in cone], v)
        except ValueError:
            continue
        if min(x) == 0:
            return None
        hits += min(x) > 0
    return hits


def mutate(fan, kind, pick):
    """(dim, rays, cones) of fan under one change known to leave no
    complete regular fan: "drop" a cone, add an "unused" ray (the sum of
    a cone's rays, inside that cone), "scale" a ray by 2, or give a
    cone determinant +-2 by putting 2 e_a + e_b, for rays e_a, e_b of
    the cone, in place of e_a ("det2", dim >= 2).  pick chooses the cone
    or the ray, modulo their number."""
    rays = [tuple(r) for r in fan.rays]
    cones = [tuple(c) for c in fan.max_cones]
    cone = cones[pick % len(cones)]
    if kind == "drop":
        cones.remove(cone)
    elif kind == "unused":
        rays.append(tuple(map(sum, zip(*(rays[j] for j in cone)))))
    elif kind == "scale":
        j = pick % len(rays)
        rays[j] = tuple(2 * x for x in rays[j])
    elif kind == "det2":
        a, b = cone[:2]
        rays[a] = tuple(2 * x + y for x, y in zip(rays[a], rays[b]))
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return fan.dim, rays, cones


def relabel(d, rays, cones, order, ops, flip):
    """rays and cones in another labelling and basis: ray m of the
    result is A rays[order[m]], with A the product of the row operations
    row_i += k row_j of ops (indices mod d) and, if flip, the negation
    of the first coordinate: a matrix of GL(Z).  order must be a
    permutation of the ray indices."""
    A = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, k in ops:
        i, j = i % d, j % d
        if i != j:
            A[i] = [a + k * b for a, b in zip(A[i], A[j])]
    if flip:
        A[0] = [-a for a in A[0]]
    where = {old: new for new, old in enumerate(order)}
    new_rays = [tuple(sum(a * x for a, x in zip(row, rays[old]))
                      for row in A) for old in order]
    return new_rays, [tuple(where[j] for j in cone) for cone in cones]


def disguise(fan, order, ops, flip):
    """fan relabelled (see relabel) by the entries of order below its ray
    count, and that permutation."""
    order = [m for m in order if m < len(fan.rays)]
    rays, cones = relabel(fan.dim, fan.rays, fan.max_cones, order, ops, flip)
    return make_fan(fan.dim, rays, cones), order


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
