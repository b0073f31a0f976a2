"""Exact enumeration of torus points of bounded canonical height.

Points are valuation profiles: finitely many primes p with a nonzero
order vector n_p each, plus signs.  The finite part of the height,
prod_p p^(phi(n_p)), is an exact integer once lambda is scaled to
integers, and it only grows as a profile is extended, which drives the
depth-first pruning.  The archimedean factor is evaluated in floating
point with a borderline margin; candidates inside the margin are
re-decided in exact rational arithmetic (heights of rational points
are rational numbers, and cone membership of -log|x| reduces to
comparing rational products against 1).

P^n and the Hirzebruch surfaces F_n (P^1 x P^1 is F_0), recognized by
the shape of their fans in any basis and ray order (_cox_shape, the one
place that decides it), are counted in Cox coordinates instead, P^n
under any lambda and F_n when lambda is a multiple of rho: a box count
of coprime tuples by Moebius inversion, with no walk.  On P^n and
P^1 x P^1 the partial height zeta sums, for any lambda, are Dirichlet
sums over max-norm heights, with no walk either.  The enumeration stays
the general route and the cross-check.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import (accumulate, combinations, permutations,
                       product as _iproduct)
from typing import NamedTuple

import numpy as np

from .heights import ValuationProfile
from .latticefan import Fan, PLFunction
from .primes import _MAX_SIEVE, mobius_table, primes_up_to
from .toric import LeadingConstant, leading_constant


class CountingError(ValueError):
    pass


def _exact(x, what: str) -> Fraction:
    """x as an exact Fraction; a non-finite x is refused, named as what."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):   # inf, nan
        raise CountingError(f"{what} must be finite, got {x}") from None


def _lambda_ints(fan: Fan, lam):
    """Scale lambda to a positive integer vector; heights obey
    H_scaled = H^L, so bounds scale as B^L exactly."""
    values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    if len(values) != len(fan.rays):
        raise CountingError("one lambda value per ray required")
    fracs = [_exact(v, "lambda") for v in values]
    if any(v <= 0 for v in fracs):
        raise CountingError("lambda must be positive on every ray; "
                            "the count is infinite otherwise")
    L = 1
    for v in fracs:
        L = L * v.denominator // math.gcd(L, v.denominator)
    ints = tuple(int(v * L) for v in fracs)
    return ints, L


def _is_symmetric(fan: Fan, values) -> bool:
    # negation-invariant data: every ray's negative is a ray carrying
    # the same value (integer lambda for counts, complex for zeta sums)
    index = {ray: j for j, ray in enumerate(fan.rays)}
    for j, ray in enumerate(fan.rays):
        neg = tuple(-c for c in ray)
        k = index.get(neg)
        if k is None or values[k] != values[j]:
            return False
    return True


def _candidates(pl: PLFunction, kmax: int):
    """All n in Z^d \\ {0} with phi(n) <= kmax, as (phi, n, pairings, s)
    sorted by phi then lexicographically; pairings = pl.pairings(n), what
    n adds per unit of log p to the vector the DFS carries, and s is the
    first vertex m_s of P_lambda where <m_s, n> is smallest (for convex
    phi, the cone of -n).  Requires int values.

    Each maximal cone adds the points sum_i a_i e_i of its rays with
    sum_i a_i lambda_i <= kmax, a simplex grown one ray at a time, never
    the box of all a_i <= kmax / lambda_i; a point on a shared face comes
    from several cones, with one phi, and one copy is kept.  When every
    vertex is an int and the pairings fit in int64 they are one integer
    matrix product, converted to float as pl.pairings converts its exact
    sums; otherwise pl.pairings gives them."""
    fan = pl.fan
    d = fan.dim
    rays = np.array(fan.rays, dtype=np.int64)
    phis, ns = [], []
    for cone in fan.max_cones:
        phi = np.zeros(1, dtype=np.int64)   # row 0 stays the origin
        n = np.zeros((1, d), dtype=np.int64)
        for j in cone:
            # a lambda above kmax allows a = 0 only, as kmax + 1 does
            lam = min(pl.values[j], kmax + 1)
            counts = (kmax - phi) // lam + 1   # a = 0 .. counts - 1
            parent = np.repeat(np.arange(len(phi)), counts)
            a = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
            phi = phi[parent] + a * lam
            n = n[parent] + a[:, None] * rays[j]
        phis.append(phi[1:])
        ns.append(n[1:])
    phi = np.concatenate(phis)
    n = np.concatenate(ns)
    order = np.lexsort([*n.T[::-1], phi])   # by phi, then n
    phi, n = phi[order], n[order]
    keep = np.ones(len(phi), dtype=bool)
    keep[1:] = (n[1:] != n[:-1]).any(axis=1)
    phi, n = phi[keep], n[keep]
    vecs = list(zip(*n.T.tolist()))
    V = pl.vertices
    top = max(abs(x) for v in V for x in v)
    # |<m_t, n>| <= d max|m_t| max|n| and max|n| <= kmax max|e_j|
    if (all(type(x) is int for v in V for x in v)
            and d * top * kmax * int(np.abs(rays).max()) < 2 ** 63):
        P = n @ np.array(V, dtype=np.int64).T
        s = P.argmin(axis=1).tolist()
        P = list(zip(*P.T.astype(float).tolist()))
    else:
        P = [pl.pairings(v) for v in vecs]
        s = [min(range(len(x)), key=x.__getitem__) for x in P]
    return list(zip(phi.tolist(), vecs, P, s))


def _lex_positive(n) -> bool:
    for c in n:
        if c != 0:
            return c > 0
    return False


def _int_nth_root(x, s: int) -> int:
    """Largest integer T >= 0 with T^s <= x, for a rational x >= 0: Newton's
    iteration on the integer floor(x), from above, exact at any size."""
    n = math.floor(x)
    if n < 1:
        return 0
    if n.bit_length() <= s:   # n < 2^s
        return 1
    T = 1 << -(-n.bit_length() // s)   # 2^ceil(bits / s) > n^(1/s)
    while True:
        nxt = ((s - 1) * T + n // T ** (s - 1)) // s
        if nxt >= T:
            return T
        T = nxt


def projective_height_counts(n: int, T: int) -> np.ndarray:
    """c[h] for 0 <= h <= T: the number of torus points of P^n whose
    max-norm height max|x_i| is h, for primitive Cox coordinates x; 2^n
    sum_{d | h} mu(d) f(h/d) with f(m) = m^(n+1) - (m-1)^(n+1), the
    positive tuples of max-norm m (2^(n+1) sign patterns, two per point).
    For n = 1, a/b in lowest terms: 2 at h = 1 (the points 1 and -1),
    4 phi(h) above (a/b and b/a, each with either sign, for the phi(h)
    numerators 1 <= a < h coprime to h).  The Moebius sum is one sieve
    step (1 - [p]) per prime p <= T, in int64: needs 2^n T^(n+1) < 2^63,
    which bounds every partial sum."""
    g = np.arange(T + 1, dtype=np.int64) ** (n + 1)
    g[1:] -= g[:-1].copy()
    for p in primes_up_to(T).tolist():
        g[p::p] -= g[1:T // p + 1].copy()
    g *= 2 ** n
    return g


# The Cox-coordinate count.  A torus point of P^n is a primitive tuple of
# nonzero Cox coordinates up to sign, and a torus point of the Hirzebruch
# surface F_n = P(O + O(n)) is a torus point b of the base P^1 with a
# primitive pair of fiber coordinates up to sign.  On P^n under any
# lambda, and on F_n under lambda = c rho, the height is a power of a box
# condition on those coordinates, so coprime tuples in a box are counted
# by Moebius inversion, without a walk.

# largest table the Cox-coordinate count builds (Moebius values up to the
# largest Cox coordinate): a bound whose table is larger is refused before
# any allocation
_MAX_TABLE = 10 ** 7
# entries per vectorized block: base heights, or the d of a long Moebius
# sum
_CHUNK = 1 << 16


def _magnitude(x) -> str:
    """A positive rational for a message, also beyond the float range."""
    x = Fraction(x)
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return f"10^{math.log10(x.numerator) - math.log10(x.denominator):.6g}"


def _check_table(size: int, Bq: Fraction, what="Cox-coordinate count",
                 bound="B^L") -> None:
    """Refuse what builds a table of size entries for the bound Bq, named
    bound in the message, when size exceeds _MAX_TABLE."""
    if size > _MAX_TABLE:
        raise CountingError(
            f"{what} would build a table of {_magnitude(size)} entries "
            f"({bound} = {_magnitude(Bq)}), over the limit of {_MAX_TABLE}")


def _cox_shape(fan: Fan):
    """How fan is the fan of P^n or of F_n in some basis of Z^d, read off
    its rays and cones; None for any other fan.

    ("P", n): n + 1 rays that sum to 0, every n of them spanning a
    unimodular maximal cone.  ("F", n, (a, b, c, e)), n >= 0: four rays
    with v_e = -v_b, v_a + v_c = n v_b and unimodular maximal cones
    {a, b}, {b, c}, {c, e}, {e, a}.  F_0 is P^1 x P^1, whose factors are
    the opposite pairs (b, e) and (a, c)."""
    rays, d = fan.rays, fan.dim
    cones = {frozenset(c) for c in fan.max_cones}
    if (len(rays) == d + 1 and not any(map(sum, zip(*rays)))
            and cones == set(map(frozenset, combinations(range(d + 1), d)))):
        return ("P", d)
    if d == 2 and len(rays) == 4:
        for b, e in permutations(range(4), 2):
            a, c = (j for j in range(4) if j not in (b, e))
            vb = rays[b]
            s = [x + y for x, y in zip(rays[a], rays[c])]
            if (rays[e] == tuple(-x for x in vb)
                    and s[0] * vb[1] == s[1] * vb[0]
                    and cones == {frozenset(p) for p in
                                  ((a, b), (b, c), (c, e), (e, a))}):
                n = (s[0] * vb[0] + s[1] * vb[1]) // (vb[0] ** 2 + vb[1] ** 2)
                if n >= 0:
                    return ("F", n, (a, b, c, e))
    return None


def _primitive_tuples(T: int, k: int, mertens) -> int:
    """#{x in [1, T]^k : gcd(x) = 1} = sum_d mu(d) floor(T/d)^k, summed
    over the O(sqrt T) runs of d with one quotient floor(T/d), from the
    partial sums mertens[m] = sum_{d <= m} mu(d); exact Python ints."""
    total, d = 0, 1
    while d <= T:
        q = T // d
        top = T // q
        total += int(mertens[top] - mertens[d - 1]) * q ** k
        d = top + 1
    return total


def _projective_counts(n: int, s: int, Bqs) -> list:
    """N(B) on P^n, where the height of primitive Cox coordinates x is
    max|x_i|^s for s the sum of the scaled lambda, whatever its entries
    (H_lambda depends on lambda only through its class in Pic = Z): each
    of the primitive positive tuples of max-norm at most T, T^s <= B^L,
    stands for 2^(n+1) sign patterns, two per point."""
    Ts = [_int_nth_root(Bq, s) for Bq in Bqs]
    _check_table(Ts[-1], Bqs[-1])
    mertens = np.cumsum(mobius_table(Ts[-1]))
    return [2 ** n * _primitive_tuples(T, n + 1, mertens) for T in Ts]


def _isqrt_array(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) of a nonnegative int64 array below 2^53.  The float
    square root of an exactly represented x is correctly rounded, so it
    is never below an integer root and at most one above floor(sqrt x)."""
    r = np.sqrt(x).astype(np.int64)
    return r - (r * r > x)


def _coprime_pairs(U: np.ndarray, W: np.ndarray, mu) -> np.ndarray:
    """#{(u, w) : 1 <= u <= U_i, 1 <= w <= W_i, gcd(u, w) = 1} for each i,
    as sum_{d <= U_i} mu(d) floor(U_i/d) floor(W_i/d), for U nonincreasing
    and U <= W, with mu = mobius_table(m) for some m >= U_0.  With j the
    first row where U_j <= j (else the last) and D = U_j, each d <= D is
    added over the rows U_i >= d, a prefix, and the d > D of the rows
    before j, row by row: about 2j vectorized steps."""
    Ul = U.tolist()
    j = next((i for i, u in enumerate(Ul) if u <= i), len(Ul) - 1)
    D = Ul[j]
    ascending = Ul[::-1]
    rows = [len(Ul) - bisect_left(ascending, d) for d in range(D + 2)]
    out = np.zeros(len(U), dtype=np.int64)
    for d in range(1, D + 1):
        if mu[d]:
            r = rows[d]
            out[:r] += int(mu[d]) * (U[:r] // d) * (W[:r] // d)
    for i in range(rows[D + 1]):
        u, w = Ul[i], int(W[i])
        for lo in range(D + 1, u + 1, _CHUNK):
            d = np.arange(lo, min(lo + _CHUNK, u + 1))
            out[i] += int(mu[d] @ ((u // d) * (w // d)))
    return out


def _hirzebruch_counts(n: int, k: int, Bqs) -> list:
    """N(B) on F_n for the scaled lambda k rho.

    A point is a base point of max-norm height H, one of c(H) =
    projective_height_counts(1, H)[H], with a coprime fiber pair
    (u, w) >= 1 and a sign; its rho-height is H^2 max(S u^2, w^2 / S), S = H^n, the bounds
    fibration_zeta_partial walks.  With Q = B^(L/k) and R = floor(Q), the
    height is at most Q when u <= U = isqrt(floor(R / H^(n+2))) and w <= W
    = isqrt(floor(Q H^(n-2))), and N(B) = sum_H 2 c(H) #{coprime pairs in
    [1, U] x [1, W]} over H^(n+2) <= R, where U >= 1."""
    Rs = [_int_nth_root(Bq, k) for Bq in Bqs]
    _check_table(math.isqrt(Rs[-1]), Bqs[-1])
    c = projective_height_counts(1, _int_nth_root(Rs[-1], n + 2))
    mu = mobius_table(math.isqrt(Rs[-1]))   # U <= isqrt(R)
    out = []
    for Bq, R in zip(Bqs, Rs):
        top = _int_nth_root(R, n + 2)   # the base heights where U >= 1
        total = 0
        for h0 in range(1, top + 1, _CHUNK):
            H = np.arange(h0, min(h0 + _CHUNK, top + 1), dtype=np.int64)
            U = _isqrt_array(R // H ** (n + 2))
            if n <= 2:
                W = _isqrt_array(R // H ** (2 - n))
            else:   # Q H^(n-2) may outgrow int64: exact, per base height
                W = np.array([math.isqrt(_int_nth_root(
                    Bq * h ** (k * (n - 2)), k)) for h in H.tolist()],
                    dtype=np.int64)
            total += int(c[H] @ _coprime_pairs(U, W, mu))
        out.append(2 * total)
    return out


_MARGIN = 1e-9
# what _count_general counts: children whose carried vector it built,
# children skipped by the one-vertex archimedean bound, accepted nodes and
# exact re-decisions: of nodes within _MARGIN of a bound and, for
# non-convex phi, of every child that the hull admits
_STATS = ("built", "skipped", "accepted", "redecided")


def _add_stats(into: dict, part: dict) -> None:
    for key, n in part.items():
        into[key] = into.get(key, 0) + n


def _count_general(fan: Fan, lam, Bqs, *, halve: bool,
                   visitor=None, stats=None):
    """DFS engine for any dimension, for lam the scaled integer lambda
    or a PLFunction with those int values, whose cached vertices and rows
    the walk then shares with its caller.  One pass, sized by the largest
    of the ascending bounds Bqs (all >= 1), serves them all: each accepted
    profile goes to the bin of the first bound it satisfies, and the
    visitor, if any, gets its stack ((p, n_p), ...), weight, bin index
    and carried vector (below; a fresh list, never mutated after the
    call).  Returns per bound the
    accepted profile count, with lex-positive first vectors counted
    double when halve is set (profile negation preserves heights for
    symmetric data).  The counts of _STATS are added into stats, a dict,
    if given.

    The archimedean term phi(-v) of v = sum_p n_p log p is bounded
    below incrementally: each node adds log p times the candidate's
    pairings to its parent's carried vector <m_t, v> over the vertices
    m_t of P_lambda, and psi(-v) = -min_t <m_t, v> is at most phi(-v),
    equal to it when phi is convex.  psi is sublinear and psi <= phi, so
    log F + psi(-v) never decreases along an extension of a profile, and
    a child whose bound lies above the largest bound is not extended.
    When phi is convex the bound is the height and decides the bin, with
    exact re-decisions within _MARGIN; otherwise every child that the
    bound admits is binned by its exact height.  A child is skipped
    before its vector is built when the one vertex s of its candidate
    already puts it above the largest bound: psi(-v) is at least
    -<m_s, v>, computed as the same float, so the bisect would reject
    the child and the DFS would not extend it.

    The same bound stops a node's prime loop.  A child at log p with
    candidate (phi, n, P, s) is skipped once log p (phi - P[s]) exceeds
    budget + M[s], where budget = log B - log F + _MARGIN and M is the
    node's carried vector.  Let k_s be the least phi - P[s] over the
    table's candidates of vertex s.  When every k_s > 0, every candidate is
    skipped at every prime with log p > max_s (budget + M[s]) / k_s, so
    the loop breaks at the first one.  The threshold carries _MARGIN of
    slack: rounding would otherwise end some loops just before a child
    within the margin of the bound that the skip test builds.  So the
    children built, and their order, are the same as without the stop.
    """
    k = len(Bqs)
    logBs = [math.log(Bq.numerator) - math.log(Bq.denominator)
             for Bq in Bqs]
    logB = logBs[-1]
    intB = math.floor(Bqs[-1])
    kmax = intB.bit_length() - 1   # max phi with 2^phi <= B
    pl = lam if isinstance(lam, PLFunction) else PLFunction(fan, lam)
    # the least phi of a candidate (kmax + 1: none), known before the
    # table, so an oversized sieve is refused before the table is built
    c_min = min(*pl.values, kmax + 1)
    prime_limit = int(math.exp(min((logB + _MARGIN) / c_min, 45.0))) + 1
    if prime_limit > _MAX_SIEVE:
        raise CountingError(
            f"enumeration would sieve the primes up to {prime_limit} "
            f"(B^L = {_magnitude(Bqs[-1])}), over the limit of {_MAX_SIEVE}")
    convex = pl.is_convex
    cands = _candidates(pl, kmax) if kmax >= c_min else []
    half_cands = [c for c in cands if _lex_positive(c[1])] if halve else cands

    def stop_rates(table):
        # (s, k_s) per vertex of the table's candidates, or None when no
        # stop applies; the max over s is taken per node, as each vertex
        # pairs with its own carried coordinate
        if not table:
            return None
        ks = {}
        for phi, _n, P, s in table:
            ks[s] = min(ks.get(s, math.inf), phi - P[s])
        return list(ks.items()) if min(ks.values()) > 0 else None

    rates = stop_rates(cands)
    half_rates = stop_rates(half_cands) if halve else rates
    primes = [int(p) for p in primes_up_to(prime_limit)]
    logs = [math.log(p) for p in primes]
    nprimes = len(primes)
    weight = 2 if halve else 1

    bins = [0] * k
    stack = []
    built = skipped = accepted = redecided = 0

    def rec(i0, F, logF, M, at_root):
        nonlocal built, skipped, accepted, redecided
        budget = logB - logF + _MARGIN
        root_half = halve and at_root
        table = half_cands if root_half else cands
        ks = half_rates if root_half else rates
        stop = math.inf if ks is None else _MARGIN + max(
            (budget + M[s]) / k for s, k in ks)
        for i in range(i0, nprimes):
            lq = logs[i]
            if c_min * lq > budget or lq > stop:
                break
            p = primes[i]
            for phi, n, P, s in table:
                if phi * lq > budget:
                    break
                Fc = F * p ** phi
                if Fc > intB:
                    continue
                logFc = logF + phi * lq
                if logFc - (M[s] + lq * P[s]) - _MARGIN > logB:
                    skipped += 1
                    continue
                built += 1
                Mc = [m + lq * x for m, x in zip(M, P)]
                logH = logFc - min(Mc)
                stack.append((p, n))
                # bounds below lo fail and bounds from hi on hold; the
                # ones in between are decided exactly: those within the
                # margin, and for non-convex phi all from lo on, since
                # logH is then only a lower bound
                lo = bisect_left(logBs, logH - _MARGIN)
                if lo < k:
                    hi = (bisect_left(logBs, logH + _MARGIN, lo) if convex
                          else k)
                    j = lo
                    if lo < hi:
                        redecided += 1
                        j = bisect_left(Bqs, pl.profile_height(stack),
                                        lo, hi)
                    if j < k:
                        accepted += 1
                        bins[j] += weight
                        if visitor is not None:
                            visitor(tuple(stack), weight, j, Mc)
                    rec(i + 1, Fc, logFc, Mc, False)
                stack.pop()

    bins[0] += 1   # the unit profile, height 1
    rec(0, 1, 0.0, pl.pairings((0,) * fan.dim), True)
    if stats is not None:
        _add_stats(stats, dict(zip(_STATS, (built, skipped, accepted,
                                            redecided))))
    return list(accumulate(bins))


def _count_grid(fan: Fan, lam, bounds, stats=None):
    """(engine, counts): N(B) for every B of the ascending bounds.  On the
    shapes of _cox_shape they come from the Cox-coordinate count (engine
    "torsor"): on P^n under any lambda, whose height depends on lambda
    only through its class sum(lambda) in Pic, and on F_n under lambda =
    c rho.  Otherwise they come from one enumeration (engine "dfs"),
    whose counts are added into stats, if given.  Bounds below 1 admit no
    point, whatever their sign."""
    lam_ints, L = _lambda_ints(fan, lam)
    shape = _cox_shape(fan)
    if shape is not None and shape[0] == "F" and len(set(lam_ints)) > 1:
        shape = None
    Bs = [_exact(B, "the bound B") for B in bounds]
    low = bisect_left(Bs, 1)
    Bqs = [B ** L for B in Bs[low:]]
    if not Bqs:
        counts = []
    elif shape is None:
        profiles = _count_general(fan, lam_ints, Bqs,
                                  halve=_is_symmetric(fan, lam_ints),
                                  stats=stats)
        counts = [n * 2 ** fan.dim for n in profiles]
    elif shape[0] == "P":
        counts = _projective_counts(shape[1], sum(lam_ints), Bqs)
    else:
        counts = _hirzebruch_counts(shape[1], lam_ints[0], Bqs)
    return "dfs" if shape is None else "torsor", [0] * low + counts


def count_points(fan: Fan, lam, B) -> int:
    """N(B): the number of x in (Q*)^d with H_lambda(x) <= B."""
    return _count_grid(fan, lam, [B])[1][0]


def enumerate_bounded(fan: Fan, lam, B, stats=None):
    """Yield every point of height at most B as a ValuationProfile,
    signs expanded: first the unit profile's 2^d sign copies, then each
    signless profile's 2^d copies in a row, in the walk's order.  A
    PLFunction lam with int values is walked as it is, sharing its
    cached vertices and rows with the caller.  The walk runs on the first
    item and adds its _STATS counts into stats, a dict, if given (B >= 1
    only)."""
    lam_ints, L = _lambda_ints(fan, lam)
    Bq = _exact(B, "the bound B")
    shared = (isinstance(lam, PLFunction) and lam.fan == fan
              and all(type(v) is int for v in lam.values))   # so L = 1
    d = fan.dim
    collected = []
    if Bq >= 1:
        _count_general(fan, lam if shared else lam_ints, [Bq ** L],
                       halve=False,
                       visitor=lambda stack, *_: collected.append(stack),
                       stats=stats)
        sign_box = list(_iproduct(*([(1, -1)] * d)))
        for signs in sign_box:
            yield ValuationProfile(d, (), signs)
        for stack in collected:   # by ascending prime, as the walk grows
            for signs in sign_box:
                yield ValuationProfile(d, stack, signs)


class _CountFields(NamedTuple):
    fan_name: str
    lam: tuple
    bounds: list
    counts: list
    predicted: list
    ratios: list
    constant: LeadingConstant | None
    # the enumeration's _STATS counts; all 0 when the Cox-coordinate
    # count counts
    stats: dict
    # "torsor" (the Cox-coordinate count) or "dfs" (the enumeration)
    engine: str


class CountReport(_CountFields):
    __slots__ = ()

    def __new__(cls, fan_name, lam, bounds, counts, predicted, ratios,
                constant=None, stats=None, engine=""):
        # a new dict for each report that is given none
        return super().__new__(cls, fan_name, lam, bounds, counts,
                               predicted, ratios, constant,
                               {} if stats is None else stats, engine)

    def rows(self):
        for B, N, pred, ratio in zip(self.bounds, self.counts,
                                     self.predicted, self.ratios):
            yield {"B": B, "N": N, "predicted": pred, "ratio": ratio}


def count_N(fan: Fan, lam, bounds, pmax: int = 100000) -> CountReport:
    """Exact counts over a grid of height bounds, from the Cox-coordinate
    count or one enumeration at the largest, with the main-term prediction
    Theta*B*(log B)^(b-1)/(b-1)! attached."""
    lam_values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    bs = sorted(float(_exact(b, "the bound B")) for b in bounds)
    lc = leading_constant(fan, pmax=pmax)
    stats = dict.fromkeys(_STATS, 0)
    engine, counts = _count_grid(fan, lam, bs, stats=stats)
    predicted = [lc.predict(B) for B in bs]
    ratios = [(n / p if p > 0 else math.inf) for n, p in
              zip(counts, predicted)]
    return CountReport(fan_name=fan.name or "fan", lam=lam_values,
                       bounds=bs, counts=counts, predicted=predicted,
                       ratios=ratios, constant=lc, stats=stats,
                       engine=engine)


def fit_asymptotic(report: CountReport, a: int, b: int):
    """Least-squares coefficients c_k of N(B) ~ B^a sum_k c_k (log B)^k,
    k < b; the top coefficient estimates Theta/(b-1)!."""
    Bs = np.array(report.bounds, dtype=float)
    Ns = np.array(report.counts, dtype=float)
    if len(Bs) < b + 1:
        raise CountingError("need at least b+1 grid points to fit")
    logs = np.log(Bs)
    design = np.column_stack([Bs ** a * logs ** k for k in range(b)])
    try:
        coeffs, _res, rank, _sv = np.linalg.lstsq(design, Ns, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise CountingError(f"ill-conditioned grid: {exc}") from exc
    if rank < b:
        raise CountingError("ill-conditioned grid: design is rank-deficient")
    return list(coeffs)


class ZetaPartial(NamedTuple):
    value: complex
    B: float
    n_points: int
    tail_estimate: float


def zeta_partial(fan: Fan, lam, B) -> ZetaPartial:
    """Partial height zeta sum over H(rho, x) <= B of H(-lambda, x).

    lambda may be complex; every coordinate needs real part > 1, the
    open convergence region.  The tail estimate extrapolates N(t)
    growth at rate t (log t)^(r-1) beyond the cutoff.
    """
    return _zeta_partials(fan, lam, [B])[1][0]


def _zeta_lambda(fan: Fan, lam) -> list:
    values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    if len(values) != len(fan.rays):
        raise CountingError("one lambda value per ray required")
    vals = [complex(v) for v in values]
    if min(v.real for v in vals) <= 1:
        raise CountingError("Re(lambda_j) > 1 required on every ray")
    return vals


def _tail_estimate(B: float, r: int, smin: float) -> float:
    tail = 0.0
    t = B
    for _ in range(200):
        tail += 4.0 * (t * (1 + math.log(t)) ** (r - 1)) * t ** (-smin)
        if t > B * 1e12:
            break
        t *= 2.0
    return tail


def _zeta_results(fan: Fan, vals, Bs, sums) -> list:
    """ZetaPartial per B of Bs, from sums, the (value, n_points) of the
    bounds >= 1, which come last; the bounds below 1 admit no point."""
    low = len(Bs) - len(sums)
    smin = min(v.real for v in vals)
    r = len(fan.rays) - fan.dim
    out = [ZetaPartial(value=0j, B=float(B), n_points=0, tail_estimate=0.0)
           for B in Bs[:low]]
    for B, (value, n_points) in zip(Bs[low:], sums):
        out.append(ZetaPartial(value=value, B=float(B), n_points=n_points,
                               tail_estimate=_tail_estimate(float(B), r,
                                                            smin)))
    return out


# The height-class sums.  On a split toric variety H_lambda depends on
# lambda only through its class in Pic: on P^n it is max|x_i|^(sum lambda)
# for primitive Cox coordinates x, and on P^1 x P^1 it is
# h1^s1 h2^s2, h_i the max-norm heights of the factors and s_i the lambda
# sums of their two opposite rays.  So the points of one height class
# share their term, and a partial zeta sum is a Dirichlet sum over
# heights, with no walk.  The terms are generated, _CHUNK heights at a
# time, and summed twice (real and imaginary parts), never stored.

_ZETA = "height-class zeta sum"   # what the refusals below name


def _dirichlet_terms(c, s, T: int):
    """Yield the terms c[h] h^-s, 1 <= h <= T, of a height table c."""
    for h0 in range(1, T + 1, _CHUNK):
        block = c[h0:min(h0 + _CHUNK, T + 1)].tolist()
        yield from (ch * h ** -s for h, ch in enumerate(block, h0))


def _complex_fsum(terms) -> complex:
    """The exactly rounded sum of the terms that terms() yields, real and
    imaginary parts apart."""
    return complex(math.fsum(z.real for z in terms()),
                   math.fsum(z.imag for z in terms()))


def _projective_zeta(n: int, s, Bqs) -> list:
    """(value, n_points) on P^n, where H_rho = h^(n+1) and H_lambda = h^s
    at max-norm height h: sum_{h <= T} c(h) h^-s with T^(n+1) <= B."""
    Ts = [_int_nth_root(Bq, n + 1) for Bq in Bqs]
    _check_table(Ts[-1], Bqs[-1], _ZETA, "B")
    if 2 ** n * Ts[-1] ** (n + 1) >= 2 ** 63:
        raise CountingError(
            f"{_ZETA} on P^{n} would overflow int64 counting heights up "
            f"to {Ts[-1]} (B = {_magnitude(Bqs[-1])})")
    c = projective_height_counts(n, Ts[-1])
    return [(_complex_fsum(lambda: _dirichlet_terms(c, s, T)),
             int(c[1:T + 1].sum())) for T in Ts]


def _p1xp1_zeta(s1, s2, Bqs) -> list:
    """(value, n_points) on P^1 x P^1, where H_rho = (h1 h2)^2 and
    H_lambda = h1^s1 h2^s2: the sum of c(h1) h1^-s1 c(h2) h2^-s2 over
    the D(R) = sum_h1 floor(R/h1) pairs with h1 h2 <= R = isqrt(floor(B)).
    A bound with more than _MAX_TABLE pairs is refused before any
    allocation."""
    Rs = [math.isqrt(math.floor(Bq)) for Bq in Bqs]
    top = Rs[-1]
    _check_table(top, Bqs[-1], _ZETA, "B")
    r = math.isqrt(top)
    pairs = 2 * sum(top // h for h in range(1, r + 1)) - r * r
    if pairs > _MAX_TABLE:
        raise CountingError(
            f"{_ZETA} on P^1 x P^1 would take {pairs} "
            f"terms (B = {_magnitude(Bqs[-1])}), over the limit of "
            f"{_MAX_TABLE}")
    table = projective_height_counts(1, top)
    first = [0j, *_dirichlet_terms(table, s1, top)]
    second = [0j, *(h ** -s2 for h in range(1, top + 1))]
    c = table.tolist()
    cumulative = [0, *accumulate(c[1:])]
    return [(_complex_fsum(lambda: (first[h1] * c[h2] * second[h2]
                                    for h1 in range(1, R + 1)
                                    for h2 in range(1, R // h1 + 1))),
             sum(c[h1] * cumulative[R // h1] for h1 in range(1, R + 1)))
            for R in Rs]


def _zeta_partials(fan: Fan, lam, Bs, stats=None):
    """(engine, partials): zeta_partial for every B of the ascending Bs.

    On P^n and P^1 x P^1, recognized by _cox_shape in any basis and ray
    order, as for the Cox-coordinate count, each bound's sum is a Dirichlet
    sum over max-norm heights (engine "torsor", stats untouched).
    Elsewhere it comes from one enumeration at the largest bound,
    _zeta_walk (engine "dfs"), whose counts are added into stats, if
    given.  Either way each bound's value is the exactly rounded sum of
    its terms, real and imaginary parts apart."""
    vals = _zeta_lambda(fan, lam)
    Bqs = [_exact(B, "the bound B") for B in Bs]
    shape = _cox_shape(fan)
    if shape is None or shape[0] == "F" and shape[1] > 0:
        return "dfs", _zeta_walk(fan, lam, Bs, stats)
    Bqs = Bqs[bisect_left(Bqs, 1):]   # bounds below 1 admit no point
    if not Bqs:
        sums = []
    elif shape[0] == "P":
        sums = _projective_zeta(shape[1], sum(vals), Bqs)
    else:
        a, b, c, e = shape[2]
        sums = _p1xp1_zeta(vals[b] + vals[e], vals[a] + vals[c], Bqs)
    return "torsor", _zeta_results(fan, vals, Bs, sums)


def _zeta_walk(fan: Fan, lam, Bs, stats=None) -> list:
    """zeta_partial for every B of the ascending Bs, from one enumeration
    at the largest; its DFS counts are added into stats, if given, with
    "located", the accepted profiles whose cone was found by locate.

    With s the cone of -v, v = sum_p n_p log p, and m_s = inv_s^T
    lambda_s its monomial, phi(-v) = -sum_p log p <m_s, n_p>, so the
    exponent is sum_p log p r_(n_p)[s], r_n = pl.row(n).  For strictly
    convex rho (one vertex per cone: the monomials) s is the least entry
    of the walk's carried vector, cones tied on a wall giving equal terms;
    otherwise (hirzebruch-2, whose cones 1 and 2 share a monomial, or
    non-convex rho) locate finds s.

    When every ray's negative is a ray with the same lambda value (and
    so with the same rho value), x and its negation have equal heights
    and equal terms, and the walk is halved as the count path halves.
    Each accepted profile's weighted term goes to the list of the first
    bound it satisfies, and bound j's value is the exactly rounded sum
    (math.fsum, real and imaginary parts apart) of the unit term and the
    lists 0..j: doubling is exact and fsum does not depend on order, so
    the halved sums equal the unhalved ones bit for bit, whatever the
    order of the walk.  That holds one complex number per accepted
    signless profile until the sums are taken."""
    vals = _zeta_lambda(fan, lam)
    d = fan.dim
    rho = tuple([1] * len(fan.rays))
    Bqs = [Fraction(B) for B in Bs]
    low = bisect_left(Bqs, 1)   # bounds below 1 admit no point
    k = len(Bqs) - low

    terms = [[] for _ in range(k)]   # weighted terms, by first bound
    pl = PLFunction(fan, tuple(vals))
    cut = PLFunction(fan, rho)
    strict = cut.is_convex and len(cut.vertices) == len(fan.max_cones)
    logs = cache(math.log)
    located = 0

    def visit(stack, weight, first, M):
        nonlocal located
        if strict:
            s = M.index(min(M))
        else:
            located += 1
            s = pl.locate([-sum(n[c] * logs(p) for p, n in stack)
                           for c in range(d)])[0]
        expo = 0j
        for p, n in stack:
            expo += logs(p) * pl.row(n)[s]
        terms[first].append(weight * 2 ** d * cmath.exp(-expo))

    profiles = []
    if k:
        profiles = _count_general(fan, rho, Bqs[low:],
                                  halve=_is_symmetric(fan, vals),
                                  visitor=visit, stats=stats)
        if stats is not None:
            _add_stats(stats, {"located": located})

    sums = []
    re, im = [float(2 ** d)], []   # the unit profile: height 1, 2^d points
    for j in range(k):
        re += (z.real for z in terms[j])
        im += (z.imag for z in terms[j])
        sums.append((complex(math.fsum(re), math.fsum(im)),
                     profiles[j] * 2 ** d))
    return _zeta_results(fan, vals, Bs, sums)
