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
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product as _iproduct

import numpy as np

from .heights import ValuationProfile
from .latticefan import Fan, PLFunction
from .primes import primes_up_to
from .toric import LeadingConstant, leading_constant


class CountingError(ValueError):
    pass


def _lambda_ints(fan: Fan, lam):
    """Scale lambda to a positive integer vector; heights obey
    H_scaled = H^L, so bounds scale as B^L exactly."""
    values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    if len(values) != len(fan.rays):
        raise CountingError("one lambda value per ray required")
    fracs = [Fraction(v) for v in values]
    if any(v <= 0 for v in fracs):
        raise CountingError("lambda must be positive on every ray; "
                            "the count is infinite otherwise")
    L = 1
    for v in fracs:
        L = L * v.denominator // math.gcd(L, v.denominator)
    ints = tuple(int(v * L) for v in fracs)
    return ints, L


def _is_symmetric(fan: Fan, lam_ints) -> bool:
    # negation-invariant data: every ray's negative is a ray carrying
    # the same lambda value
    index = {ray: j for j, ray in enumerate(fan.rays)}
    for j, ray in enumerate(fan.rays):
        neg = tuple(-c for c in ray)
        k = index.get(neg)
        if k is None or lam_ints[k] != lam_ints[j]:
            return False
    return True


def _candidates(pl: PLFunction, kmax: int):
    """All n in Z^d \\ {0} with phi(n) <= kmax, as (phi, n, pairings)
    sorted by phi then lexicographically; pairings = pl.pairings(n), what
    n adds per unit of log p to the vector the DFS carries."""
    fan = pl.fan
    d = fan.dim
    found = {}
    for cone in fan.max_cones:
        lams = [pl.values[j] for j in cone]
        rays = [fan.rays[j] for j in cone]
        bounds = [kmax // l for l in lams]
        for coords in _iproduct(*(range(b + 1) for b in bounds)):
            phi = sum(a * l for a, l in zip(coords, lams))
            if phi == 0 or phi > kmax:
                continue
            n = tuple(sum(a * rays[i][k] for i, a in enumerate(coords))
                      for k in range(d))
            found.setdefault(n, phi)
    out = sorted((phi, n) for n, phi in found.items())
    return [(phi, n, pl.pairings(n)) for phi, n in out]


def _lex_positive(n) -> bool:
    for c in n:
        if c != 0:
            return c > 0
    return False


def _int_nth_root(Bq: Fraction, s: int) -> int:
    """Largest integer T with T^s <= Bq."""
    if Bq < 1:
        return 0
    T = int(round(float(Bq) ** (1.0 / s)))
    T = max(T, 1)
    while Fraction(T) ** s > Bq:
        T -= 1
    while Fraction(T + 1) ** s <= Bq:
        T += 1
    return T


def _count_dim1(lam_ints, Bqs, root_filter=None, visitor=None):
    """Exact integer engine for d = 1 fans (rays +1 and -1).

    The height of a/b in lowest terms is max(a, b)^(l+ + l-), so each
    bound is an integer box constraint max(a, b) <= T_i and the whole
    search runs on machine integers.  Returns, per bound of the
    ascending Bqs (all >= 1), the number of accepted profiles
    (signless); each corresponds to 2 points.
    """
    s = sum(lam_ints)
    Ts = [_int_nth_root(Bq, s) for Bq in Bqs]
    T = Ts[-1]
    primes = [int(p) for p in primes_up_to(T)]
    nprimes = len(primes)
    bins = [0] * len(Ts)
    stack = []

    def rec(i0, a, b):
        for i in range(i0, nprimes):
            p = primes[i]
            na = a * p
            nb = b * p
            if na > T and nb > T:
                break
            if i0 == 0 and root_filter is not None and not root_filter(i):
                continue
            e = 1
            while na <= T:
                j = bisect_left(Ts, na if na > b else b)
                bins[j] += 1
                if visitor is not None:
                    stack.append((p, (e,)))
                    visitor(tuple(stack), 1, j)
                rec(i + 1, na, b)
                if visitor is not None:
                    stack.pop()
                na *= p
                e += 1
            e = 1
            while nb <= T:
                j = bisect_left(Ts, nb if nb > a else a)
                bins[j] += 1
                if visitor is not None:
                    stack.append((p, (-e,)))
                    visitor(tuple(stack), 1, j)
                rec(i + 1, a, nb)
                if visitor is not None:
                    stack.pop()
                nb *= p
                e += 1

    if root_filter is None:
        bins[0] += 1   # the unit profile, height 1
    rec(0, 1, 1)
    return list(accumulate(bins))


_MARGIN = 1e-9


def _count_general(fan: Fan, lam_ints, Bqs, *, halve: bool,
                   root_filter=None, visitor=None):
    """DFS engine for any dimension.  One pass, sized by the largest of
    the ascending bounds Bqs (all >= 1), serves them all: each accepted
    profile goes to the bin of the first bound it satisfies, and the
    visitor, if any, gets that bin's index.  Returns per bound the
    accepted profile count, with lex-positive first vectors counted
    double when halve is set (profile negation preserves heights for
    symmetric data).

    The archimedean term phi(-v) of v = sum_p n_p log p is kept
    incrementally: each node adds log p times the candidate's pairings
    to its parent's carried vector, whose archimedean term is
    -min_sigma <m_sigma, v> when phi is convex and pl.arch otherwise.
    """
    k = len(Bqs)
    logBs = [math.log(Bq.numerator) - math.log(Bq.denominator)
             for Bq in Bqs]
    logB = logBs[-1]
    intB = math.floor(Bqs[-1])
    kmax = intB.bit_length() - 1   # max phi with 2^phi <= B
    pl = PLFunction(fan, lam_ints)
    convex = pl.is_convex
    arch = pl.arch
    cands = _candidates(pl, kmax) if kmax >= 1 else []
    half_cands = [c for c in cands if _lex_positive(c[1])] if halve else cands
    c_min = cands[0][0] if cands else 1
    prime_limit = int(math.exp(min((logB + _MARGIN) / c_min, 45.0))) + 1
    primes = [int(p) for p in primes_up_to(prime_limit)]
    logs = [math.log(p) for p in primes]
    nprimes = len(primes)
    weight = 2 if halve else 1

    bins = [0] * k
    stack = []

    def rec(i0, F, logF, M, at_root):
        budget = logB - logF + _MARGIN
        table = half_cands if (halve and at_root) else cands
        for i in range(i0, nprimes):
            lq = logs[i]
            if c_min * lq > budget:
                break
            if at_root and root_filter is not None and not root_filter(i):
                continue
            p = primes[i]
            for phi, n, P in table:
                if phi * lq > budget:
                    break
                Fc = F * p ** phi
                if Fc > intB:
                    continue
                logFc = logF + phi * lq
                Mc = [m + lq * x for m, x in zip(M, P)]
                logH = logFc - min(Mc) if convex else logFc + arch(Mc)
                stack.append((p, n))
                # bounds below lo fail and bounds from hi on hold; the
                # ones in between are within the margin, decided exactly
                lo = bisect_left(logBs, logH - _MARGIN)
                if lo < k:
                    hi = bisect_left(logBs, logH + _MARGIN, lo)
                    j = lo
                    if lo < hi:
                        j = bisect_left(Bqs, pl.profile_height(stack),
                                        lo, hi)
                    if j < k:
                        bins[j] += weight
                        if visitor is not None:
                            visitor(tuple(stack), weight, j)
                # lo < k: within the largest bound; extensions of a
                # profile above it can still qualify only for non-convex phi
                if lo < k or not convex:
                    rec(i + 1, Fc, logFc, Mc, False)
                stack.pop()

    if root_filter is None:
        bins[0] += 1   # the unit profile, height 1
    rec(0, 1, 0.0, pl.pairings((0,) * fan.dim), True)
    return list(accumulate(bins))


def _is_p1_like(fan: Fan) -> bool:
    return fan.dim == 1 and set(fan.rays) == {(1,), (-1,)}


def _count_profiles(fan, lam_ints, Bqs, root_filter=None, visitor=None,
                    force_general=False):
    if _is_p1_like(fan) and not force_general:
        if fan.rays[0] == (1,):
            lpos, lneg = lam_ints
        else:
            lneg, lpos = lam_ints
        return _count_dim1((lpos, lneg), Bqs, root_filter=root_filter,
                           visitor=visitor)
    halve = _is_symmetric(fan, lam_ints) and visitor is None
    return _count_general(fan, lam_ints, Bqs, halve=halve,
                          root_filter=root_filter, visitor=visitor)


def _worker(args):
    fan_json, lam_ints, bounds, nworkers, k, force_general = args
    from .latticefan import fan_from_json
    fan = fan_from_json(fan_json)
    Bqs = [Fraction(num, den) for num, den in bounds]
    return _count_profiles(fan, tuple(lam_ints), Bqs,
                           root_filter=lambda i: i % nworkers == k,
                           force_general=force_general)


def _count_grid(fan: Fan, lam, bounds, threads: int = 1,
                force_general: bool = False) -> list:
    """N(B) for every B of the ascending bounds, from one enumeration;
    with threads > 1 the root primes are split over one worker pool."""
    lam_ints, L = _lambda_ints(fan, lam)
    Bqs = [Fraction(B) ** L for B in bounds]
    low = bisect_left(Bqs, 1)   # bounds below 1 admit no point
    Bqs = Bqs[low:]
    if not Bqs:
        return [0] * low
    if threads <= 1:
        profiles = _count_profiles(fan, lam_ints, Bqs,
                                   force_general=force_general)
    else:
        from .latticefan import fan_to_json
        import multiprocessing as mp
        src = fan_to_json(fan)
        fracs = [(Bq.numerator, Bq.denominator) for Bq in Bqs]
        jobs = [(src, lam_ints, fracs, threads, k, force_general)
                for k in range(threads)]
        with mp.Pool(threads) as pool:
            parts = pool.map(_worker, jobs)
        # the unit profile is counted here, not by the workers
        profiles = [1 + sum(col) for col in zip(*parts)]
    return [0] * low + [n * 2 ** fan.dim for n in profiles]


def count_points(fan: Fan, lam, B, threads: int = 1,
                 force_general: bool = False) -> int:
    """N(B): the number of x in (Q*)^d with H_lambda(x) <= B."""
    return _count_grid(fan, lam, [B], threads=threads,
                       force_general=force_general)[0]


def enumerate_bounded(fan: Fan, lam, B):
    """Yield every point of height at most B as a ValuationProfile,
    signs expanded (2^d per signless profile)."""
    lam_ints, L = _lambda_ints(fan, lam)
    Bq = Fraction(B) ** L
    d = fan.dim
    collected = []

    def visit(stack, weight, _bin):
        collected.append(stack)
        if weight == 2:
            collected.append(tuple((p, tuple(-c for c in n))
                                   for p, n in stack))

    if Bq >= 1:
        _count_profiles(fan, lam_ints, [Bq], visitor=visit)
        sign_box = list(_iproduct(*([(1, -1)] * d)))
        for signs in sign_box:
            yield ValuationProfile(dim=d, support=(), signs=signs)
        for stack in collected:
            support = tuple(sorted(stack))
            for signs in sign_box:
                yield ValuationProfile(dim=d, support=support, signs=signs)


@dataclass
class CountReport:
    fan_name: str
    lam: tuple
    bounds: list
    counts: list
    predicted: list
    ratios: list
    constant: LeadingConstant | None = None

    def rows(self):
        for B, N, pred, ratio in zip(self.bounds, self.counts,
                                     self.predicted, self.ratios):
            yield {"B": B, "N": N, "predicted": pred, "ratio": ratio}


def count_N(fan: Fan, lam, bounds, threads: int = 1,
            pmax: int = 100000) -> CountReport:
    """Exact counts over a grid of height bounds, from one enumeration at
    the largest, with the main-term prediction
    Theta*B*(log B)^(b-1)/(b-1)! attached."""
    lam_values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    bs = sorted(float(b) for b in bounds)
    lc = leading_constant(fan, pmax=pmax)
    counts = _count_grid(fan, lam, bs, threads=threads)
    predicted = [lc.predict(B) for B in bs]
    ratios = [(n / p if p > 0 else math.inf) for n, p in
              zip(counts, predicted)]
    return CountReport(fan_name=fan.name or "fan", lam=lam_values,
                       bounds=bs, counts=counts, predicted=predicted,
                       ratios=ratios, constant=lc)


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


@dataclass
class ZetaPartial:
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
    return _zeta_partials(fan, lam, [B])[0]


def _zeta_partials(fan: Fan, lam, Bs) -> list:
    """zeta_partial for every B of the ascending Bs, from one enumeration
    at the largest.  Each profile's term is added, in enumeration order,
    to the sum of every bound the profile satisfies, so each sum is
    bit-identical to the one a separate enumeration at its bound makes."""
    values = lam.values if isinstance(lam, PLFunction) else tuple(lam)
    if len(values) != len(fan.rays):
        raise CountingError("one lambda value per ray required")
    vals = [complex(v) for v in values]
    smin = min(v.real for v in vals)
    if smin <= 1:
        raise CountingError("Re(lambda_j) > 1 required on every ray")
    d = fan.dim
    rho = tuple([1] * len(fan.rays))
    Bqs = [Fraction(B) for B in Bs]
    low = bisect_left(Bqs, 1)   # bounds below 1 admit no point
    k = len(Bqs) - low

    logp_cache = {}
    total = [complex(2 ** d)] * k  # unit profile: height 1, 2^d points
    npoints = [2 ** d] * k

    pl = PLFunction(fan, tuple(vals))

    def visit(stack, weight, first):
        expo = 0j
        v = [0.0] * d
        for p, n in stack:
            lp = logp_cache.setdefault(p, math.log(p))
            expo += pl(n) * lp
            for c in range(d):
                v[c] += n[c] * lp
        expo += pl(tuple(-x for x in v))
        term = 2 ** d * cmath.exp(-expo)
        for j in range(first, k):
            total[j] += weight * term
            npoints[j] += weight * 2 ** d

    if k:
        _count_profiles(fan, rho, Bqs[low:], visitor=visit,
                        force_general=True)

    r = len(fan.rays) - d
    out = [ZetaPartial(value=0j, B=float(B), n_points=0, tail_estimate=0.0)
           for B in Bs[:low]]
    for j, B in enumerate(Bs[low:]):
        Bf = float(B)
        tail = 0.0
        t = Bf
        for _ in range(200):
            tail += 4.0 * (t * (1 + math.log(t)) ** (r - 1)) * t ** (-smin)
            if t > Bf * 1e12:
                break
            t *= 2.0
        out.append(ZetaPartial(value=total[j], B=Bf, n_points=npoints[j],
                               tail_estimate=tail))
    return out
