"""Canonical local and global heights for torus points over Q.

A point of the split torus (Q*)^d is carried as a valuation profile:
its prime-by-prime order vectors plus a sign vector.  Local heights at
finite places exponentiate the piecewise-linear function at the order
vector; the archimedean place uses minus the log-modulus vector, the
unique choice for which linear functions obey the product formula and
the adelic character pairing is trivial on rational points.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from .latticefan import Fan, PLFunction
from .primes import factorize

INF = float("inf")


class ValuationProfile(NamedTuple):
    """Finite-place order vectors and signs of a point of (Q*)^d.

    Immutable, hashed and compared by value; a named tuple, so the
    enumeration builds one per point cheaply."""

    dim: int
    support: tuple    # ((p, order vector), ...) by ascending prime
    signs: tuple      # componentwise signs, each +1 or -1

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.support)

    def order_vector(self, p: int) -> tuple:
        for q, vec in self.support:
            if q == p:
                return vec
        return (0,) * self.dim

    @property
    def arch_log(self) -> tuple:
        """Componentwise log|x| = sum_p n_p log p."""
        out = [0.0] * self.dim
        for p, vec in self.support:
            lp = math.log(p)
            for i, n in enumerate(vec):
                out[i] += n * lp
        return tuple(out)

    def point(self) -> tuple:
        """Reconstruct the rational coordinates exactly."""
        coords = [Fraction(s) for s in self.signs]
        for p, vec in self.support:
            for i, n in enumerate(vec):
                coords[i] *= Fraction(p) ** n
        return tuple(coords)

    def combine(self, other: "ValuationProfile") -> "ValuationProfile":
        """Profile of the componentwise product of the two points."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        merged = {}
        for p, vec in self.support + other.support:
            cur = merged.setdefault(p, [0] * self.dim)
            for i, n in enumerate(vec):
                cur[i] += n
        support = tuple(
            (p, tuple(vec)) for p, vec in sorted(merged.items())
            if any(vec))
        signs = tuple(a * b for a, b in zip(self.signs, other.signs))
        return ValuationProfile(dim=self.dim, support=support, signs=signs)


def valuation_profile(x) -> ValuationProfile:
    """Exact factorization of a vector of nonzero rationals."""
    coords = [Fraction(c) for c in x]
    d = len(coords)
    if d == 0:
        raise ValueError("empty point")
    orders = {}
    signs = []
    for i, c in enumerate(coords):
        if c == 0:
            raise ValueError(f"coordinate {i} is zero")
        signs.append(1 if c > 0 else -1)
        for p, k in factorize(abs(c.numerator)):
            orders.setdefault(p, [0] * d)[i] += k
        for p, k in factorize(c.denominator):
            orders.setdefault(p, [0] * d)[i] -= k
    support = tuple((p, tuple(vec)) for p, vec in sorted(orders.items())
                    if any(vec))
    return ValuationProfile(dim=d, support=support, signs=tuple(signs))


class AdelicOffset(NamedTuple):
    """Shift of the valuation data, finitely supported; the adelic
    argument of a height becomes (n_v + g_v) at each place."""

    dim: int
    finite: tuple = ()   # ((p, integer vector), ...) by ascending prime
    arch: tuple = ()     # real vector, empty means zero

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.finite)

    def finite_vector(self, p: int) -> tuple:
        for q, vec in self.finite:
            if q == p:
                return vec
        return (0,) * self.dim

    @property
    def arch_vector(self) -> tuple:
        return self.arch if self.arch else (0.0,) * self.dim


def make_offset(dim: int, finite=None, arch=None) -> AdelicOffset:
    fin = tuple(sorted((int(p), tuple(int(c) for c in vec))
                       for p, vec in (finite or {}).items()))
    return AdelicOffset(dim=dim, finite=fin,
                        arch=tuple(float(a) for a in arch) if arch else ())


def _kernel(fan: Fan, lam) -> PLFunction:
    return lam if isinstance(lam, PLFunction) else PLFunction(fan, tuple(lam))


def _as_profile(x) -> ValuationProfile:
    return x if isinstance(x, ValuationProfile) else valuation_profile(x)


def local_height(fan: Fan, lam, place, profile, offset=None):
    """exp(phi_lambda(n_v + g_v) * log q_v); log q_oo = 1."""
    phi_lambda = _kernel(fan, lam)
    profile = _as_profile(profile)
    if offset is None:
        offset = AdelicOffset(fan.dim)
    if place == INF or place == "inf":
        base = profile.arch_log
        arg = tuple(-b + g for b, g in zip(base, offset.arch_vector))
        logq = 1.0
    else:
        p = int(place)
        if p < 2:
            raise ValueError("place must be a prime or the symbol inf")
        arg = tuple(a + b for a, b in
                    zip(profile.order_vector(p), offset.finite_vector(p)))
        logq = math.log(p)
    phi = phi_lambda(arg)
    val = complex(phi) * logq
    if val.imag == 0:
        return math.exp(val.real)
    return cmath.exp(val)


def global_height(fan: Fan, lam, x, offset=None):
    """Product of the local heights over inf and all supporting primes."""
    lam = _kernel(fan, lam)
    profile = _as_profile(x)
    if offset is None:
        offset = AdelicOffset(fan.dim)
    places = sorted(set(profile.primes) | set(offset.primes))
    out = local_height(fan, lam, INF, profile, offset)
    for p in places:
        out *= local_height(fan, lam, p, profile, offset)
    return out


def exact_height(fan: Fan, lam, x) -> Fraction:
    """Global height as an exact Fraction, for any integral lambda,
    convex or not: prod_p p^(phi(n_p)) times the archimedean factor
    exp(phi(-sum_p n_p log p)), which is prod_p p^(r_(n_p)[s]) with r the
    kernel's cached rows and s the cone of -sum_p n_p log p; for convex
    phi, the largest of these products over all cones s (see
    PLFunction.profile_height).  Raises ValueError for non-integral
    lambda."""
    return _kernel(fan, lam).profile_height(_as_profile(x).support)


def character_pairing(fan: Fan, m, x, offset=None) -> complex:
    """exp(-i <m, n_v + g_v> log q_v) aggregated over all places.

    Trivial on rational points with zero offset: the finite-place sum
    of n_p log p cancels the archimedean -log|x| exactly.
    """
    profile = _as_profile(x)
    if len(m) != fan.dim:
        raise ValueError("spectral parameter has wrong dimension")
    if offset is None:
        offset = AdelicOffset(fan.dim)
    total = 0.0
    arch = [-a + g for a, g in zip(profile.arch_log, offset.arch_vector)]
    total += sum(mi * ai for mi, ai in zip(m, arch))
    for p in sorted(set(profile.primes) | set(offset.primes)):
        vec = [a + b for a, b in
               zip(profile.order_vector(p), offset.finite_vector(p))]
        total += sum(mi * vi for mi, vi in zip(m, vec)) * math.log(p)
    return cmath.exp(-1j * total)
