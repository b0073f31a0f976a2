"""Prime sieves and small multiplicative-function tables."""

from __future__ import annotations

import math

import numpy as np

# largest prime sieve primes_up_to builds: a larger one would need
# gigabytes and hours, so it is refused before any allocation
_MAX_SIEVE = 10 ** 8


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2); raises
    ValueError for n above _MAX_SIEVE."""
    if n > _MAX_SIEVE:
        raise ValueError(f"a prime sieve up to {n} is over the limit of "
                         f"{_MAX_SIEVE}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (p, exponent).

    Trial division by 2, then by odd d while d * d <= m, m the cofactor
    still to split.  No sieve: the callers factor one coordinate per
    point.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def totient_table(n: int) -> np.ndarray:
    """phi(k) for 0 <= k <= n (phi[0] = 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    if n >= 1:
        phi[0] = 0
    for p in primes_up_to(n):
        phi[p::p] -= phi[p::p] // p
    return phi


def mobius_table(n: int) -> np.ndarray:
    """mu(k) for 0 <= k <= n (mu[0] = 0)."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_up_to(n):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def divisor_count_table(n: int) -> np.ndarray:
    """d(k) = number of divisors, for 0 <= k <= n (d[0] = 0)."""
    # each divisor pair (k, m/k) of m with k <= sqrt(m), counted once
    # when k*k = m
    d = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, math.isqrt(n) + 1):
        d[k * k:: k] += 2
        d[k * k] -= 1
    return d
