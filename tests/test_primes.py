"""Multiplicative-function tables against their definitions."""

import math

import pytest

from manin_toric import primes
from manin_toric.primes import (divisor_count_table, factorize, mobius_table,
                                totient_table)

N = 2000


def naive_divisor_count(k):
    return sum(1 for j in range(1, k + 1) if k % j == 0)


def naive_totient(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def naive_factorize(n):
    out, p = [], 2
    while n > 1:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    return out


def test_factorize_matches_brute_force():
    for n in range(1, 5001):
        assert factorize(n) == naive_factorize(n)


def test_factorize_prime_powers_and_large_semiprimes():
    for p in (2, 3, 5, 97, 65521, 999983):
        for k in range(1, 60):
            if p ** k > 10**18:
                break
            assert factorize(p ** k) == [(p, k)]
    # p * q near 1e12 with both (prime) factors close to 1e6, and a
    # prime near 1e12 times 2
    for p, q in ((999979, 999983), (999983, 1000003), (999961, 1000033)):
        assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(2 * 999999000001) == [(2, 1), (999999000001, 1)]


def naive_mobius(k):
    exponents = [e for _p, e in naive_factorize(k)]
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def test_tables_match_definitions_for_every_size():
    d = [0] + [naive_divisor_count(k) for k in range(1, N + 1)]
    phi = [0] + [naive_totient(k) for k in range(1, N + 1)]
    mu = [0] + [naive_mobius(k) for k in range(1, N + 1)]
    for n in range(N + 1):
        assert divisor_count_table(n).tolist() == d[: n + 1]
        assert totient_table(n).tolist() == phi[: n + 1]
        assert mobius_table(n).tolist() == mu[: n + 1]


def test_divisor_summatory():
    assert int(divisor_count_table(10**5).sum()) == 1166750


def test_oversized_sieve_refused_before_allocation(monkeypatch):
    # the sieve is the only allocation: np.ones must not be reached
    monkeypatch.setattr(primes.np, "ones", None)
    with pytest.raises(ValueError, match=r"^a prime sieve up to 100000001 "
                       r"is over the limit of 100000000$"):
        primes.primes_up_to(primes._MAX_SIEVE + 1)
