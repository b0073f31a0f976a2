"""Multiplicative-function tables against their definitions."""

import math

from manin_toric.primes import divisor_count_table, totient_table

N = 2000


def naive_divisor_count(k):
    return sum(1 for j in range(1, k + 1) if k % j == 0)


def naive_totient(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def test_tables_match_definitions_for_every_size():
    d = [0] + [naive_divisor_count(k) for k in range(1, N + 1)]
    phi = [0] + [naive_totient(k) for k in range(1, N + 1)]
    for n in range(N + 1):
        assert divisor_count_table(n).tolist() == d[: n + 1]
        assert totient_table(n).tolist() == phi[: n + 1]


def test_divisor_summatory():
    assert int(divisor_count_table(10**5).sum()) == 1166750
