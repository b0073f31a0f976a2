"""Valuation profiles, local/global heights, adelic characters."""

import cmath
import math
from fractions import Fraction

import pytest

from manin_toric.counting import enumerate_bounded
from manin_toric.heights import (INF, AdelicOffset, ValuationProfile,
                                 character_pairing, exact_height,
                                 global_height, local_height, make_offset,
                                 valuation_profile)
from manin_toric.latticefan import PLFunction, builtin_fan


def close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel)


def test_profile_examples():
    pr = valuation_profile([-12])
    assert pr.signs == (-1,)
    assert pr.support == ((2, (2,)), (3, (1,)))

    pr2 = valuation_profile([Fraction(3, 2), 1])
    assert pr2.signs == (1, 1)
    assert pr2.support == ((2, (-1, 0)), (3, (1, 0)))

    pr3 = valuation_profile([1, 1, 1])
    assert pr3.support == ()
    assert pr3.signs == (1, 1, 1)


def test_profile_is_a_value():
    support = ((2, (1, -1)), (5, (0, 2)))
    by_keyword = ValuationProfile(dim=2, support=support, signs=(1, -1))
    by_position = ValuationProfile(2, support, (1, -1))
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert repr(by_keyword) == ("ValuationProfile(dim=2, support=((2, "
                                "(1, -1)), (5, (0, 2))), signs=(1, -1))")
    assert by_keyword != ValuationProfile(2, support, (1, 1))
    assert len({by_keyword, by_position, valuation_profile(
        [Fraction(2), Fraction(-25, 2)])}) == 1
    for name in ("dim", "support", "signs", "other"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, 3)
    assert by_keyword.primes == (2, 5)
    assert by_keyword.order_vector(5) == (0, 2)
    assert by_keyword.order_vector(3) == (0, 0)


def test_profile_roundtrip():
    for x in ([Fraction(3, 2), Fraction(-5, 7)], [Fraction(1)],
              [Fraction(-36, 25), Fraction(49, 8)]):
        pr = valuation_profile(x)
        assert pr.point() == tuple(x)


def test_profile_combine_is_product():
    a = valuation_profile([Fraction(3, 2), Fraction(-5, 7)])
    b = valuation_profile([Fraction(2, 9), Fraction(-7, 5)])
    prod = a.combine(b)
    want = valuation_profile([Fraction(1, 3), Fraction(1)])
    assert prod == want


def test_profile_zero_rejected():
    with pytest.raises(ValueError):
        valuation_profile([1, 0])


def test_local_height_p1_anchors():
    fan = builtin_fan("p1")
    rho = PLFunction(fan, (1, 1))
    x3 = valuation_profile([3])
    assert close(local_height(fan, rho, 3, x3), 3.0)
    x2 = valuation_profile([2])
    assert close(local_height(fan, rho, INF, x2), 2.0)
    # unit at p means local height 1
    assert close(local_height(fan, rho, 5, x2), 1.0)


def test_global_height_p1_anchors():
    fan = builtin_fan("p1")
    rho = (1, 1)
    assert close(global_height(fan, rho, [2]), 4.0)
    assert close(global_height(fan, rho, [Fraction(3, 2)]), 9.0)
    assert close(global_height(fan, rho, [1]), 1.0)


def test_global_height_p1_classical_exhaustive():
    # height of a/b in lowest terms is max(|a|,|b|)^2, all heights <= 100
    fan = builtin_fan("p1")
    rho = (1, 1)
    for a in range(-10, 11):
        for b in range(1, 11):
            if a == 0 or math.gcd(abs(a), b) != 1:
                continue
            h = global_height(fan, rho, [Fraction(a, b)])
            assert close(h, max(abs(a), b) ** 2, rel=1e-9)


def test_global_height_p2_classical_point():
    # (3/2, 1) is (3:2:2) in P^2, classical height 3, anticanonical 27
    fan = builtin_fan("p2")
    rho = (1, 1, 1)
    h = global_height(fan, rho, [Fraction(3, 2), 1])
    assert close(h, 27.0, rel=1e-9)


def test_height_multiplicative_in_lambda():
    fan = builtin_fan("p2")
    lam1 = (1, 2, 1)
    lam2 = (2, 1, 3)
    lam12 = (3, 3, 4)
    x = [Fraction(-9, 4), Fraction(5, 21)]
    h1 = global_height(fan, lam1, x)
    h2 = global_height(fan, lam2, x)
    h12 = global_height(fan, lam12, x)
    assert close(h12, h1 * h2, rel=1e-9)


def test_height_homogeneous_in_lambda():
    fan = builtin_fan("p1xp1")
    lam = (1, 2, 1, 1)
    x = [Fraction(7, 3), Fraction(-2, 5)]
    h = global_height(fan, lam, x)
    h3 = global_height(fan, tuple(3 * v for v in lam), x)
    assert close(h3, h ** 3, rel=1e-9)


def test_linear_lambda_product_formula():
    # lambda = (m, -m) on P^1 is a linear function; its height must be
    # identically 1 on rational points
    fan = builtin_fan("p1")
    for m in (1, 2, 5):
        lam = (m, -m)
        for x in (2, Fraction(3, 2), Fraction(-7, 40)):
            assert close(global_height(fan, lam, [x]), 1.0, rel=1e-9)


def test_complex_lambda_power_law():
    fan = builtin_fan("p1")
    s = 1.5 + 0.7j
    lam = (s, s)
    x = [Fraction(5, 3)]
    h = global_height(fan, lam, x)
    base = global_height(fan, (1, 1), x)
    assert abs(h - base ** s) < 1e-9 * abs(base ** s)


def test_height_with_offset():
    fan = builtin_fan("p1")
    rho = (1, 1)
    off = make_offset(1, finite={2: (1,)})
    h = global_height(fan, rho, [1], off)
    assert close(h, 2.0)
    # archimedean offset shifts the point continuously
    off2 = make_offset(1, arch=(math.log(3),))
    h2 = global_height(fan, rho, [1], off2)
    assert close(h2, 3.0, rel=1e-9)


def test_character_trivial_on_rationals():
    fan = builtin_fan("p1xp1")
    for x in ([Fraction(3, 2), Fraction(-5, 7)],
              [Fraction(22, 7), Fraction(1, 10)]):
        for m in ((1.0, 0.0), (0.3, -2.0), (4.5, 4.5)):
            val = character_pairing(fan, m, x)
            assert abs(val - 1.0) < 1e-12


def test_character_zero_m():
    fan = builtin_fan("p2")
    val = character_pairing(fan, (0.0, 0.0), [Fraction(3, 5), 7])
    assert abs(val - 1.0) < 1e-15


def test_character_single_offset_place():
    fan = builtin_fan("p1")
    off = make_offset(1, finite={2: (1,)})
    for t in (0.5, 1.0, -3.25):
        val = character_pairing(fan, (t,), [1], off)
        want = cmath.exp(-1j * t * math.log(2))
        assert abs(val - want) < 1e-12


def test_offset_zero_factory():
    off = AdelicOffset.zero(3)
    assert off.finite == ()
    assert off.arch_vector == (0.0, 0.0, 0.0)
    assert off.finite_vector(5) == (0, 0, 0)


CONVEX_CASES = [("p1", (1, 1)), ("p2", (1, 2, 1)), ("p3", (1, 1, 1, 1)),
                ("p1xp1", (1, 2, 1, 1)), ("hirzebruch-1", (2, 1, 3, 1)),
                ("hirzebruch-2", (1, 1, 1, 1))]
NON_CONVEX_CASES = [("hirzebruch-1", (1, 5, 1, 1)),
                    ("hirzebruch-2", (1, 5, 1, 1))]


@pytest.mark.parametrize("name,lam", CONVEX_CASES + NON_CONVEX_CASES)
def test_exact_height_matches_global_height(name, lam):
    fan = builtin_fan(name)
    assert PLFunction(fan, lam).is_convex == ((name, lam) in CONVEX_CASES)
    n = 0
    for prof in enumerate_bounded(fan, lam, 60):
        assert close(float(exact_height(fan, lam, prof)),
                     global_height(fan, lam, prof), rel=1e-9), prof
        n += 1
    assert n > 4


def test_exact_height_non_convex_point():
    # phi_lambda of (1,5,1,1) on the first Hirzebruch surface is not
    # convex, so the max over cone monomials (11390625) overshoots
    fan = builtin_fan("hirzebruch-1")
    x = [Fraction(3, 2), 5]
    assert exact_height(fan, (1, 5, 1, 1), x) == 421875
    assert close(global_height(fan, (1, 5, 1, 1), x), 421875.0, rel=1e-9)


def test_exact_height_needs_integral_lambda():
    with pytest.raises(ValueError, match="integral"):
        exact_height(builtin_fan("p1"), (Fraction(1, 2), 1), [3])
