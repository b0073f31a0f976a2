"""End-to-end acceptance checks: one test per shipped guarantee.

Each test exercises a full pipeline at its stated tolerance, so the
-v report reads as a one-line pass/fail verdict per guarantee."""

import math
import random
import time
from fractions import Fraction
from math import gcd

from quad_oracles import char_quadrature

from manin_toric.bounds import verify_integral_bounds
from manin_toric.cones import (canonicalize, char_evaluate, char_function,
                               interior_point, make_cone, quotient_char,
                               residue_step)
from manin_toric.counting import count_N, count_points, fit_asymptotic
from manin_toric.fibration import (TorsorSpec, direct_zeta_partial,
                                   fibration_predicted_constant,
                                   fibration_zeta_partial, hirzebruch_fan)
from manin_toric.fourier import poisson_check
from manin_toric.latticefan import builtin_fan
from manin_toric.tauberian import (builtin_oracle, compare,
                                   contour_independence, descend_k,
                                   residue_consistency)
from manin_toric.toric import alpha_constant, leading_constant, \
    tamagawa_number

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854
EULER_GAMMA = 0.5772156649015329


def test_criterion_1_p1_manin_count():
    fan = builtin_fan("p1")
    # exact small values
    assert count_points(fan, (1, 1), 1) == 2
    assert count_points(fan, (1, 1), 4) == 6
    assert count_points(fan, (1, 1), 9) == 14
    t0 = time.perf_counter()
    N = count_points(fan, (1, 1), 1e6)
    elapsed = time.perf_counter() - t0
    # Farey oracle: (2 / zeta(2)) T^2 with T = sqrt(B)
    target = (2 / ZETA2) * 1e6
    assert abs(N - target) / target < 0.05
    assert elapsed < 10.0


def test_criterion_2_p2_manin_count():
    fan = builtin_fan("p2")
    t0 = time.perf_counter()
    N = count_points(fan, (1, 1, 1), 1e5)
    elapsed = time.perf_counter() - t0
    # projective oracle: (2^2 / zeta(3)) T^3 with T = B^(1/3)
    target = (4 / ZETA3) * 1e5
    assert abs(N - target) / target < 0.10
    assert elapsed < 120.0


def test_criterion_3_p1xp1_product_structure():
    fan = builtin_fan("p1xp1")
    p1 = builtin_fan("p1")
    rho = (1, 1, 1, 1)
    B = 1e4

    def phi(m):
        return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

    # independent oracle: group base points by height m^2 and count
    # fiber points under the remaining budget
    cache = {}
    oracle = 0
    m = 1
    while m * m <= B:
        T = B / (m * m)
        key = int(T)
        if key not in cache:
            cache[key] = count_points(p1, (1, 1), T)
        oracle += (2 if m == 1 else 4 * phi(m)) * cache[key]
        m += 1
    N = count_points(fan, rho, B)
    assert N == oracle

    theta = 144 / math.pi ** 4
    assert abs(N - theta * B * math.log(B)) / (theta * B * math.log(B)) < 0.15

    # a degree-1 polynomial in log B explains the counts: the top
    # coefficient lands near theta and residuals die off up the grid
    grid = [10 ** (2 + 0.5 * i) for i in range(7)]
    report = count_N(fan, rho, grid, pmax=20000)
    c0, c1 = fit_asymptotic(report, 1, 2)
    assert abs(c1 - theta) / theta < 0.10
    rel = [abs(b * (c0 + c1 * math.log(b)) - n) / n
           for b, n in zip(grid, report.counts)]
    assert rel[-1] < 0.01
    assert rel[-1] < rel[0] / 10


def test_criterion_4_constants_pipeline():
    expected = {
        "p1": (Fraction(1, 2), 24 / math.pi ** 2),
        "p2": (Fraction(1, 3), 12 / ZETA3),
        "p1xp1": (Fraction(1, 4), 16 / ZETA2 ** 2),
    }
    for name, (alpha, tau_limit) in expected.items():
        fan = builtin_fan(name)
        assert alpha_constant(fan) == alpha
        tam = tamagawa_number(fan, pmax=1000000)
        assert tam.lower <= tau_limit <= tam.upper
        assert (tam.upper - tam.lower) / tam.value < 1e-3


def test_criterion_5_cone_calculus_routes():
    fixtures = [
        (make_cone([[1, 0], [0, 1]]), [(1, -1)]),
        (make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [(1, 1, -2)]),
        (make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         [(1, -1, 0), (0, 1, -1)]),
        (make_cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]),
         [(1, 1, -1)]),
        (make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [(1, -1, 2)]),
        (make_cone([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                    [0, 0, 0, 1]]), [(1, 0, -1, 0), (0, 1, 0, -1)]),
    ]
    rng = random.Random(11)
    for cone, m_rows in fixtures:
        q = quotient_char(cone, m_rows)
        route = char_function(cone)
        for m0 in m_rows:
            route = residue_step(route, m0)
        cc = canonicalize(cone)
        for _ in range(100):
            w = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 997))
                 for _ in cc.generators]
            z = interior_point(cc, w)
            a = char_evaluate(route, z)
            b = q.evaluate(z)
            assert abs(a - b) <= 1e-9 * abs(b)

    quad_fixtures = [
        ([[1, 0], [0, 1]], (2.0, 3.0)),
        ([[2, -1], [1, 3]], (2.5, 1.25)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1.0, 2.0, 3.0)),
        ([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]], (0.5, 0.25, 3.0)),
    ]
    for gens, z in quad_fixtures:
        sym = char_evaluate(char_function(make_cone(gens)), z)
        num = char_quadrature(gens, z)
        assert abs(sym - num) <= 1e-6 * abs(num)


def test_criterion_6_poisson_identity():
    rep1 = poisson_check(builtin_fan("p1"))
    assert tuple(rep1.lam) == (2.0, 2.0)
    assert rep1.rel_error < 1e-4
    rep2 = poisson_check(builtin_fan("p1xp1"))
    assert rep2.rel_error < 1e-4


def test_criterion_7_tauberian_engine():
    z2 = builtin_oracle("zeta2")
    pole = z2.pole
    # brute-force spot value of the divisor summatory function
    assert z2.phi_direct(100, 0) == 482
    X = 1e5
    N = z2.phi_direct(X, 0)
    assert N == 1166750
    lo, hi = descend_k(lambda Y: z2.phi_direct(Y, 1), 1, X)
    assert lo <= N <= hi
    assert abs(lo - N) / N < 0.02
    assert abs(hi - N) / N < 0.02
    # regression over the smooth main term recovers 2 gamma - 1
    rep = compare(z2, [10 ** 3.5, 1e4, 10 ** 4.5, 1e5], pole)
    want = 2 * EULER_GAMMA - 1
    assert abs(rep.residual_coefficient - want) / want < 0.02
    ci = contour_independence(z2, pole, 1000.0, 3)
    assert ci.consistent(1e-3)
    rc = residue_consistency(z2, pole, 1000.0, 3)
    assert rc.rel_error < 1e-3


def test_criterion_8_fibration_hirzebruch_cross_check():
    B = 1e3
    for n in (0, 1, 2):
        fc = fibration_predicted_constant(TorsorSpec(n), pmax=1000000)
        lc = leading_constant(hirzebruch_fan(n), pmax=1000000)
        assert fc.alpha == lc.alpha
        assert max(fc.lower, lc.lower) <= min(fc.upper, lc.upper)
        fz = fibration_zeta_partial(TorsorSpec(n), "rho", 2, B)
        height_counts, value, n_pts = direct_zeta_partial(
            hirzebruch_fan(n), (1, 1, 1, 1), B)
        assert fz.height_counts == height_counts
        assert fz.n_points == n_pts
        assert abs(fz.value - value) <= 1e-10 * abs(value)

    # n = 0 reproduces the product-surface pipeline exactly
    pp = builtin_fan("p1xp1")
    fz0 = fibration_zeta_partial(TorsorSpec(0), "rho", 2, B)
    height_counts, value, n_pts = direct_zeta_partial(pp, (1, 1, 1, 1), B)
    assert fz0.height_counts == height_counts
    assert fz0.n_points == count_points(pp, (1, 1, 1, 1), B)
    fc0 = fibration_predicted_constant(TorsorSpec(0), pmax=1000000)
    lc0 = leading_constant(pp, pmax=1000000)
    assert abs(fc0.theta - lc0.theta) < 1e-9

    # the twist orientation is pinned: of the two signs only +2
    # reproduces F_2 at an asymmetric class
    _, asym_value, _ = direct_zeta_partial(hirzebruch_fan(2),
                                           (1, 1, 1, 2), 200)
    plus = fibration_zeta_partial(TorsorSpec(2), (1, 2), 2, 200)
    minus = fibration_zeta_partial(TorsorSpec(-2), (1, 2), 2, 200)
    plus_ok = abs(plus.value - asym_value) <= 1e-10 * asym_value
    minus_ok = abs(minus.value - asym_value) <= 1e-10 * asym_value
    assert plus_ok and not minus_ok


def test_criterion_9_integral_bound_sweeps():
    for kind in ("plus", "minus", "alpha", "omega"):
        rep = verify_integral_bounds(kind)
        assert math.isfinite(rep.sup_base)
        assert math.isfinite(rep.sup_extended)
        assert rep.stable
        assert rep.passed
