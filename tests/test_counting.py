"""Point counts against exact oracles and independent brute-force routes.

The d=1 engine has a closed-form oracle through the totient summatory
function.  Higher-dimensional fans are checked two ways: set equality of
the enumerated points against a rational grid filtered by an exact height
computed from cone monomials, and (for products) a fiberwise convolution
of the d=1 oracle.
"""

import cmath
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manin_toric import counting
from manin_toric.counting import (
    CountingError,
    CountReport,
    _count_grid,
    _zeta_partials,
    _zeta_walk,
    count_N,
    count_points,
    enumerate_bounded,
    fit_asymptotic,
    zeta_partial,
)
from manin_toric.fibration import hirzebruch_fan
from manin_toric.fourier import _extrapolate_direct
from manin_toric.heights import global_height
from manin_toric.latticefan import PLFunction, builtin_fan, make_fan
from manin_toric.primes import factorize, totient_table

from fan_oracles import (candidates_table, disguise, hexagon_fan,
                         projective_fan)

P1 = builtin_fan("p1")
P2 = builtin_fan("p2")
P1XP1 = builtin_fan("p1xp1")
F1 = builtin_fan("hirzebruch-1")
F2 = builtin_fan("hirzebruch-2")
P3 = builtin_fan("p3")
F3 = builtin_fan("hirzebruch-3")

ZETA3 = 1.2020569031595942854


def totient_summatory(T):
    return sum(totient_table(T)[1:]) if T >= 1 else 0


def n1_oracle(B):
    """Torus points of the projective line, anticanonical height <= B."""
    T = math.isqrt(int(B))
    return 2 * (2 * totient_summatory(T) - 1) if T >= 1 else 0


def dfs_counts(fan, lam, bounds, stats=None):
    """N(B) for every B of the ascending bounds from the DFS alone, also
    where count_N takes the Cox-coordinate count, which the DFS is the
    reference for; the walk's counts are added into stats, if given."""
    lam_ints, L = counting._lambda_ints(fan, lam)
    low = sum(Fraction(B) < 1 for B in bounds)
    Bqs = [Fraction(B) ** L for B in bounds[low:]]
    profiles = counting._count_general(
        fan, lam_ints, Bqs, halve=counting._is_symmetric(fan, lam_ints),
        stats=stats) if Bqs else []
    return [0] * low + [n * 2 ** fan.dim for n in profiles]


def monomials_by_solve(fan, lam):
    # dual functional of each maximal cone; integral since cones are unimodular
    out = []
    for cone in fan.max_cones:
        A = np.array([fan.rays[j] for j in cone], dtype=float)
        rhs = np.array([lam[j] for j in cone], dtype=float)
        m = tuple(int(round(v)) for v in np.linalg.solve(A, rhs))
        for j in cone:
            assert sum(a * b for a, b in zip(m, fan.rays[j])) == lam[j]
        out.append(m)
    return out


def exact_height(fan, lam, point):
    """Height as an exact rational: product over places of max |x^m|_v^-1."""
    ys = []
    for m in monomials_by_solve(fan, lam):
        y = Fraction(1)
        for mi, xi in zip(m, point):
            y *= Fraction(xi) ** mi
        ys.append(abs(y))
    primes = set()
    for y in ys:
        for p, _ in factorize(y.numerator) + factorize(y.denominator):
            primes.add(p)
    h = max(Fraction(1) / y for y in ys)
    for p in primes:
        best = None
        for y in ys:
            e = 0
            n, d = y.numerator, y.denominator
            while n % p == 0:
                n //= p
                e += 1
            while d % p == 0:
                d //= p
                e -= 1
            best = e if best is None else max(best, e)
        h *= Fraction(p) ** best
    return h


def valuation(x, p):
    e, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        e += 1
    while d % p == 0:
        d //= p
        e -= 1
    return e


@functools.lru_cache(maxsize=None)
def cone_functionals(fan, lam):
    """The cone monomials of lambda, and those of each ray's indicator:
    the coordinate of u along ray j in cone s is <coords[j][s], u>."""
    r = len(fan.rays)
    coords = [monomials_by_solve(fan, [int(i == j) for i in range(r)])
              for j in range(r)]
    return monomials_by_solve(fan, lam), coords


def pl_height(fan, lam, point):
    """Exact height for any positive integral lambda, convex or not: the
    product over places v of exp(phi(u_v)), u_v = -log|x|_v, with
    phi = <m_s, .> on a cone s containing u_v, found by the signs of u_v's
    ray coordinates, decided in integers."""
    monos, coords = cone_functionals(fan, tuple(lam))
    xs = [Fraction(x) for x in point]

    def monomial(sign):
        # sign(c) has the sign of <c, u_v>
        for s, cone in enumerate(fan.max_cones):
            if all(sign(coords[j][s]) >= 0 for j in cone):
                return monos[s]
        raise AssertionError("no cone contains the vector")

    def archimedean(c):
        # exp(<c, u_inf>) = prod_i |x_i|^(-c_i) = num / den
        num = den = 1
        for x, ci in zip(xs, c):
            a, b = abs(x.numerator), x.denominator
            if ci < 0:
                num, den = num * a ** -ci, den * b ** -ci
            else:
                num, den = num * b ** ci, den * a ** ci
        return num, den

    def arch_sign(c):
        num, den = archimedean(c)
        return num - den

    h = Fraction(*archimedean(monomial(arch_sign)))
    primes = {p for x in xs for y in (abs(x.numerator), x.denominator)
              for p, _ in factorize(y)}
    for p in primes:
        # u_p = v_p(x) log p
        u = [valuation(x, p) for x in xs]
        m = monomial(lambda c: sum(a * b for a, b in zip(c, u)))
        h *= Fraction(p) ** sum(a * b for a, b in zip(m, u))
    return h


@functools.lru_cache(maxsize=8)
def box_heights(fan, lam, coord_bound, height):
    """height(fan, lam, x) for every x in the box of coordinates a/b,
    0 < |a| <= coord_bound, 1 <= b <= coord_bound."""
    grid = sorted(
        {
            Fraction(a, b)
            for a in range(-coord_bound, coord_bound + 1)
            for b in range(1, coord_bound + 1)
            if a
        }
    )
    return {pt: height(fan, lam, pt)
            for pt in itertools.product(grid, repeat=fan.dim)}


def brute_set(fan, lam, B, coord_bound, height=exact_height):
    return {pt for pt, h in
            box_heights(fan, tuple(lam), coord_bound, height).items()
            if h <= B}


def check_against_brute(fan, lam, B, coord_bound, height=exact_height):
    got = {tuple(p.point()) for p in enumerate_bounded(fan, lam, B)}
    # saturation: nothing enumerated touches the grid boundary
    sat = max(
        (max(abs(c.numerator), c.denominator) for pt in got for c in pt),
        default=0,
    )
    assert sat < coord_bound
    assert got == brute_set(fan, lam, B, coord_bound, height)
    # the engine's count (Cox coordinates where they apply) and the DFS
    # count, which halves the walk where enumerate_bounded does not
    assert count_points(fan, lam, B) == len(got)
    assert dfs_counts(fan, lam, [B]) == [len(got)]
    return got


class TestProjectiveLine:
    def test_exact_anchors(self):
        assert count_points(P1, (1, 1), 1) == 2
        assert count_points(P1, (1, 1), 3) == 2
        assert count_points(P1, (1, 1), 4) == 6
        assert count_points(P1, (1, 1), 8) == 6
        assert count_points(P1, (1, 1), 9) == 14

    def test_totient_oracle_both_engines(self):
        for B in (100, 5000, 10**4):
            want = n1_oracle(B)
            assert count_points(P1, (1, 1), B) == want
            assert dfs_counts(P1, (1, 1), [B]) == [want]

    def test_asymmetric_lambda(self):
        # lambda (2,1) gives height max(|a|,b)^3 on a/b in lowest terms
        for B in (10, 100, 1000, 4096):
            want_T = round(B ** (1 / 3))
            if want_T**3 > B:
                want_T -= 1
            want = 2 * (2 * totient_summatory(want_T) - 1)
            assert count_points(P1, (2, 1), B) == want
            assert dfs_counts(P1, (2, 1), [B]) == [want]

    def test_fractional_lambda_rescales(self):
        lam = (Fraction(1, 2), Fraction(1, 4))
        assert count_points(P1, lam, 6) == count_points(P1, (2, 1), 6**4)
        assert count_points(P1, (0.5, 0.25), 6) == count_points(P1, lam, 6)

    def test_enumerate_matches_rectangle(self):
        got = {p.point()[0] for p in enumerate_bounded(P1, (1, 1), 900)}
        want = {
            Fraction(a, b)
            for a in range(-30, 31)
            for b in range(1, 31)
            if a and math.gcd(abs(a), b) == 1 and max(abs(a), b) <= 30
        }
        assert got == want

    def test_sub_unit_bound_is_empty(self):
        assert count_points(P1, (1, 1), Fraction(1, 2)) == 0
        assert count_points(P1, (1, 1), 0.999) == 0
        # a negative bound admits no point either, also where lambda's
        # denominator L is even and B^L would be positive: on both routes
        half = (Fraction(1, 2),) * 2
        assert count_points(P1, half, -100) == 0
        assert count_N(P1, half, [-100, 10]).counts == [
            0, count_points(P1, (1, 1), 100)]
        mixed = (Fraction(1, 2), 1, Fraction(1, 2), 1)
        assert count_N(P1XP1, mixed, [-100, 10]).counts == [
            0, dfs_counts(P1XP1, mixed, [10])[0]]
        assert list(enumerate_bounded(P1, half, -100)) == []


class TestSurfaces:
    def test_p2_brute_force(self):
        counts = {}
        for B in (1, 8, 27, 30, 1000):
            counts[B] = len(check_against_brute(P2, (1, 1, 1), B, 12))
        assert counts == {1: 4, 8: 28, 27: 100, 30: 100, 1000: 3364}

    def test_p1xp1_brute_force(self):
        counts = {}
        for B in (1, 4, 16, 100):
            counts[B] = len(check_against_brute(P1XP1, (1, 1, 1, 1), B, 11))
        assert counts == {1: 4, 4: 20, 16: 100, 100: 836}

    def test_f1_brute_force(self):
        got = check_against_brute(F1, (1, 1, 1, 1), 50, 9)
        assert len(got) == 268

    def test_f1_uneven_lambda_brute_force(self):
        check_against_brute(F1, (2, 1, 3, 1), 40, 8)

    def test_p1xp1_fiberwise_oracle(self):
        # product fan: condition on the first factor, apply the d=1 count
        # to what remains of the budget
        for B in (100, 2500, 10**4):
            total = 2 * n1_oracle(B)  # first coordinate a unit, two of them
            phi = totient_table(math.isqrt(B))
            for h in range(2, math.isqrt(B) + 1):
                total += 4 * phi[h] * n1_oracle(B // (h * h))
            assert count_points(P1XP1, (1, 1, 1, 1), B) == total

    @pytest.mark.parametrize("fan,x,coord_bound", [
        (P2, (Fraction(3, 2), Fraction(5, 2)), 6),
        (P1XP1, (Fraction(3, 2), 2), 7),
        (F1, (Fraction(3, 2), 2), 9),
        (P3, (3, 1, 1), 4),
    ], ids=["p2", "p1xp1", "hirzebruch-1", "p3"])
    def test_exact_boundary_anchors(self, fan, x, coord_bound):
        # B is a height that points attain, so their float heights fall
        # inside the margin and the engine re-decides them exactly
        rho = (1,) * len(fan.rays)
        B = exact_height(fan, rho, x)
        got = check_against_brute(fan, rho, B, coord_bound)
        assert sum(exact_height(fan, rho, p) == B for p in got) > 1

    def test_unit_bound_counts_units(self):
        for fan in (P1, P2, P1XP1, F1, F2):
            lam = (1,) * len(fan.rays)
            assert count_points(fan, lam, 1) == 2**fan.dim

    def test_sign_closure(self):
        pts = {tuple(p.point()) for p in enumerate_bounded(P2, (1, 1, 1), 27)}
        for x, y in pts:
            assert (-x, y) in pts and (x, -y) in pts and (-x, -y) in pts

    def test_monotone_in_bound(self):
        last = 0
        for B in (1, 5, 10, 27, 30, 64, 100):
            n = count_points(F1, (1, 1, 1, 1), B)
            assert n >= last
            last = n


def test_frozen_counts():
    jobs = (
        (P1, (1, 1), 5000, 5974),
        (P2, (1, 1, 1), 500, 1228),
        (P1XP1, (1, 1, 1, 1), 300, 2692),
    )
    for fan, lam, B, frozen in jobs:
        assert count_points(fan, lam, B) == frozen


# grids around heights that points attain (B-1, B, B repeated, B+1), so
# profiles at a bound are re-decided exactly, plus bounds below 1
GRIDS = [
    ("p2", (1, 1, 1), (1, 124, 125, 125, 126, 500)),
    ("p1xp1", (1, 1, 1, 1), (0.5, 1, 35, 36, 36, 37, 144)),
    ("hirzebruch-1", (1, 1, 1, 1), (1, 26, 27, 27, 28, 108)),
    ("p3", (1, 1, 1, 1), (1, 80, 81, 81, 82, 324)),
    # non-convex phi
    ("hirzebruch-3", (1, 1, 1, 1), (1, 242, 243, 243, 244, 972)),
    ("hirzebruch-1", (1, 5, 1, 1), (1, 26, 27, 27, 28, 63, 64, 65, 256)),
]
P1_GRID = (0.5, 1, 8, 9, 9, 10, 24, 25, 26, 1000)


class TestOnePass:
    @pytest.mark.parametrize("name,lam,grid", GRIDS,
                             ids=[f"{g[0]}-{g[1]}" for g in GRIDS])
    def test_grid_equals_recounts(self, name, lam, grid):
        fan = builtin_fan(name)
        want = [count_points(fan, lam, B) for B in grid]
        assert count_N(fan, lam, grid, pmax=1000).counts == want

    @pytest.mark.parametrize("lam", [(1, 1), (2, 1)])
    def test_p1_grid_both_engines(self, lam):
        want = [count_points(P1, lam, B) for B in P1_GRID]
        assert _count_grid(P1, lam, P1_GRID) == ("torsor", want)
        assert [dfs_counts(P1, lam, [B])[0] for B in P1_GRID] == want
        assert dfs_counts(P1, lam, P1_GRID) == want
        assert count_N(P1, lam, P1_GRID, pmax=1000).counts == want

    @pytest.mark.parametrize("fan,engine", [(P1, "torsor"),
                                            (P1XP1, "torsor"), (F1, "dfs")],
                             ids=["p1", "p1xp1", "hirzebruch-1"])
    def test_zeta_partials_bit_identical(self, fan, engine):
        lam = (2,) * len(fan.rays)
        Bs = (0.5, 1, 9, 9, 100, 400)
        # value, n_points and tail estimate, bit for bit: the walk over
        # all the bounds at once equals a walk per bound, and so does the
        # route _zeta_partials takes
        assert _zeta_walk(fan, lam, Bs) == [_zeta_walk(fan, lam, [B])[0]
                                            for B in Bs]
        assert _zeta_partials(fan, lam, Bs) == (
            engine, [zeta_partial(fan, lam, B) for B in Bs])

    def test_one_enumeration_per_call(self, monkeypatch):
        calls = []
        for name in ("_count_general", "_projective_counts",
                     "_hirzebruch_counts"):
            engine = getattr(counting, name)

            def counted(*args, _engine=engine, _name=name, **kwargs):
                calls.append(_name)
                return _engine(*args, **kwargs)

            monkeypatch.setattr(counting, name, counted)
        grid = [10, 100, 1000]
        for fan, lam, engine in [
                (P1XP1, (1, 2, 1, 2), "_count_general"),
                (F1, (1, 5, 1, 1), "_count_general"),
                (P2, (1, 1, 1), "_projective_counts"),
                (P2, (1, 1, 2), "_projective_counts"),
                (P1, (1, 1), "_projective_counts"),
                (P1XP1, (1, 1, 1, 1), "_hirzebruch_counts")]:
            calls.clear()
            assert dfs_counts(fan, lam, grid) == count_N(fan, lam, grid,
                                                         pmax=1000).counts
            assert calls == ["_count_general", engine]
        # the zeta sums: a height-class sum on P^1 x P^1, one walk on F_1
        for fan, want in ((P1XP1, []), (F1, ["_count_general"])):
            calls.clear()
            _extrapolate_direct(fan, (2, 2, 2, 2), 50.0, 2)
            assert calls == want


class TestClosedFormP1:
    @pytest.mark.parametrize("lam", [(1, 1), (2, 1), (1, 3),
                                     (Fraction(1, 2), Fraction(1, 4))],
                             ids=["1-1", "2-1", "1-3", "half-quarter"])
    def test_equals_dfs(self, lam):
        # heights are max(a, b)^s, so T = t^den attains t^num; the bounds
        # around those are where the integer root T_i turns over.  The
        # DFS sieves the primes up to B^L, so B^L stays below 10^6.
        s = sum(Fraction(v) for v in lam)
        L = math.lcm(*(Fraction(v).denominator for v in lam))
        grid = sorted(B for B in set(P1_GRID) | {t ** s.numerator + e
                                                 for t in (2, 3, 5, 6)
                                                 for e in (-1, 0, 1)}
                      if B ** L <= 10**6)
        assert len(grid) >= 10
        for B in grid:
            assert [count_points(P1, lam, B)] == dfs_counts(P1, lam, [B])


class TestEngineStats:
    def test_skip_fires_and_counts_add_up(self):
        for fan in (P2, P1XP1):
            lam = (1,) * len(fan.rays)
            stats = {}
            counts = dfs_counts(fan, lam, [100, 1000], stats)
            assert stats["skipped"] > 0
            assert stats["built"] > stats["accepted"] > 0
            # each accepted node stands for 2^d points, twice that when
            # the symmetric data let the DFS halve
            weight = 2 if fan is P1XP1 else 1
            assert counts[-1] == 2 ** fan.dim * (
                1 + weight * stats["accepted"])

    def test_redecision_fires_at_attained_height(self):
        for B, redecided in ((125, True), (126, False)):
            stats = {}
            dfs_counts(P2, (1, 1, 1), [B], stats)
            assert (stats["redecided"] > 0) is redecided

    def test_closed_form_builds_nothing(self):
        for fan in (P1, P2, P3, P1XP1, F1, F3):
            report = count_N(fan, (1,) * len(fan.rays), [1000], pmax=1000)
            assert report.engine == "torsor"
            assert report.stats == {
                "built": 0, "skipped": 0, "accepted": 0, "redecided": 0}

    def test_stats_stay_out_of_the_artifact(self, capsys):
        from manin_toric.cli import run
        for lam in ("rho", "1,1,2"):
            assert run(["count", "--fan", "builtin:p2", "--lambda", lam,
                        "--bounds", "100,1000"]) == 0
            out = capsys.readouterr().out
            assert "skipped" not in out and "engine" not in out

    # the DFS under rho over [B / 10, B] without the prime-loop stop: B,
    # built, accepted, redecided, counts and skipped
    WITHOUT_STOP = [
        (P2, 10 ** 4, 10386, 7860, 204, [3364, 31444], 247131),
        (P1XP1, 10 ** 4, 55145, 17968, 480, [10372, 143748], 348189),
        (F1, 3000, 12720, 6654, 8, [2012, 26620], 135488),
        (P3, 1000, 1158, 606, 0, [632, 4856], 32196),
    ]

    @pytest.mark.parametrize("fan,B,built,accepted,redecided,counts,skipped",
                             WITHOUT_STOP,
                             ids=["p2", "p1xp1", "hirzebruch-1", "p3"])
    def test_prime_stop_builds_the_same_children(self, fan, B, built,
                                                 accepted, redecided, counts,
                                                 skipped):
        stats = {}
        got = dfs_counts(fan, (1,) * len(fan.rays), [B / 10, B], stats)
        assert (stats["built"], stats["accepted"], stats["redecided"]) == (
            built, accepted, redecided)
        assert got == counts
        # the stop ends prime loops whose remaining children would all
        # be skipped
        assert stats["skipped"] < skipped

    @pytest.mark.parametrize("fan,built,count", [(P1XP1, 350, 1252),
                                                 (F1, 395, 996)],
                             ids=["p1xp1", "hirzebruch-1"])
    def test_prime_stop_keeps_borderline_children(self, fan, built, count):
        # 169 = 13^2 is about 1e-9 relative above this bound, so the
        # one-cone bound of a child at 13 lies within rounding of the
        # stop; the walk must still build it and re-decide it exactly, as
        # it does without the stop
        stats = {}
        assert dfs_counts(fan, (1, 1, 1, 1), [168.99999983099917],
                          stats) == [count]
        assert (stats["built"], stats["redecided"]) == (built, 2)

    def test_non_convex_walk_skips_and_stops(self):
        # phi is not convex here; the walk bounds the archimedean term by
        # the vertices of P_lambda, so it skips children and stops prime
        # loops as the convex walk does, with the same counts as a walk
        # that builds every child (832,284 of them at B = 2e4)
        report = count_N(F1, (1, 5, 1, 1), [2e3, 2e4], pmax=1000)
        stats = report.stats
        assert report.engine == "dfs"
        assert report.counts == [3548, 39916]
        assert stats["accepted"] == 9978
        assert stats["skipped"] > 0
        assert stats["built"] < 2 * stats["accepted"]

    def test_zeta_walk_reports_stats(self, monkeypatch):
        lam = (2, 2, 2, 2)
        halved, full = {}, {}
        _zeta_walk(P1XP1, lam, [175, 700, 2800], stats=halved)
        monkeypatch.setattr(counting, "_is_symmetric", lambda *args: False)
        _zeta_walk(P1XP1, lam, [175, 700, 2800], stats=full)
        assert (halved["accepted"], full["accepted"]) == (4212, 8424)
        assert 0 < halved["built"] < full["built"]


# lambda >= 1 on every ray gives H_lambda >= H_rho pointwise, since ray
# coordinates are nonnegative; every point of these fans with
# H_rho <= RHO_CAP has numerators and denominators below RHO_BOX
# (test_rho_box_saturated), so the box holds every point of height at
# most RHO_CAP for every such lambda
HIRZEBRUCH = [hirzebruch_fan(n) for n in range(4)]
RHO_CAP = 30
RHO_BOX = 7


class TestPruneRandomized:
    @pytest.mark.parametrize("n", range(4))
    def test_rho_box_saturated(self, n):
        fan = HIRZEBRUCH[n]
        check_against_brute(fan, (1, 1, 1, 1), RHO_CAP, RHO_BOX,
                            height=pl_height)
        # the general oracle agrees with the convex one where both apply
        if n <= 2:
            assert (box_heights(fan, (1, 1, 1, 1), 4, pl_height)
                    == box_heights(fan, (1, 1, 1, 1), 4, exact_height))

    def test_general_oracle_non_convex_anchor(self):
        # the float height of this point under the non-convex lambda
        assert pl_height(F1, (1, 5, 1, 1), (Fraction(3, 2), 5)) == 421875

    @settings(max_examples=25, derandomize=True, deadline=None,
              database=None)
    @given(n=st.integers(0, 3), lam=st.tuples(*[st.integers(1, 3)] * 4),
           pick=st.integers(0, 100), shift=st.sampled_from((0, -1, 1)))
    # convex and non-convex phi, at an attained height
    @example(n=1, lam=(1, 1, 1, 1), pick=5, shift=0)
    @example(n=3, lam=(1, 1, 1, 1), pick=5, shift=0)
    @example(n=1, lam=(1, 3, 1, 2), pick=0, shift=0)
    def test_prune_loses_nothing(self, n, lam, pick, shift):
        fan = HIRZEBRUCH[n]
        box = box_heights(fan, lam, RHO_BOX, pl_height)
        attained = sorted({h for h in box.values() if h <= RHO_CAP - 1})
        B = attained[-1 - pick % len(attained)] + shift
        check_against_brute(fan, lam, B, RHO_BOX, height=pl_height)


class TestValidation:
    def test_lambda_must_be_positive(self):
        with pytest.raises(CountingError):
            count_points(P1, (0, 1), 10)
        with pytest.raises(CountingError):
            count_points(P1, (-1, 1), 10)

    def test_lambda_length_checked(self):
        with pytest.raises(CountingError):
            count_points(P1, (1, 1, 1), 10)

    def test_oversized_sieve_refused_before_allocation(self, monkeypatch):
        # B^L = 217^4: the DFS would sieve the primes up to 2,217,373,924
        sieved = []
        monkeypatch.setattr(counting, "primes_up_to", sieved.append)
        with pytest.raises(CountingError, match=r"2217373924.*B\^L"):
            dfs_counts(P1, (Fraction(1, 2), Fraction(1, 4)), [217])
        assert sieved == []
        # the Cox-coordinate count needs no prime sieve and still answers
        assert count_points(P1, (Fraction(1, 2), Fraction(1, 4)), 217) > 0

    @pytest.mark.parametrize("fan,size", [(P1, "1e+15"), (P1XP1, "1e+15"),
                                          (P2, "1e+10"), (F3, "1e+15")],
                             ids=["p1", "p1xp1", "p2", "hirzebruch-3"])
    def test_oversized_table_refused_before_allocation(self, monkeypatch, fan,
                                                       size):
        built = []
        for name in ("mobius_table", "primes_up_to",
                     "projective_height_counts"):
            monkeypatch.setattr(counting, name, built.append)
        with pytest.raises(CountingError, match=(
                rf"table of {re.escape(size)} entries \(B\^L = 1e\+30\), "
                r"over the limit of 10000000")):
            count_points(fan, (1,) * len(fan.rays), 1e30)
        assert built == []

    def test_oversized_sieve_refused_before_the_table(self, monkeypatch):
        # on a fan no Cox-coordinate count knows, B = 10^100 would build a
        # candidate table of about 10^8 rows per cone before the sieve
        # check; the check comes first
        fan = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
                       [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        monkeypatch.setattr(counting, "_candidates", None)
        with pytest.raises(CountingError, match="sieve the primes"):
            count_points(fan, (1,) * 5, 10 ** 100)

    @pytest.mark.parametrize("call", [
        lambda B: count_points(P1, (1, 1), B),
        lambda B: count_N(P2, (1, 1, 1), [10, B]),
        lambda B: list(enumerate_bounded(P2, (1, 1, 1), B)),
        # the height-class sum and the walk
        lambda B: zeta_partial(P1XP1, (2, 2, 2, 2), B),
        lambda B: zeta_partial(F1, (2, 2, 2, 2), B),
    ], ids=["count_points", "count_N", "enumerate_bounded",
            "zeta_partial-torsor", "zeta_partial-dfs"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_refused(self, call, bad):
        with pytest.raises(CountingError,
                           match=rf"the bound B must be finite, got {bad}"):
            call(bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_lambda_refused(self, bad):
        what = rf"lambda must be finite, got {bad}"
        with pytest.raises(CountingError, match=what):
            counting._lambda_ints(P1, (1, bad))
        with pytest.raises(CountingError, match=what):
            count_points(P2, (1, bad, 1), 10)

    def test_table_limit_beyond_the_float_range(self):
        # B^L = 10^600 has no float; the message still names it
        with pytest.raises(CountingError, match=r"1e\+300 entries "
                                                r"\(B\^L = 10\^600\)"):
            count_points(P1, (Fraction(1, 2), Fraction(1, 2)), 1e300)


TORSOR_FANS = ([("P", n) for n in range(1, 5)]
               + [("F", n) for n in range(5)])


class TestTorsorRoute:
    """The Cox-coordinate count against the DFS, exactly, on P^1..P^4 and
    F_0..F_4 in random ray labellings and bases of Z^d, under lambda =
    c rho and, on P^n, under lambda drawn per ray."""

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(shape=st.sampled_from(TORSOR_FANS),
           order=st.permutations(range(5)),
           ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(-2, 2)), max_size=4),
           flip=st.booleans(),
           c=st.sampled_from((1, 2, Fraction(1, 2), Fraction(3, 2))),
           ray_lam=st.one_of(st.none(), st.tuples(*[st.sampled_from(
               (1, 2, 3, Fraction(1, 2), Fraction(3, 2)))] * 5)),
           bounds=st.lists(st.integers(1, 700), min_size=1, max_size=3),
           shift=st.sampled_from((0, -1, 1)))
    # attained heights and their neighbours: 125 = 5^3 on P^2, and
    # 169 = 13^2 about 1e-9 relative above the bound on P^1 x P^1 and F_1
    @example(shape=("P", 2), order=range(5), ops=[], flip=False, c=1,
             ray_lam=None, bounds=[124, 125, 126], shift=0)
    @example(shape=("P", 2), order=range(5), ops=[], flip=False, c=1,
             ray_lam=(1, 1, 2, 1, 1), bounds=[124, 125, 126], shift=0)
    @example(shape=("P", 3), order=range(5), ops=[], flip=False, c=1,
             ray_lam=(Fraction(1, 2), 1, Fraction(3, 2), 3, 1),
             bounds=[80, 81, 82], shift=0)
    @example(shape=("F", 0), order=range(5), ops=[], flip=False, c=1,
             ray_lam=None, bounds=[168.99999983099917, 169], shift=0)
    @example(shape=("F", 1), order=range(5), ops=[], flip=False, c=1,
             ray_lam=None, bounds=[168.99999983099917, 169], shift=0)
    def test_equals_dfs(self, shape, order, ops, flip, c, ray_lam, bounds,
                        shift):
        kind, n = shape
        base = projective_fan(n) if kind == "P" else hirzebruch_fan(n)
        fan, order = disguise(base, order, ops, flip)
        if kind == "P" and ray_lam is not None:
            # H_lambda = H_rho^e on P^n, e = sum(lambda) / (n + 1)
            lam = tuple(ray_lam[m] for m in order)
            e = sum(map(Fraction, lam)) / (n + 1)
        else:
            lam, e = (c,) * len(fan.rays), Fraction(c)
        # the walk sieves the primes up to about b^(e L / min lambda L)
        # for a bound b under rho; uneven lambda keeps that below 10^6
        lam_ints, L = counting._lambda_ints(fan, lam)
        top = math.floor(10 ** (6 * min(lam_ints) / float(e * L)))
        # bounds b + shift under rho are b^e under lambda, floats (so
        # within rounding of b) when e is not an integer
        grid = sorted(Fraction(min(b, top) + shift) ** e if e.denominator == 1
                      else float(min(b, top) + shift) ** float(e)
                      for b in bounds)
        engine, got = _count_grid(fan, lam, grid)
        assert engine == "torsor"
        assert got == dfs_counts(fan, lam, grid)

    def test_int_nth_root(self):
        for s in range(1, 7):
            for x in itertools.chain(range(200), (Fraction(7, 2), 0.5,
                                                  Fraction(10 ** 40 - 1))):
                T = counting._int_nth_root(x, s)
                assert T ** s <= x < (T + 1) ** s
        assert counting._int_nth_root(10 ** 600, 2) == 10 ** 300
        assert counting._int_nth_root(10, 10 ** 300) == 1

    def test_p1xp1_fiberwise_oracle_far_out(self):
        # the convolution of test_p1xp1_fiberwise_oracle, vectorized, at a
        # bound where the Moebius sum of the first base height runs over
        # several blocks of d
        B = 2 ** 36 + 1
        top = math.isqrt(B)
        phi = totient_table(top)
        n1 = 2 * (2 * np.cumsum(phi)[[math.isqrt(B // (h * h))
                                      for h in range(1, top + 1)]] - 1)
        weights = 4 * phi[1:]
        weights[0] = 2
        assert count_points(P1XP1, (1, 1, 1, 1), B) == int(weights @ n1)

    def test_other_cases_walk(self):
        for fan, lam in ((P1XP1, (1, 2, 1, 2)), (F1, (1, 5, 1, 1)),
                         (hexagon_fan(), (1,) * 6)):
            report = count_N(fan, lam, [100, 300], pmax=1000)
            assert report.engine == "dfs"
            assert report.counts == dfs_counts(fan, lam, [100, 300])
        # five rays, P^1 x P^1 blown up in a point: neither P^n nor F_n,
        # and no Cox-coordinate count
        five = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
                        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert counting._cox_shape(five) is None

    @pytest.mark.parametrize("name,a,b", [("p1xp1", 1, 2), ("p2", 1, 1)])
    def test_theta_at_large_B(self, name, a, b):
        # 10^6 .. 10^12, far beyond the walk: the top coefficient of the
        # log-polynomial fit estimates Theta / (b - 1)!
        fan = builtin_fan(name)
        report = count_N(fan, (1,) * len(fan.rays),
                         [10.0 ** e for e in range(6, 13)])
        assert report.engine == "torsor"
        top = fit_asymptotic(report, a, b)[-1] * math.factorial(b - 1)
        theta = report.constant.theta
        rel, bound = abs(top - theta) / theta, 1e-3
        assert rel <= bound, (
            f"relative error of the fitted top coefficient {top!r} against "
            f"theta = {theta!r}: {rel!r} exceeds {bound!r} by {rel - bound!r}")


ZETA_FANS = [("P", n) for n in range(1, 5)] + [("F", 0)]


class TestHeightClassRoute:
    """The zeta sums by max-norm height against the walk, on P^1..P^4 and
    P^1 x P^1 in random ray labellings and bases of Z^d, under real and
    complex lambda."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_height_table(self, n):
        c = counting.projective_height_counts(n, 40)
        # primitive tuples of max-norm h, all coordinates nonzero, up to
        # sign
        for h in range(1, 9 if n <= 2 else 5):
            assert c[h] == sum(
                1 for x in itertools.product(range(-h, h + 1), repeat=n + 1)
                if 0 not in x and max(map(abs, x)) == h
                and math.gcd(*x) == 1) // 2
        # summed, the primitive tuples in a box: the Cox-coordinate count
        assert [int(c[1:T + 1].sum()) for T in range(41)] == [
            count_points(projective_fan(n), (1,) * (n + 1), T ** (n + 1))
            for T in range(41)]
        if n == 1:
            # 2 at h = 1, 4 phi(h) above
            c = counting.projective_height_counts(1, 10 ** 5)
            assert c[1] == 2
            assert (c[2:] == 4 * totient_table(10 ** 5)[2:]).all()

    @settings(max_examples=40, derandomize=True, deadline=None,
              database=None)
    @given(shape=st.sampled_from(ZETA_FANS),
           order=st.permutations(range(5)),
           ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(-2, 2)), max_size=4),
           flip=st.booleans(),
           re=st.lists(st.floats(1.05, 4), min_size=5, max_size=5),
           im=st.one_of(st.just([0.0] * 5),
                        st.lists(st.floats(-5, 5), min_size=5, max_size=5)),
           bounds=st.lists(st.integers(1, 2000), min_size=1, max_size=3),
           shift=st.sampled_from((-1, 0, 1)),
           below=st.booleans())
    # an attained height of P^2, 5^3, and a bound below 1
    @example(shape=("P", 2), order=range(5), ops=[], flip=False,
             re=[2.0] * 5, im=[0.0] * 5, bounds=[125], shift=0, below=True)
    def test_equals_walk(self, shape, order, ops, flip, re, im, bounds,
                         shift, below):
        kind, n = shape
        base = projective_fan(n) if kind == "P" else hirzebruch_fan(n)
        fan, order = disguise(base, order, ops, flip)
        lam = [complex(a, b) for a, b in zip(re, im)][:len(fan.rays)]
        # H_rho is h^(n+1) on P^n and (h1 h2)^2 on P^1 x P^1: the heights
        # attained next to each drawn bound, and their neighbours
        e = n + 1 if kind == "P" else 2
        grid = sorted({max(counting._int_nth_root(b, e), 1) ** e + shift
                       for b in bounds} | ({0.5} if below else set()))
        stats = {}
        engine, got = _zeta_partials(fan, lam, grid, stats=stats)
        assert engine == "torsor" and stats == {}
        for a, b in zip(got, _zeta_walk(fan, lam, grid)):
            assert (a.B, a.n_points, a.tail_estimate) == (
                b.B, b.n_points, b.tail_estimate)
            assert abs(a.value - b.value) <= 1e-14 * abs(b.value)

    @pytest.mark.parametrize("fan,B0,terms",
                             [(P1, 700.0, 1), (P1, 1000.0, 1),
                              (P1XP1, 175.0, 2)], ids=["p1-700", "p1-1000",
                                                      "p1xp1-175"])
    def test_poisson_grids_equal_the_walk(self, fan, B0, terms):
        # the poisson-check grids at 2 rho, B0 moved by -2 .. +2 %: every
        # ZetaPartial, value bits included, equals the walk's
        lam = (2.0,) * len(fan.rays)
        for pct in (-2, -1, 0, 1, 2):
            b0 = B0 * (100 + pct) / 100
            grid = [b0 * 4.0 ** k for k in range(terms + 1)]
            assert _zeta_partials(fan, lam, grid) == (
                "torsor", _zeta_walk(fan, lam, grid))

    def test_other_fans_walk(self, monkeypatch):
        stats = {}
        engine, got = _zeta_partials(F1, (2, 2, 2, 2), [100, 400],
                                     stats=stats)
        assert engine == "dfs" and stats["accepted"] > 0
        assert got == _zeta_walk(F1, (2, 2, 2, 2), [100, 400])
        seen = _halve_flags(monkeypatch)
        assert zeta_partial(F1, (2, 2.5, 2, 3), 100).n_points > 0
        assert seen == [False]

    @pytest.mark.parametrize("fan,B,message", [
        (P1, 1e30, r"^height-class zeta sum would build a table of 1e\+15 "
                   r"entries \(B = 1e\+30\), over the limit of 10000000$"),
        (P1XP1, 1e30, r"^height-class zeta sum would build a table of "
                      r"1e\+15 entries \(B = 1e\+30\), over the limit of "
                      r"10000000$"),
        (P2, 1e30, r"^height-class zeta sum would build a table of 1e\+10 "
                   r"entries \(B = 1e\+30\), over the limit of 10000000$"),
        # 8 * 56234^4 > 2^63: the counts would not fit int64
        (P3, 1e19, r"^height-class zeta sum on P\^3 would overflow int64 "
                   r"counting heights up to 56234 \(B = 1e\+19\)$"),
        # R = 10^6 is within the table limit, its D(R) pairs are not
        (P1XP1, 1e12, r"^height-class zeta sum on P\^1 x P\^1 would take "
                      r"13970034 terms \(B = 1e\+12\), over the limit of "
                      r"10000000$")],
        ids=["p1", "p1xp1", "p2", "p3-int64", "p1xp1-pairs"])
    def test_oversized_sum_refused_before_allocation(self, monkeypatch, fan,
                                                     B, message):
        built = []
        for name in ("mobius_table", "primes_up_to",
                     "projective_height_counts"):
            monkeypatch.setattr(counting, name, built.append)
        with pytest.raises(CountingError, match=message):
            zeta_partial(fan, (2,) * len(fan.rays), B)
        assert built == []


# symmetric fans with lambda invariant under negation: the zeta walk halves
HALVED = [(P1, (2, 2)), (P1XP1, (2, 2, 2, 2)), (P1XP1, (2.3, 2.7, 2.3, 2.7)),
          (P1XP1, (2.3 + 1j, 2.7, 2.3 + 1j, 2.7)), (P1, (1.7 + 3j, 1.7 + 3j))]
FULL = [(P1, (2, 3)), (P1XP1, (2, 2, 3, 2)), (P1XP1, (2 + 1j, 2, 2 - 1j, 2)),
        (P2, (2, 2, 2)), (F1, (2, 2, 2, 2))]


def _halve_flags(monkeypatch):
    seen = []
    engine = counting._count_general

    def spy(*args, halve, **kwargs):
        seen.append(halve)
        return engine(*args, halve=halve, **kwargs)

    monkeypatch.setattr(counting, "_count_general", spy)
    return seen


class TestZetaHalving:
    @pytest.mark.parametrize("fan,lam", HALVED,
                             ids=[f"{f.name}-{lam}" for f, lam in HALVED])
    def test_halved_sums_equal_full_walk(self, monkeypatch, fan, lam):
        Bs = (0.5, 9, 175, 700, 2800)
        seen = _halve_flags(monkeypatch)
        halved = _zeta_walk(fan, lam, Bs)
        monkeypatch.setattr(counting, "_is_symmetric", lambda *args: False)
        full = _zeta_walk(fan, lam, Bs)
        assert seen == [True, False]
        for h, f in zip(halved, full):
            assert h.value.real.hex() == f.value.real.hex()
            assert h.value.imag.hex() == f.value.imag.hex()
            assert h.n_points == f.n_points

    @pytest.mark.parametrize("fan,lam", FULL,
                             ids=[f"{f.name}-{lam}" for f, lam in FULL])
    def test_full_walk_without_symmetry(self, monkeypatch, fan, lam):
        seen = _halve_flags(monkeypatch)
        _zeta_walk(fan, lam, [100])
        assert seen == [False]


class TestZetaPartial:
    def test_p1_totient_oracle(self):
        # sum over torus points of H^-1 at lambda = 2*rho, cut at H <= B:
        # 2 + 4 * sum_{2 <= h <= sqrt(B)} phi(h) / h^4
        for B in (1, 100, 10**4):
            z = zeta_partial(P1, (2, 2), B)
            T = math.isqrt(B)
            phi = totient_table(T)
            want = 2 + 4 * sum(phi[h] / h**4 for h in range(2, T + 1))
            assert abs(z.value - want) <= 1e-12 * max(1.0, want)
            assert abs(z.value.imag) < 1e-12

    def test_tail_estimate_honest(self):
        limit = 4 * ZETA3 / (math.pi**4 / 90) - 2
        for B in (100, 10**4):
            z = zeta_partial(P1, (2, 2), B)
            assert abs(z.value.real - limit) < z.tail_estimate

    def test_conjugate_symmetry(self):
        lam = (2 + 1j, 3)
        za = zeta_partial(P1, lam, 400).value
        zb = zeta_partial(P1, (2 - 1j, 3), 400).value
        assert abs(za - zb.conjugate()) < 1e-12

    def test_real_part_requirement(self):
        for lam in ((1, 2), (2, 1.0), (0.5 + 3j, 2)):
            with pytest.raises(CountingError):
                zeta_partial(P1, lam, 100)


def zeta_reference(fan, lam, B):
    """The partial zeta sum of H_lambda^-1 over H_rho <= B, and its number
    of points, built apart from _zeta_partials: enumerate_bounded's points
    summed with exponent sum_p log p phi(n_p) + phi(-v), v = sum_p n_p
    log p, both through PLFunction.__call__."""
    pl = PLFunction(fan, tuple(complex(v) for v in lam))
    re, im = [], []
    for prof in enumerate_bounded(fan, (1,) * len(fan.rays), B):
        expo = 0j
        v = [0.0] * fan.dim
        for p, n in prof.support:
            expo += pl(n) * math.log(p)
            v = [c + x * math.log(p) for c, x in zip(v, n)]
        z = cmath.exp(-(expo + pl(tuple(-c for c in v))))
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im)), len(re)


def assert_matches_reference(fan, lam, Bs):
    # both routes: _zeta_partials (a height-class sum where it applies)
    # and the walk
    for partials in (_zeta_partials(fan, lam, Bs)[1],
                     _zeta_walk(fan, lam, Bs)):
        for got, B in zip(partials, Bs):
            want, n_points = zeta_reference(fan, lam, B)
            assert abs(got.value - want) <= 1e-13 * abs(want)
            assert got.n_points == n_points


# rho is convex but not strictly on hirzebruch-2 (two cones share the
# monomial (1, 1)) and not convex on hirzebruch-3, so the zeta walk finds
# the cone of -v with locate there; lambda_2 != 2 lambda_1 - lambda_0 makes
# phi_lambda differ on the two cones of that monomial
LOCATED = [(F2, (2.5, 3, 2.2, 2)), (F3, (2, 2, 2, 2)),
           (F3, (2.5 + 1j, 2, 3 - 2j, 2.2))]
CONE_READ = [P1, P1XP1]


class TestZetaConeRead:
    @pytest.mark.parametrize("fan,lam", LOCATED,
                             ids=[f"{f.name}-{lam}" for f, lam in LOCATED])
    def test_located_fans_match_reference(self, fan, lam):
        assert_matches_reference(fan, lam, (9, 100, 400))
        stats = {}
        _zeta_partials(fan, lam, [400], stats=stats)
        assert stats["located"] == stats["accepted"] > 0

    @pytest.mark.parametrize("fan", CONE_READ, ids=["p1", "p1xp1"])
    def test_strictly_convex_fans_locate_nothing(self, fan):
        stats = {}
        _zeta_walk(fan, (2,) * len(fan.rays), [400], stats=stats)
        assert stats["accepted"] > 0
        assert stats["located"] == 0

    @settings(max_examples=20, derandomize=True, deadline=None,
              database=None)
    @given(fan=st.sampled_from([P2, P3, P1XP1, F1]),
           re=st.lists(st.floats(1.2, 4, exclude_min=True,
                                 exclude_max=True), min_size=4, max_size=4),
           im=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           B=st.integers(1, 500))
    # a lambda invariant under negation: the halved walk
    @example(fan=P1XP1, re=[2.5, 1.5, 2.5, 1.5], im=[1, -2, 1, -2], B=500)
    def test_cone_read_matches_reference(self, fan, re, im, B):
        lam = [complex(a, b) for a, b in zip(re, im)][:len(fan.rays)]
        assert_matches_reference(fan, lam, (B / 4, B))


class TestReportAndFit:
    def test_count_N_rows(self):
        rep = count_N(P1, (1, 1), [100, 1000], pmax=20000)
        rows = list(rep.rows())
        assert [r["B"] for r in rows] == [100, 1000]
        for r in rows:
            assert r["N"] == n1_oracle(r["B"])
            assert r["ratio"] == pytest.approx(r["N"] / r["predicted"])
        assert rep.constant.lower < 12 / math.pi**2 < rep.constant.upper

    def test_fit_recovers_linear_growth(self):
        rep = CountReport(
            fan_name="synthetic",
            lam=(1, 1),
            bounds=[10.0, 100.0, 1000.0],
            counts=[20.0, 200.0, 2000.0],
            predicted=[],
            ratios=[],
        )
        (c,) = fit_asymptotic(rep, 1, 1)
        assert c == pytest.approx(2.0, abs=1e-9)

    def test_fit_recovers_log_coefficient(self):
        Bs = [10.0 * 2**k for k in range(6)]
        rep = CountReport(
            fan_name="synthetic",
            lam=(1,) * 4,
            bounds=Bs,
            counts=[B * math.log(B) + 0.5 * B for B in Bs],
            predicted=[],
            ratios=[],
        )
        c0, c1 = fit_asymptotic(rep, 1, 2)
        assert c1 == pytest.approx(1.0, abs=1e-9)
        assert c0 == pytest.approx(0.5, abs=1e-9)

    def test_fit_needs_enough_points(self):
        rep = CountReport(
            fan_name="synthetic",
            lam=(1, 1),
            bounds=[10.0, 100.0],
            counts=[20.0, 200.0],
            predicted=[],
            ratios=[],
        )
        with pytest.raises(CountingError):
            fit_asymptotic(rep, 1, 2)


def test_enumerate_agrees_with_global_height():
    # every enumerated point is below the bound, measured by the
    # independent float height; near-boundary slack 1e-9
    B = 75
    for fan, lam in ((P2, (1, 1, 1)), (F2, (1, 1, 1, 1))):
        pts = [tuple(p.point()) for p in enumerate_bounded(fan, lam, B)]
        assert pts
        for pt in pts:
            assert global_height(fan, lam, pt) <= B * (1 + 1e-9)


def same_table(got, want):
    """Equal lists whose entries have the same types, down to the entries
    of n and of the pairings."""
    assert got == want
    for g, w in zip(got, want):
        assert list(map(type, g)) == list(map(type, w))
        assert list(map(type, g[1] + g[2])) == list(map(type, w[1] + w[2]))


CANDIDATE_FANS = ([("P", n) for n in range(1, 4)]
                  + [("F", n) for n in range(5)])


class TestCandidates:
    """counting._candidates, a numpy table, against the plain-Python
    table of fan_oracles, which walks the full box of each cone."""

    @settings(max_examples=80, derandomize=True, deadline=None,
              database=None)
    @given(shape=st.sampled_from(CANDIDATE_FANS),
           order=st.permutations(range(4)),
           ops=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                  st.integers(-2, 2)), max_size=3),
           flip=st.booleans(),
           lam=st.tuples(*[st.integers(1, 4)] * 4),
           kmax=st.integers(1, 15))
    # float vertices: non-convex rho on F_3, (1, 2, 2, 1) on F_2
    @example(shape=("F", 3), order=range(4), ops=[], flip=False,
             lam=(1, 1, 1, 1), kmax=15)
    @example(shape=("F", 2), order=range(4), ops=[], flip=False,
             lam=(1, 2, 2, 1), kmax=9)
    def test_matches_the_python_table(self, shape, order, ops, flip, lam,
                                      kmax):
        kind, n = shape
        base = projective_fan(n) if kind == "P" else hirzebruch_fan(n)
        fan, order = disguise(base, order, ops, flip)
        pl = PLFunction(fan, lam[:len(fan.rays)])
        same_table(counting._candidates(pl, kmax), candidates_table(pl, kmax))

    def test_float_vertices_take_the_python_pairings(self):
        for fan, lam in ((F3, (1, 1, 1, 1)), (F2, (1, 2, 2, 1))):
            pl = PLFunction(fan, lam)
            assert any(type(x) is float for v in pl.vertices for x in v)
            assert not pl.is_convex
            same_table(counting._candidates(pl, 12),
                       candidates_table(pl, 12))

    def test_no_box_per_cone(self):
        # the cone of e_1..e_4 with lambda 1 holds C(43, 4) = 123,410
        # points of phi <= 39 and a box of 40^4; the fifth ray's lambda
        # is above kmax, so the other cones add nothing new.  A box of
        # int64 coordinates would take 40^4 * 4 * 8 bytes = 82 MB beyond
        # the table itself
        kmax = 39
        pl = PLFunction(projective_fan(4), (1, 1, 1, 1, kmax + 1))
        pl.vertices
        tracemalloc.start()
        try:
            table = counting._candidates(pl, kmax)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == math.comb(kmax + 4, 4) - 1
        assert peak - held < (kmax + 1) ** 4 * 4 * 8 / 2


class TestEnumerationContracts:
    """What direct_zeta_partial relies on when it reads one profile per
    run of sign copies and shares its PLFunction with the walk."""

    @pytest.mark.parametrize("fan,lam,B", [
        (P1, (1, 1), 300), (P2, (1, 1, 1), 200), (F1, (1, 5, 1, 1), 150),
        (F3, (1, 1, 1, 1), 150), (P3, (1, 2, 1, 1), 100)])
    def test_sign_copies_in_a_row(self, fan, lam, B):
        profiles = list(enumerate_bounded(fan, lam, B))
        d = fan.dim
        signs = list(itertools.product((1, -1), repeat=d))
        assert len(profiles) % 2 ** d == 0
        runs = [profiles[i:i + 2 ** d]
                for i in range(0, len(profiles), 2 ** d)]
        assert [p.support for p in runs[0]] == [()] * 2 ** d
        for run in runs:
            assert len({p.support for p in run}) == 1
            assert [p.signs for p in run] == signs
            # the walk's stack is the support: it grows by larger primes
            primes = [q for q, _n in run[0].support]
            assert all(a < b for a, b in zip(primes, primes[1:]))
        assert len({run[0].support for run in runs}) == len(runs)

    @pytest.mark.parametrize("fan,lam", [(F1, (1, 1, 1, 1)),
                                         (F3, (1, 1, 1, 1)),
                                         (F1, (1, 5, 1, 1)),
                                         (P2, (2, 1, 3))])
    def test_plfunction_walks_as_the_tuple(self, fan, lam):
        pl = PLFunction(fan, lam)
        tuple_stats, pl_stats = {}, {}
        assert list(enumerate_bounded(fan, pl, 200, stats=pl_stats)) == list(
            enumerate_bounded(fan, lam, 200, stats=tuple_stats))
        assert pl_stats == tuple_stats
        # the walk used the caller's function: its vertices are cached
        assert "vertices" in vars(pl)

    def test_walk_stats(self):
        # the counts of the walk behind direct_zeta_partial on F_0 at
        # B = 150, the same before and after the walk shared its
        # PLFunction
        stats = {}
        points = list(enumerate_bounded(P1XP1, (1, 1, 1, 1), 150,
                                        stats=stats))
        assert stats == {"built": 624, "skipped": 1284, "accepted": 312,
                         "redecided": 0}
        assert len(points) == 4 * (1 + stats["accepted"])
        # the walk runs on the first item; below B = 1 there is none
        stats = {}
        assert list(enumerate_bounded(P1XP1, (1, 1, 1, 1), 0.5,
                                      stats=stats)) == []
        assert stats == {}
