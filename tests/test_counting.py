"""Point counts against exact oracles and independent brute-force routes.

The d=1 engine has a closed-form oracle through the totient summatory
function.  Higher-dimensional fans are checked two ways: set equality of
the enumerated points against a rational grid filtered by an exact height
computed from cone monomials, and (for products) a fiberwise convolution
of the d=1 oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from manin_toric import counting
from manin_toric.counting import (
    CountingError,
    CountReport,
    _count_grid,
    _zeta_partials,
    count_N,
    count_points,
    enumerate_bounded,
    fit_asymptotic,
    zeta_partial,
)
from manin_toric.fourier import _extrapolate_direct
from manin_toric.heights import global_height
from manin_toric.latticefan import builtin_fan
from manin_toric.primes import factorize, totient_table

P1 = builtin_fan("p1")
P2 = builtin_fan("p2")
P1XP1 = builtin_fan("p1xp1")
F1 = builtin_fan("hirzebruch-1")
F2 = builtin_fan("hirzebruch-2")
P3 = builtin_fan("p3")

ZETA3 = 1.2020569031595942854


def totient_summatory(T):
    return sum(totient_table(T)[1:]) if T >= 1 else 0


def n1_oracle(B):
    """Torus points of the projective line, anticanonical height <= B."""
    T = math.isqrt(int(B))
    return 2 * (2 * totient_summatory(T) - 1) if T >= 1 else 0


def cone_monomials(fan, lam):
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
    for m in cone_monomials(fan, lam):
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


def brute_set(fan, lam, B, coord_bound):
    grid = sorted(
        {
            Fraction(a, b)
            for a in range(-coord_bound, coord_bound + 1)
            for b in range(1, coord_bound + 1)
            if a
        }
    )
    pts = set()

    def rec(prefix):
        if len(prefix) == fan.dim:
            if exact_height(fan, lam, prefix) <= B:
                pts.add(tuple(prefix))
            return
        for x in grid:
            rec(prefix + [x])

    rec([])
    return pts


def check_against_brute(fan, lam, B, coord_bound):
    got = {tuple(p.point()) for p in enumerate_bounded(fan, lam, B)}
    # saturation: nothing enumerated touches the grid boundary
    sat = max(
        (max(abs(c.numerator), c.denominator) for pt in got for c in pt),
        default=0,
    )
    assert sat < coord_bound
    assert got == brute_set(fan, lam, B, coord_bound)
    assert count_points(fan, lam, B) == len(got)
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
            assert count_points(P1, (1, 1), B, force_general=True) == want

    def test_asymmetric_lambda(self):
        # lambda (2,1) gives height max(|a|,b)^3 on a/b in lowest terms
        for B in (10, 100, 1000, 4096):
            want_T = round(B ** (1 / 3))
            if want_T**3 > B:
                want_T -= 1
            want = 2 * (2 * totient_summatory(want_T) - 1)
            assert count_points(P1, (2, 1), B) == want
            assert count_points(P1, (2, 1), B, force_general=True) == want

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


class TestParallel:
    def test_thread_counts_agree(self):
        jobs = (
            (P1, (1, 1), 5000, 5974),
            (P2, (1, 1, 1), 500, 1228),
            (P1XP1, (1, 1, 1, 1), 300, 2692),
        )
        for fan, lam, B, frozen in jobs:
            for threads in (1, 2, 3):
                assert count_points(fan, lam, B, threads=threads) == frozen


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
        assert count_N(fan, lam, grid, threads=2, pmax=1000).counts == want

    @pytest.mark.parametrize("lam", [(1, 1), (2, 1)])
    def test_p1_grid_both_engines(self, lam):
        for force in (False, True):
            want = [count_points(P1, lam, B, force_general=force)
                    for B in P1_GRID]
            assert _count_grid(P1, lam, P1_GRID, force_general=force) == want
            assert _count_grid(P1, lam, P1_GRID, threads=2,
                               force_general=force) == want
        assert count_N(P1, lam, P1_GRID, pmax=1000).counts == want

    @pytest.mark.parametrize("fan", [P1, P1XP1], ids=["p1", "p1xp1"])
    def test_zeta_partials_bit_identical(self, fan):
        lam = (2,) * len(fan.rays)
        Bs = (0.5, 1, 9, 9, 100, 400)
        for got, B in zip(_zeta_partials(fan, lam, Bs), Bs):
            # value, n_points and tail estimate, bit for bit
            assert got == zeta_partial(fan, lam, B)

    def test_one_enumeration_per_call(self, monkeypatch):
        calls = []
        for name in ("_count_general", "_count_dim1"):
            engine = getattr(counting, name)

            def counted(*args, _engine=engine, _name=name, **kwargs):
                calls.append(_name)
                return _engine(*args, **kwargs)

            monkeypatch.setattr(counting, name, counted)
        count_N(P2, (1, 1, 1), [10, 100, 1000], pmax=1000)
        assert calls == ["_count_general"]
        calls.clear()
        count_N(P1, (1, 1), [10, 100, 1000], pmax=1000)
        assert calls == ["_count_dim1"]
        calls.clear()
        _extrapolate_direct(P1XP1, (2, 2, 2, 2), 50.0, 2)
        assert calls == ["_count_general"]


class TestValidation:
    def test_lambda_must_be_positive(self):
        with pytest.raises(CountingError):
            count_points(P1, (0, 1), 10)
        with pytest.raises(CountingError):
            count_points(P1, (-1, 1), 10)

    def test_lambda_length_checked(self):
        with pytest.raises(CountingError):
            count_points(P1, (1, 1, 1), 10)


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
