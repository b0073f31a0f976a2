"""Torsor offsets, twisted heights, fibration zeta cross-checks,
quotient Picard data, and the product-rule constant."""

import math
from collections import Counter
from fractions import Fraction
from itertools import count, takewhile
from math import gcd, isqrt

import mpmath
import pytest

from manin_toric import fibration
from manin_toric.counting import (CountingError, count_points,
                                  enumerate_bounded, p1_height_counts)
from manin_toric.fibration import (FibrationError, TorsorSpec,
                                   arakelov_L_partial, base_points,
                                   direct_zeta_partial, fibration_picard,
                                   fibration_predicted_constant,
                                   fibration_zeta_partial, hirzebruch_fan,
                                   hirzebruch_match, torsor_class,
                                   twisted_fiber_height)
from manin_toric.heights import (character_pairing, exact_height,
                                 valuation_profile)
from manin_toric.latticefan import builtin_fan
from manin_toric.toric import alpha_constant, leading_constant

from fan_oracles import cone_search_height


class TestTorsorSpec:
    def test_defaults(self):
        spec = TorsorSpec(2)
        assert spec.section == "x0"
        assert [tuple(r) for r in spec.fiber_fan.rays] == [(1,), (-1,)]

    def test_negative_twist_allowed(self):
        assert TorsorSpec(-3).twist == -3

    def test_bad_section(self):
        with pytest.raises(FibrationError):
            TorsorSpec(1, "x2")

    def test_fractional_twist(self):
        with pytest.raises(FibrationError):
            TorsorSpec(1.5)

    @pytest.mark.parametrize("twist", [math.inf, -math.inf, math.nan])
    def test_non_finite_twist_refused(self, twist):
        with pytest.raises(FibrationError, match="integer"):
            TorsorSpec(twist)

    def test_integral_twist_stored_as_int(self):
        # a float twist would make every fiber height an inexact float
        spec = TorsorSpec(3.0)
        assert type(spec.twist) is int and spec == TorsorSpec(3)
        got = fibration_zeta_partial(spec, "rho", 2, 400)
        want = fibration_zeta_partial(TorsorSpec(3), "rho", 2, 400)
        assert got == want


class TestTorsorClass:
    def test_trivial_twist_is_zero_offset(self):
        off = torsor_class(TorsorSpec(0), (6, 35))
        assert off.finite == ()
        assert off.arch == (0.0,)

    def test_unit_anchor(self):
        # b0 = 1: no finite part, arch part -n log max
        off = torsor_class(TorsorSpec(1), (1, 2))
        assert off.finite == ()
        assert off.arch == pytest.approx((-math.log(2),))

    def test_finite_and_arch(self):
        off = torsor_class(TorsorSpec(2), (2, 3))
        assert off.finite == ((2, (-2,)),)
        assert off.arch == pytest.approx((-2 * math.log(Fraction(3, 2)),))

    def test_boundary_points_are_trivial(self):
        for b in ((1, 0), (0, 1)):
            off = torsor_class(TorsorSpec(3), b)
            assert off.finite == ()
            assert off.arch == (0.0,)

    def test_section_fallback_off_chart(self):
        # (0, 1) lies outside the x0 chart; the class falls back to x1
        off = torsor_class(TorsorSpec(2, "x0"), (0, 1))
        assert off.finite == ()

    def test_negative_twist_flips_signs(self):
        pos = torsor_class(TorsorSpec(2), (4, 7))
        neg = torsor_class(TorsorSpec(-2), (4, 7))
        assert pos.finite == ((2, (-4,)),)
        assert neg.finite == ((2, (4,)),)
        assert neg.arch == pytest.approx(tuple(-a for a in pos.arch))

    @pytest.mark.parametrize("bad", [(0, 0), (2, 4), (1.5, 2), (3, 9)])
    def test_invalid_base_points(self, bad):
        with pytest.raises(FibrationError):
            torsor_class(TorsorSpec(1), bad)


class TestTwistedFiberHeight:
    def test_anchor_values(self):
        spec = TorsorSpec(2)
        assert twisted_fiber_height(spec, (1, 1), (2, 1),
                                    Fraction(1, 3)) == pytest.approx(36.0)
        assert twisted_fiber_height(spec, (1, 1), (2, 1),
                                    Fraction(1)) == pytest.approx(4.0)
        assert twisted_fiber_height(spec, (1, 1), (1, 3),
                                    Fraction(5)) == pytest.approx(225.0)

    def test_zero_twist_is_plain_height(self):
        from manin_toric.heights import global_height

        spec = TorsorSpec(0)
        fan = builtin_fan("p1")
        for x in (Fraction(3, 7), Fraction(-11, 4)):
            assert twisted_fiber_height(spec, (1, 2), (5, 9), x) == \
                pytest.approx(global_height(fan, (1, 2), (x,)))

    def test_section_switch_reparametrizes(self):
        # H(x; x0 section) == H(c x; x1 section), c = (b1/b0)^n
        s0 = TorsorSpec(2, "x0")
        s1 = TorsorSpec(2, "x1")
        for b in ((2, 3), (4, 9), (3, -5), (12, 35)):
            c = Fraction(b[1], b[0]) ** 2
            for x in (Fraction(1, 3), Fraction(5), Fraction(-7, 4)):
                h0 = twisted_fiber_height(s0, (1, 2), b, x)
                h1 = twisted_fiber_height(s1, (1, 2), b, c * x)
                assert h1 == pytest.approx(h0, rel=1e-12)


def base_up_to(H):
    """base_points(1), ..., base_points(H) chained: the base points of
    max-norm height at most H, by height, then lexicographically."""
    return [b for m in range(1, H + 1) for b in base_points(m)]


class TestEnumerateBase:
    def test_first_points(self):
        assert base_up_to(2) == [
            (1, -1), (1, 1), (1, -2), (1, 2), (2, -1), (2, 1)]

    def test_count_matches_totient_sum(self):
        # 4 * sum_{m<=H} phi(m) torus points of the base, minus nothing
        def phi(m):
            return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

        H = 40
        want = 4 * sum(phi(m) for m in range(1, H + 1)) - 2
        # m = 1 contributes 2 points, not 4
        assert len(base_up_to(H)) == want

    def test_height_table_counts_base_points(self):
        c = p1_height_counts(200)
        assert c[0] == 0
        for h in range(1, 201):
            points = base_points(h)
            assert len(points) == c[h]
            assert all(max(abs(b0), abs(b1)) == h for b0, b1 in points)


def sign_expanded_terms(fan, lam, B):
    """(anticanonical height, H_lam^-1) of every torus point of the fan
    with anticanonical height <= B, each sign enumerated, both heights
    exact."""
    rho = (1,) * len(fan.rays)
    return [(exact_height(fan, rho, x), 1.0 / float(exact_height(fan, lam, x)))
            for x in enumerate_bounded(fan, rho, B)]


class TestFibrationZeta:
    # from n = 3 on the anticanonical phi of F_n is not convex; the
    # anticanonical multiset cannot see the sign of the twist, so F_|n|
    # is the direct fan of a negative twist
    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 3, 4])
    def test_matches_direct_enumeration(self, n):
        fz = fibration_zeta_partial(TorsorSpec(n), "rho", 2, 200)
        fan = hirzebruch_fan(abs(n))
        height_counts, value, count = direct_zeta_partial(
            fan, (1, 1, 1, 1), 200)
        assert fz.height_counts == height_counts
        assert fz.n_points == count == count_points(fan, (1, 1, 1, 1), 200)
        assert fz.value == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("n", [-3, -1, 0, 2, 3])
    def test_integral_heights_keyed_by_int(self, n):
        # both routes key an integral height by its int, so the dicts
        # compare without Fraction arithmetic; F_3's cut is not convex
        # and has heights that are not integers
        fz = fibration_zeta_partial(TorsorSpec(n), "rho", 2, 200)
        direct, _value, _count = direct_zeta_partial(
            hirzebruch_fan(abs(n)), (1, 1, 1, 1), 200)
        for counts in (fz.height_counts, direct):
            assert all(type(h) is (int if Fraction(h).denominator == 1
                                   else Fraction) for h in counts)
        assert fz.height_counts == direct
        fractional = [h for h in direct if type(h) is Fraction]
        assert bool(fractional) is (abs(n) == 3)

    def test_direct_walk_stats(self):
        # the walk's counts on F_0 at B = 150, as enumerate_bounded's
        stats = {}
        direct_zeta_partial(hirzebruch_fan(0), (1, 1, 1, 1), 150,
                            stats=stats)
        assert stats == {"built": 624, "skipped": 1284, "accepted": 312,
                         "redecided": 0}

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("lam", [(1, 1, 1, 2), (2, 1, 3, 1)])
    def test_direct_equals_sign_expanded_reference(self, n, lam):
        fan = hirzebruch_fan(n)
        for B in (0.5, 1, 60, 147):
            points = sign_expanded_terms(fan, lam, B)
            assert direct_zeta_partial(fan, lam, B) == (
                Counter(h for h, _t in points),
                math.fsum(t for _h, t in points), len(points))

    @pytest.mark.parametrize("n,lam", [(1, (1, 5, 1, 1)), (1, (2, 1, 3, 1)),
                                       (3, (1, 1, 1, 1)), (3, (1, 5, 1, 1))])
    def test_direct_matches_cone_search_oracle(self, n, lam):
        # F_1 under the non-convex (1, 5, 1, 1) and the convex (2, 1, 3, 1),
        # and F_3, whose cut rho is not convex: the multiset and the sum
        # per signed point, from the oracle heights
        fan, rho = hirzebruch_fan(n), (1, 1, 1, 1)
        for B in (1, 60, 150):
            points = [(cone_search_height(fan, rho, x.support),
                       1.0 / float(cone_search_height(fan, lam, x.support)))
                      for x in enumerate_bounded(fan, rho, B)]
            assert direct_zeta_partial(fan, lam, B) == (
                Counter(h for h, _t in points),
                math.fsum(t for _h, t in points), len(points))

    @pytest.mark.parametrize("n,lam,a,B", [(0, (2, 2), 4, 300),
                                           (2, (1, 2), 2, 200),
                                           (2, (1, 2), 2, 1000)])
    def test_tail_estimate_from_direct_octaves(self, n, lam, a, B):
        # the geometric tail of the last two octaves of the cut height,
        # summed over the points of F_n: a/2 on the base rays (1, 0) and
        # (-1, n), the fiber class on (0, 1) and (0, -1)
        fz = fibration_zeta_partial(TorsorSpec(n), lam, a, B)
        fan_lam = (a // 2, lam[0], a // 2, lam[1])
        points = sign_expanded_terms(hirzebruch_fan(n), fan_lam, B)
        hi = math.fsum(t for h, t in points if h > Fraction(B, 2))
        lo = math.fsum(t for h, t in points
                       if Fraction(B, 4) < h <= Fraction(B, 2))
        assert hi < lo
        r = hi / lo
        assert fz.tail_estimate == pytest.approx(hi * r / (1 - r), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("mu", [(1.5, 2.5), (3.25, 1.75), (2, 3)])
    def test_matches_per_point_twisted_heights(self, n, mu):
        # non-integral fiber exponents take the float route; (2, 3) is
        # the exact one.  The reference sums 2 H1^-a / H_fiber over each
        # base point b of height H1 and coprime (u, w) >= 1 under the
        # cut, the fiber point being x = anchor^n u / w
        spec, a, B = TorsorSpec(n), 3, 200
        terms = []
        for H1 in range(1, isqrt(B) + 1):
            Bf, S = Fraction(B, H1 * H1), Fraction(H1) ** n
            # the cut max(S u^2, w^2 / S) <= Bf read one bound at a time
            pairs = [(u, w)
                     for u in takewhile(lambda u: S * u * u <= Bf, count(1))
                     for w in takewhile(lambda w: w * w <= Bf * S, count(1))
                     if gcd(u, w) == 1]
            for b in base_points(H1):
                for u, w in pairs:
                    x = Fraction(abs(b[0])) ** n * Fraction(u, w)
                    terms.append(2.0 * H1 ** -a
                                 / twisted_fiber_height(spec, mu, b, x))
        fz = fibration_zeta_partial(spec, mu, a, B)
        assert fz.n_points == 2 * len(terms)
        want = math.fsum(terms)
        assert abs(fz.value - want) <= 1e-12 * want

    def test_orientation_pinned_by_asymmetric_class(self):
        # the anticanonical multiset cannot see the sign of the twist;
        # an asymmetric fiber class can, and only +2 matches F_2
        _, value, _ = direct_zeta_partial(hirzebruch_fan(2), (1, 1, 1, 2), 200)
        good = fibration_zeta_partial(TorsorSpec(2), (1, 2), 2, 200)
        flipped = fibration_zeta_partial(TorsorSpec(-2), (1, 2), 2, 200)
        assert good.value == pytest.approx(value, rel=1e-10)
        assert abs(flipped.value - value) / value > 0.1

    def test_section_choice_invisible(self):
        f0 = fibration_zeta_partial(TorsorSpec(1, "x0"), "rho", 2, 150)
        f1 = fibration_zeta_partial(TorsorSpec(1, "x1"), "rho", 2, 150)
        assert f0.value == f1.value
        assert f0.height_counts == f1.height_counts

    def test_untwisted_base_rows_factor(self):
        # n = 0: the fiber sum depends on the base only through its
        # height, so equal-height rows are bit-identical
        fz = fibration_zeta_partial(TorsorSpec(0), (1, 1), 2, 400)
        rows_by_height = {}
        for b0, b1, h1, cnt, fsum in fz.base_rows:
            rows_by_height.setdefault(h1, set()).add((cnt, fsum))
        assert all(len(v) == 1 for v in rows_by_height.values())

    def test_height_counter_small(self):
        fz = fibration_zeta_partial(TorsorSpec(0), (1, 1), 2, 10)
        assert fz.height_counts == {
            Fraction(1): 4, Fraction(4): 16, Fraction(9): 32}
        assert fz.n_points == 52

    def test_empty_below_one(self):
        fz = fibration_zeta_partial(TorsorSpec(1), (1, 1), 2, 0.5)
        assert fz.n_points == 0
        assert fz.value == 0.0
        assert fz.tail_estimate == 0.0

    def test_tail_divergent_at_rho(self):
        fz = fibration_zeta_partial(TorsorSpec(1), (1, 1), 2, 1000)
        assert fz.tail_estimate == math.inf

    def test_tail_convergent_case(self):
        fz = fibration_zeta_partial(TorsorSpec(1), (2, 2), 3, 1000)
        assert 0 < fz.tail_estimate < fz.value

    @pytest.mark.parametrize("n", [-3, 0, 1, 4])
    def test_n_points_is_the_cox_count(self, n):
        for B in (0.5, 1, 7.5, 40, 147, 400, 1000, 3000):
            fz = fibration_zeta_partial(TorsorSpec(n), "rho", 2, B)
            assert fz.n_points == count_points(hirzebruch_fan(abs(n)),
                                               (1, 1, 1, 1), B)

    def test_infeasible_bound_refused_before_the_loop(self, monkeypatch):
        def no_loop(m):
            raise AssertionError("the loop started")

        monkeypatch.setattr(fibration, "base_points", no_loop)
        with pytest.raises(FibrationError,
                           match="14936796 points .* limit of 10000000"):
            fibration_zeta_partial(TorsorSpec(1), "rho", 2, 1e6)
        with pytest.raises(AssertionError, match="the loop started"):
            fibration_zeta_partial(TorsorSpec(1), "rho", 2, 1e4)

    @pytest.mark.parametrize("mu,a,B,what", [
        ("rho", 2, math.inf, "B must be finite"),
        ("rho", 2, -math.inf, "B must be finite"),
        ("rho", 2, math.nan, "B must be finite"),
        ("rho", math.nan, 100, "alpha_base"),
        ("rho", math.inf, 100, "alpha_base"),
        ((1, math.nan), 2, 100, "fiber exponents"),
        ((math.inf, 1), 2, 100, "fiber exponents")])
    def test_non_finite_input_refused_before_any_work(self, monkeypatch, mu,
                                                      a, B, what):
        def no_work(*args):
            raise AssertionError("work started")

        for name in ("_hirzebruch_counts", "base_points"):
            monkeypatch.setattr(fibration, name, no_work)
        with pytest.raises(FibrationError, match=what):
            fibration_zeta_partial(TorsorSpec(1), mu, a, B)

    @pytest.mark.parametrize("n", [-3, 0, 2])
    def test_bound_past_the_count_table_refused(self, monkeypatch, n):
        # above about B = 10^14 the Cox-coordinate count's own table is over
        # the limit; the refusal is the fibration's, naming B
        def no_count(*args):
            raise AssertionError("the count started")

        monkeypatch.setattr(fibration, "_hirzebruch_counts", no_count)
        with pytest.raises(FibrationError, match=(
                r"over 2e\+15 points \(B = 1e\+15\), over the limit of "
                r"10000000")):
            fibration_zeta_partial(TorsorSpec(n), "rho", 2, 1e15)

    def test_bad_arguments(self):
        with pytest.raises(FibrationError):
            fibration_zeta_partial(TorsorSpec(1), (1,), 2, 100)
        with pytest.raises(FibrationError):
            fibration_zeta_partial(TorsorSpec(1), (0, 1), 2, 100)
        with pytest.raises(FibrationError):
            fibration_zeta_partial(TorsorSpec(1), (1, 1), 0, 100)
        with pytest.raises(FibrationError):
            fibration_zeta_partial(TorsorSpec(1), "tau", 2, 100)


def arakelov_per_point(spec, ms, H):
    """Per m of ms, the terms (H(b), inverse torsor character at b) of
    the Arakelov sum over the base points b of height <= H, the two
    boundary points first, each character from b's adelic offset."""
    base = [(1, (1, 0)), (1, (0, 1))] + [
        (max(abs(b0), abs(b1)), (b0, b1)) for b0, b1 in base_up_to(H)]
    offsets = [(h, torsor_class(spec, b)) for h, b in base]
    unit = valuation_profile((1,))
    return {m: [(h, character_pairing(spec.fiber_fan, (float(m),), unit,
                                      offset=off).conjugate())
                for h, off in offsets]
            for m in ms}


class TestArakelov:
    @pytest.mark.parametrize("twist", [-2, 0, 1, 3])
    @pytest.mark.parametrize("section", ["x0", "x1"])
    def test_closed_form_equals_per_point_sum(self, twist, section):
        spec = TorsorSpec(twist, section)
        for m, terms in arakelov_per_point(spec, range(3), 24).items():
            for a, H in ((2.5, 24), (4, 23.5), (5.5, 1), (3, 2)):
                # the boundary points enter with weight 1
                parts = [chi * (h ** -float(a) if i > 1 else 1.0)
                         for i, (h, chi) in enumerate(terms) if h <= H]
                want = complex(math.fsum(t.real for t in parts),
                               math.fsum(t.imag for t in parts))
                got = arakelov_L_partial(spec, a, m, H)
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_limit_is_zeta_ratio(self):
        # sum_b H(b)^-s over P^1(Q) is 4 zeta(s-1)/zeta(s), s = a + i n m
        for spec, m in ((TorsorSpec(1), 1), (TorsorSpec(2), 1),
                        (TorsorSpec(0), 0), (TorsorSpec(-1), 2)):
            s = mpmath.mpc(4, spec.twist * m)
            limit = complex(4 * mpmath.zeta(s - 1) / mpmath.zeta(s))
            assert abs(arakelov_L_partial(spec, 4, m, 300) - limit) < 1e-4

    def test_trivial_character_real_positive(self):
        val = arakelov_L_partial(TorsorSpec(1), 4, 0, 300.0)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real > 2.0

    def test_nontrivial_character_differs(self):
        v0 = arakelov_L_partial(TorsorSpec(1), 4, 0, 300.0)
        v1 = arakelov_L_partial(TorsorSpec(1), 4, 1, 300.0)
        assert abs(v1 - v0) > 1e-3

    def test_untwisted_is_character_independent(self):
        a = arakelov_L_partial(TorsorSpec(0), 4, 0, 200.0)
        b = arakelov_L_partial(TorsorSpec(0), 4, 5, 200.0)
        assert a == b

    def test_partial_sums_stabilize(self):
        v1 = arakelov_L_partial(TorsorSpec(1), 4, 1, 300.0)
        v2 = arakelov_L_partial(TorsorSpec(1), 4, 1, 600.0)
        assert abs(v2 - v1) < 1e-4

    def test_section_invariance(self):
        v0 = arakelov_L_partial(TorsorSpec(2, "x0"), 4, 1, 200.0)
        v1 = arakelov_L_partial(TorsorSpec(2, "x1"), 4, 1, 200.0)
        assert v0 == pytest.approx(v1, abs=1e-12)

    def test_needs_convergent_exponent(self):
        with pytest.raises(FibrationError):
            arakelov_L_partial(TorsorSpec(1), 2, 0, 100.0)

    def test_empty_range(self):
        assert arakelov_L_partial(TorsorSpec(1), 4, 3, 0.5) == 0j

    @pytest.mark.parametrize("H", [math.inf, -math.inf, math.nan])
    def test_non_finite_bound_refused(self, H):
        with pytest.raises(FibrationError, match="finite H"):
            arakelov_L_partial(TorsorSpec(1), 4, 0, H)

    def test_oversized_table_refused_before_allocation(self, monkeypatch):
        def no_table(T):
            raise AssertionError("the table was built")

        monkeypatch.setattr(fibration, "p1_height_counts", no_table)
        with pytest.raises(CountingError,
                           match=r"1e\+12 entries \(H = 1e\+12\)"):
            arakelov_L_partial(TorsorSpec(1), 4, 0, 1e12)


class TestFibrationPicard:
    # alpha(F_n) = 1 / (2n + 4); F_0 is p1xp1
    @pytest.mark.parametrize("n,alpha", [(n, Fraction(1, 2 * n + 4))
                                         for n in range(9)])
    def test_alpha_matches_direct(self, n, alpha):
        fp = fibration_picard(TorsorSpec(n))
        assert fp.alpha == alpha
        assert alpha_constant(hirzebruch_fan(n)) == alpha

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_three_double_descriptions(self, dd_calls, n):
        # the orthant's dual, the pre-check on M and the image's dual
        fibration_picard(TorsorSpec(n))
        assert len(dd_calls) == 3

    def test_rank_and_relation(self):
        fp = fibration_picard(TorsorSpec(3))
        assert fp.rank == 2
        # fiber ray classes differ by twist times the base class
        fm = fp.fiber_minus_class
        fpl = fp.fiber_plus_class
        bs = fp.base_class
        assert tuple(fm[i] - fpl[i] - 3 * bs[i] for i in range(2)) == (0, 0)

    def test_anticanonical_sum(self):
        fp = fibration_picard(TorsorSpec(2))
        want = tuple(fp.fiber_plus_class[i] + fp.fiber_minus_class[i]
                     + 2 * fp.base_class[i] for i in range(2))
        assert fp.anticanonical_class == want

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_match_is_unimodular(self, n):
        P = hirzebruch_match(TorsorSpec(n))
        det = P[0][0] * P[1][1] - P[0][1] * P[1][0]
        assert abs(det) == 1
        assert all(isinstance(c, int) for row in P for c in row)

    def test_match_rejects_negative_twist(self):
        with pytest.raises(FibrationError):
            hirzebruch_match(TorsorSpec(-1))


class TestFibrationConstant:
    def test_untwisted_equals_product_surface(self):
        fc = fibration_predicted_constant(TorsorSpec(0), pmax=20000)
        lc = leading_constant(builtin_fan("p1xp1"), pmax=20000)
        assert fc.theta == pytest.approx(lc.theta, abs=1e-9)
        assert fc.b == lc.b == 2
        # intervals around the same limit must overlap
        assert fc.lower <= lc.upper and lc.lower <= fc.upper

    def test_twisted_values(self):
        fc1 = fibration_predicted_constant(TorsorSpec(1), pmax=20000)
        fc2 = fibration_predicted_constant(TorsorSpec(2), pmax=20000)
        assert fc1.alpha == Fraction(1, 6)
        assert fc2.alpha == Fraction(1, 8)
        # same Tamagawa product, alpha ratio 4 : 3
        assert fc1.theta == pytest.approx(fc2.theta * Fraction(4, 3))

    def test_predict_leading_term(self):
        fc = fibration_predicted_constant(TorsorSpec(1), pmax=5000)
        B = 1e4
        assert fc.predict(B) == pytest.approx(
            fc.theta * B * math.log(B), rel=1e-12)
        assert fc.predict(1.0) == 0.0

    def test_count_approaches_prediction(self):
        fz = fibration_zeta_partial(TorsorSpec(1), "rho", 2, 2000)
        fc = fibration_predicted_constant(TorsorSpec(1), pmax=20000)
        ratio = fz.n_points / fc.predict(2000.0)
        assert 0.8 < ratio < 1.4


def test_hirzebruch_fan_guard():
    with pytest.raises(FibrationError):
        hirzebruch_fan(-2)
