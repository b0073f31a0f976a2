"""Perron integrals, residues, the descent bracket, count-vs-prediction."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from manin_toric import tauberian
from manin_toric.counting import _count_general, count_points
from manin_toric.fourier import FourierError
from manin_toric.latticefan import builtin_fan
from manin_toric.tauberian import (
    EULER_GAMMA,
    DirichletOracle,
    PerronLine,
    PoleData,
    TauberianError,
    _TAIL_SAMPLES,
    _coeff_p1,
    _panel_edges,
    builtin_oracle,
    compare,
    contour_independence,
    descend_k,
    descent_eta,
    perron_phi_k,
    predict,
    residue_circle,
    residue_consistency,
    residue_shape,
)

ONE = builtin_oracle("one")
ZETA = builtin_oracle("zeta")
ZETA2 = builtin_oracle("zeta2")
P1O = builtin_oracle("p1")


class TestPoleData:
    def test_accepts_valid(self):
        p = PoleData(1.0, 2, 3.5, 0.25, kappa=1.0)
        assert p.order == 2

    @pytest.mark.parametrize(
        "args",
        [
            (-1.0, 1, 1.0, 0.5),
            (1.0, 0, 1.0, 0.5),
            (1.0, 1, 0.0, 0.5),
            (1.0, 1, 1.0, 1.5),   # delta0 must stay below the abscissa
            (1.0, 1, 1.0, 0.0),
        ],
    )
    def test_rejects_bad_fields(self, args):
        with pytest.raises(TauberianError):
            PoleData(*args)

    def test_rejects_negative_growth(self):
        with pytest.raises(TauberianError):
            PoleData(1.0, 1, 1.0, 0.5, kappa=-0.1)


class TestOracles:
    def test_unknown_name(self):
        with pytest.raises(TauberianError):
            builtin_oracle("zeta3")

    def test_divisor_sums(self):
        assert ZETA2.phi_direct(100.0, 0) == 482.0
        assert ZETA2.phi_direct(1e5, 0) == 1166750.0

    def test_oversized_direct_sum_refused(self):
        with pytest.raises(TauberianError, match="1000000000000"):
            ZETA2.phi_direct(1e12, 0)
        with pytest.raises(TauberianError, match="cap"):
            ZETA.phi_direct(float("inf"), 1)

    def test_several_k_equal_separate_calls(self):
        for orc in (ZETA, ZETA2, P1O, ONE):
            for X in (0.5, 1.0, 99.5, 2e3):
                assert orc.phi_direct(X, (2, 0)) == [orc.phi_direct(X, 2),
                                                     orc.phi_direct(X, 0)]
                assert orc.phi_direct(X, [3]) == [orc.phi_direct(X, 3)]

    def test_floor_count(self):
        assert ZETA.phi_direct(1000.0, 0) == 1000.0
        assert ZETA.phi_direct(999.5, 0) == 999.0

    def test_constant_series_gives_log_powers(self):
        for X, k in ((50.0, 2), (123.4, 3), (7.0, 0)):
            assert ONE.phi_direct(X, k) == pytest.approx(
                math.log(X) ** k, rel=1e-14
            )

    def test_p1_counts_match_counting_module(self):
        fan = builtin_fan("p1")
        # prefix sums of the coefficient table against the DFS, which
        # does not read the P^1 height table
        prefix = np.cumsum(_coeff_p1(1000))
        Bs = (1, 2, 3, 4, 8, 9, 10, 24, 25, 99, 100, 999, 1000)
        # the DFS counts signless profiles, 2 points (x and -x) each
        walked = _count_general(fan, (1, 1), [Fraction(B) for B in Bs],
                                halve=True)
        for B, n in zip(Bs, walked):
            assert prefix[B] == 2 * n
            assert P1O.phi_direct(float(B), 0) == count_points(fan, (1, 1), B)

    def test_vectorized_evaluator_matches_scalar(self):
        # the closed forms in mpmath, independent of zeta_line; the points
        # include the tail samples of lines at T = 150 and 300, where p1's
        # zeta(2s - 1) reaches |Im| = 1560, and p1's left contour Re s = 7/8
        reference = {
            ZETA: mp.zeta,
            ZETA2: lambda s: mp.zeta(s) ** 2,
            P1O: lambda s: 4 * mp.zeta(2 * s - 1) / mp.zeta(2 * s) - 2,
            ONE: lambda s: 1,
        }
        tails = [1.5 + 1j * T * c for T in (150.0, 300.0)
                 for c in _TAIL_SAMPLES]
        pts = np.array([1.5 + 3j, 2.0 - 10j, 1.2 + 0.5j, 0.875 + 40j,
                        0.875 - 7j] + tails)
        for orc, ref in reference.items():
            fast = orc.evaluate_line(pts)
            assert fast.shape == pts.shape
            for s, v in zip(pts, fast):
                want = complex(ref(mp.mpc(s)))
                assert abs(v - want) < 1e-10 * (abs(want) + 1)
                assert abs(orc.evaluate(s) - want) < 1e-10 * (abs(want) + 1)


class TestPerron:
    def test_zeta_k2(self):
        X = 100.5
        direct = ZETA.phi_direct(X, 2)
        got = perron_phi_k(ZETA, None, X, 2)
        assert abs(got - direct) < 1e-3 * direct
        assert abs(got - direct) < 1e-6 * direct  # typically ~1e-8

    def test_zeta2_k3(self):
        X = 1000.0
        direct = ZETA2.phi_direct(X, 3)
        got = perron_phi_k(ZETA2, None, X, 3)
        assert abs(got - direct) < 1e-3 * direct

    def test_constant_oracle(self):
        got = perron_phi_k(ONE, PoleData(1.0, 1, 1.0, 0.5), 50.0, 2,
                           a_prime=1.5)
        assert abs(got - math.log(50.0) ** 2) < 1e-6 * math.log(50.0) ** 2

    def test_p1_oracle(self):
        X = 500.0
        direct = P1O.phi_direct(X, 2)
        got = perron_phi_k(P1O, None, X, 2)
        assert abs(got - direct) < 1e-6 * direct

    def test_contour_must_clear_pole(self):
        with pytest.raises(TauberianError):
            perron_phi_k(ZETA, None, 100.0, 2, a_prime=0.9)

    def test_tail_bound_raises_when_truncation_too_short(self):
        with pytest.raises(TauberianError):
            perron_phi_k(P1O, None, 5000.0, 2, T=300.0)
        got = perron_phi_k(P1O, None, 5000.0, 2, T=1000.0)
        direct = P1O.phi_direct(5000.0, 2)
        assert abs(got - direct) < 1e-6 * direct

    def test_k_must_exceed_growth_exponent(self):
        # zeta2 declares kappa = 1, so phi_1 is out of reach on a line
        with pytest.raises(TauberianError):
            perron_phi_k(ZETA2, None, 100.0, 1)


class TestPerronLine:
    @pytest.mark.parametrize("oracle", [ZETA2, P1O], ids=["zeta2", "p1"])
    def test_shared_line_equals_fresh_calls(self, oracle):
        X, eta = 1000.0, 1000.0**-0.5
        line = PerronLine(oracle, None, 3, T=150.0)
        for Y in (X, X * (1 - eta), X * (1 + eta), X):
            assert line(Y) == perron_phi_k(oracle, None, Y, 3, T=150.0)

    def test_descent_samples_share_the_tail_and_node_sets(self):
        line = PerronLine(ZETA2, None, 3)
        line(1000.0)
        descend_k(line, 3, 1000.0)
        eta = 1000.0**-0.5
        edges = {_panel_edges(300.0, Y)
                 for Y in (1000.0 * (1 - eta), 1000.0, 1000.0 * (1 + eta))}
        assert line.stats == {"node_sets": len(edges),
                              "points": sum(12 * (e - 1) for e in edges),
                              "tail_samples": 4}

    @pytest.mark.parametrize("pct", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("oracle, X", [(P1O, 2e3), (ZETA2, 1e5)],
                             ids=["p1", "zeta2"])
    def test_descent_window_shares_one_node_set(self, oracle, X, pct):
        # the tauber jobs of the benchmark, at each of its jitters
        X = X * (100 + pct) / 100
        line = PerronLine(oracle, None, 3, T=150.0)
        line(X)
        descend_k(line, 3, X)
        assert line.stats["node_sets"] == 1

    def test_window_straddling_an_integer_of_log_X(self):
        X = 2981.0  # log X = 8.00001: X(1 - eta) lies below e^8
        line = PerronLine(P1O, None, 3, T=150.0)
        phi = line(X)
        bracket = descend_k(line, 3, X)
        assert line.stats["node_sets"] == 2
        assert phi == perron_phi_k(P1O, None, X, 3, T=150.0)
        assert bracket == descend_k(
            lambda Y: perron_phi_k(P1O, None, Y, 3, T=150.0), 3, X)

    @pytest.mark.parametrize("T", [0.0, -150.0])
    def test_rejects_nonpositive_T(self, T):
        with pytest.raises(TauberianError, match="must be positive"):
            PerronLine(ZETA2, None, 3, T=T)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(TauberianError, match=f"tol = {tol} must be"):
            PerronLine(ZETA2, None, 3, tol=tol)

    def test_rejects_k_before_evaluating(self):
        calls = []

        def spy(f):
            return lambda s: calls.append(s) or f(s)

        oracle = DirichletOracle("spy", ZETA2.pole, spy(ZETA2._evaluate),
                                 ZETA2._coefficients)
        with pytest.raises(TauberianError, match="kappa"):
            PerronLine(oracle, None, 1)
        assert calls == []

    def test_oversized_rule_refused_before_evaluating(self):
        # the tail samples reach |Im s| = 2.6 T; the rule of the first X
        # is built, and refused, before the series is evaluated at all
        calls = []

        def spy(s):
            calls.append(s)
            return ZETA2._evaluate(s)

        oracle = DirichletOracle("spy", ZETA2.pole, spy, ZETA2._coefficients)
        line = PerronLine(oracle, None, 3, T=1e6)
        with pytest.raises(FourierError, match="over the limit"):
            line(1e4)
        assert calls == []
        assert line.stats == {"node_sets": 0, "points": 0, "tail_samples": 0}

    def test_one_integral_per_X(self, monkeypatch):
        seen = []
        line_sum = tauberian._line_sum
        monkeypatch.setattr(tauberian, "_line_sum",
                            lambda line, X, k: seen.append(X)
                            or line_sum(line, X, k))
        line = PerronLine(ZETA2, None, 3, T=150.0)
        first = line(1e3)
        bracket = descend_k(line, 3, 1e3)
        assert line(1e3) == first
        eta = 1e3**-0.5
        assert seen == [1e3, 1e3 * (1 - eta), 1e3 * (1 + eta)]
        assert bracket == descend_k(
            lambda Y: perron_phi_k(ZETA2, None, Y, 3, T=150.0), 3, 1e3)


class TestResidue:
    def test_circle_matches_analytic_double_pole(self):
        # residue of zeta(s)^2 X^s / s^4 at s = 1 is X(log X - 4 + 2 gamma),
        # and phi_3 carries the prefactor 3!
        X = 1000.0
        want = 6.0 * X * (math.log(X) - 4.0 + 2.0 * EULER_GAMMA)
        got = residue_circle(ZETA2, ZETA2.pole, X, 3)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_circle_simple_pole(self):
        got = residue_circle(ZETA, ZETA.pole, 100.0, 1)
        assert abs(got - 100.0) < 1e-10 * 100.0

    def test_shape_drops_gamma_terms(self):
        X = 1000.0
        assert residue_shape(ZETA2.pole, X, 3) == pytest.approx(
            6.0 * X * (math.log(X) - 4.0), rel=1e-13
        )
        # k = 0 reproduces the X log X - X main part of the divisor sum
        assert residue_shape(ZETA2.pole, X, 0) == pytest.approx(
            X * (math.log(X) - 1.0), rel=1e-13
        )

    def test_shape_reduces_to_predict_for_simple_pole(self):
        for X in (10.0, 1234.5):
            assert residue_shape(ZETA.pole, X, 0) == pytest.approx(
                predict(ZETA.pole, X), rel=1e-14
            )

    def test_consistency_report(self):
        rep = residue_consistency(ZETA2, None, 1000.0, 3)
        assert rep.rel_error < 1e-3
        assert abs(rep.difference - rep.circle) < 1e-3 * abs(rep.circle)

    def test_consistency_p1(self):
        rep = residue_consistency(P1O, None, 500.0, 2)
        assert rep.rel_error < 1e-3

    def test_needs_pole(self):
        with pytest.raises(TauberianError):
            residue_consistency(ONE, None, 100.0, 2)


class TestContour:
    def test_zeta2_independent_of_line(self):
        rep = contour_independence(ZETA2, None, 1000.0, 3)
        assert rep.a_low == pytest.approx(1.5)
        assert rep.a_high == pytest.approx(2.5)
        assert rep.consistent(1e-3)

    def test_p1_independent_of_line(self):
        assert contour_independence(P1O, None, 2000.0, 2).consistent(1e-3)

    def test_custom_lines(self):
        rep = contour_independence(ZETA, None, 500.0, 2, a1=1.6, a2=2.2)
        assert rep.consistent(1e-3)


class TestDescend:
    def test_log_powers_descend_exactly(self):
        # phi_k = (log X)^k makes both difference quotients equal to
        # (log X)^(k-1) up to O(eta), and for k = 1 exactly 1
        lo, hi = descend_k(lambda Y: ONE.phi_direct(Y, 1), 1, 1000.0)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_zeta2_brackets_divisor_sum(self):
        truth = 1166750.0
        lo, hi = descend_k(lambda Y: ZETA2.phi_direct(Y, 1), 1, 1e5)
        assert lo <= truth <= hi
        assert abs(lo - truth) < 0.02 * truth
        assert abs(hi - truth) < 0.02 * truth

    def test_zeta_two_level_chain(self):
        X = 1e4
        lo, hi = descend_k(lambda Y: ZETA.phi_direct(Y, 2), 2, X)
        mid = ZETA.phi_direct(X, 1)
        assert lo <= mid <= hi
        lo0, hi0 = descend_k(lambda Y: ZETA.phi_direct(Y, 1), 1, X)
        assert lo0 <= 10000.0 <= hi0
        assert abs(lo0 - X) < 0.02 * X and abs(hi0 - X) < 0.02 * X

    def test_rejects_bad_k(self):
        with pytest.raises(TauberianError):
            descend_k(lambda Y: Y, 0, 100.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(TauberianError):
            descend_k(lambda Y: Y, 1, 100.0, eta=1.5)

    def test_default_window_edge(self):
        # max(X^-1/2, 20/X) lies in (0, 1) exactly when X > 20
        assert descent_eta(20.5) == 20.0 / 20.5
        assert descent_eta(1e4) == 0.01
        for X in (20.0, 0.5, 0.0, -3.0):
            with pytest.raises(TauberianError, match=f"X = {X:g} is too"):
                descent_eta(X)
            with pytest.raises(TauberianError, match="too small"):
                descend_k(lambda Y: Y, 1, X)

    def test_detects_inverted_bracket(self):
        # a decreasing sampler violates the monotonicity premise
        with pytest.raises(TauberianError):
            descend_k(lambda Y: -Y, 1, 100.0, eta=0.1)


class TestPredictCompare:
    def test_predict_formulas(self):
        X = 777.0
        assert predict(ZETA.pole, X) == X
        assert predict(ZETA2.pole, X) == pytest.approx(X * math.log(X))
        assert predict(P1O.pole, X) == pytest.approx(12 / math.pi**2 * X)

    def test_zeta_fractional_part_residual(self):
        # half-integer grid pins every residual at exactly -1/2
        rep = compare(ZETA, [100.5, 1000.5, 10000.5])
        assert all(r == pytest.approx(-0.5, abs=1e-9) for r in rep.residuals)
        assert abs(rep.error_exponent) < 1e-6
        assert rep.error_exponent < ZETA.pole.abscissa - ZETA.pole.delta0

    def test_zeta2_recovers_second_constant(self):
        rep = compare(ZETA2, [10**3.5, 1e4, 10**4.5, 1e5])
        want = 2 * EULER_GAMMA - 1
        assert abs(rep.residual_coefficient - want) < 0.02 * want

    def test_p1_counts_and_ratio(self):
        rep = compare(P1O, [100.0, 1000.0, 10000.0])
        fan = builtin_fan("p1")
        for X, N in zip(rep.Xs, rep.counts):
            assert N == count_points(fan, (1, 1), int(X))
        assert rep.counts[-1] / rep.predictions[-1] == pytest.approx(
            1.0, abs=0.05
        )

    def test_rows_roundtrip(self):
        rep = compare(ZETA, [10.0, 100.0])
        rows = list(rep.rows())
        assert rows[0]["X"] == 10.0 and "residual" in rows[1]

    def test_needs_two_points(self):
        with pytest.raises(TauberianError):
            compare(ZETA, [100.0])

    def test_needs_pole(self):
        with pytest.raises(TauberianError):
            compare(ONE, [10.0, 100.0])
