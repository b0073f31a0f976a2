"""Sweep checks for the four integral bound families."""

import math

import mpmath as mp
import numpy as np
import pytest

from manin_toric import bounds
from manin_toric.bounds import (_GL_NODES, _GL_WEIGHTS, _decades,
                                _graded_cuts, _omega_lhs, _tail_cuts,
                                verify_integral_bounds)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        verify_integral_bounds("gamma")


def test_plus_equal_scales_ratio_one():
    # A = B with both exponents 1: int dt/(A+t)^2 = 1/A and the shape
    # is A/A^2, so the ratio is exactly 1 up to quadrature error.
    rep = verify_integral_bounds("plus", base_decades=3, extend_decades=0)
    diag = [r for r in rep.rows
            if r["alpha"] == 1.0 and r["beta"] == 1.0 and r["A"] == r["B"]]
    assert diag
    for row in diag:
        assert abs(row["ratio"] - 1.0) < 1e-8


def test_plus_closed_form_row():
    # alpha=1, beta=2: log(B/A)/(B-A)^2 - 1/(B(B-A)) for B > A.
    rep = verify_integral_bounds("plus", base_decades=1, extend_decades=0)
    row = next(r for r in rep.rows
               if r["alpha"] == 1.0 and r["beta"] == 2.0
               and r["A"] == 1.0 and r["B"] == 10.0)
    exact = math.log(10.0) / 81.0 - 1.0 / 90.0
    assert abs(row["lhs"] - exact) < 1e-10


def test_minus_closed_form_row():
    # alpha=1: (1/(A+B)) * (log(A+B-1) - log(A/B)).
    rep = verify_integral_bounds("minus", base_decades=8, extend_decades=0)
    for A, B in ((10.0, 100.0), (10.0, 1e8)):
        row = next(r for r in rep.rows
                   if r["alpha"] == 1.0 and r["A"] == A and r["B"] == B)
        exact = (math.log(A + B - 1) - math.log(A / B)) / (A + B)
        assert row["lhs"] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_minus_worst_row_against_mpmath():
    # alpha=0.4, A=B=1e8, the least accurate minus row when the end near
    # u = B - 1 was integrated in u: B - u there carried ulp(B) ~ 1.5e-8
    rep = verify_integral_bounds("minus", base_decades=8, extend_decades=0)
    row = next(r for r in rep.rows
               if r["alpha"] == 0.4 and r["A"] == 1e8 and r["B"] == 1e8)
    with mp.workdps(30):
        A = B = mp.mpf(10) ** 8
        # in v = B - u on [1, B], graded away from v = 1
        ref = mp.quad(lambda v: (A + B - v) ** mp.mpf("-0.4") / v,
                      [mp.mpf(1)] + [1 + mp.mpf(10) ** j
                                     for j in range(-1, 8)] + [B])
    assert float(ref) == pytest.approx(8.92740246859658e-03, rel=1e-13,
                                       abs=0.0)
    assert row["lhs"] == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_plus_far_row_closed_form():
    # A = B: int_0^inf (A+t)^-(alpha+beta) dt = A^(1-alpha-beta)/(alpha+beta-1)
    rep = verify_integral_bounds("plus", base_decades=8, extend_decades=0)
    row = next(r for r in rep.rows
               if r["alpha"] == 1.5 and r["beta"] == 1.0
               and r["A"] == 1e8 and r["B"] == 1e8)
    assert row["lhs"] == pytest.approx(1e8 ** -1.5 / 1.5, rel=1e-10,
                                       abs=0.0)


def test_alpha_kinked_row_against_mpmath():
    # alpha=1, A=1e8, a=-1e5: the kink of |t+a| sits at t=1e5
    rep = verify_integral_bounds("alpha", base_decades=8, extend_decades=0)
    row = next(r for r in rep.rows
               if r["alpha"] == 1.0 and r["A"] == 1e8 and r["a"] == -1e5)
    with mp.workdps(25):
        A, a = mp.mpf(10) ** 8, -mp.mpf(10) ** 5
        ref = mp.quad(lambda t: 1 / ((A + abs(t + a)) * (1 + t)),
                      [0, 1, 10, 100, 1e3, 1e4, -a, 1e6, 1e7, A, 1e9, 1e10,
                       mp.inf])
    assert float(ref) == pytest.approx(1.84170924259981e-07, rel=1e-13,
                                       abs=0.0)
    assert row["lhs"] == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_omega_far_row_against_mpmath():
    # eps=0.3, T=1e8, A=1e4, t=(0, T): kinks at 0 and T, one unit
    # inside the tails
    lhs = _omega_lhs((0.0, 1e8), 1e4, 0.3)
    with mp.workdps(25):
        T, A, e = mp.mpf(10) ** 8, mp.mpf(10) ** 4, mp.mpf("0.3")
        ref = mp.quad(lambda t: (1 + A + abs(t)) ** (e - 1)
                      / ((1 + abs(t)) * (1 + abs(t - T))),
                      [-mp.inf, -1e9, -1e6, -1e4, -100, -1, 0, 1, 100, 1e4,
                       1e6, T - 1e6, T - 100, T - 1, T, T + 1, T + 100,
                       T + 1e6, 1e9, mp.inf])
    assert float(ref) == pytest.approx(3.13171627582965e-10, rel=1e-13,
                                       abs=0.0)
    assert lhs == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_omega_example_bounded_at_zero_shift():
    # n = 2, t = (0, T), A = 0: the integral times (1+T) stays bounded.
    vals = []
    for T in (1.0, 10.0, 100.0, 1e4, 1e6):
        vals.append(_omega_lhs((0.0, T), 0.0, 0.1) * (1 + T))
    assert all(v < 10.0 for v in vals)
    assert vals[-1] <= max(vals[:2]) * 1.05


@pytest.mark.parametrize("kind", ["plus", "minus", "alpha", "omega"])
def test_sweep_passes(kind):
    rep = verify_integral_bounds(kind, base_decades=4, extend_decades=2)
    assert rep.passed, rep.summary()
    assert rep.sup_base > 0
    assert math.isfinite(rep.sup_extended)


def test_report_summary_shape():
    rep = verify_integral_bounds("minus", base_decades=2, extend_decades=1)
    s = rep.summary()
    assert s["kind"] == "minus"
    assert s["rows"] == len(rep.rows)
    assert set(s) == {"kind", "rows", "sup_base", "sup_extended",
                      "stable", "passed", "worst"}


# ------------------------------------------- one rule per distinct cut set


def _integrate(f, cuts):
    # the rule built afresh for every row, as the sweep did before rows
    # with the same cuts came to share one
    edges = np.array(sorted(cuts))
    half = np.diff(edges)[:, None] / 2
    nodes = edges[:-1, None] + half * (1 + _GL_NODES)
    return float(np.dot((half * _GL_WEIGHTS).ravel(), f(nodes.ravel())))


def _lhs_per_row(kind, kmax):
    """Each row's lhs integrated on its own rule, in the sweep's order."""
    out = []
    if kind == "plus":
        for alpha, beta in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0),
                            (1.5, 1.5), (1.0, 1.5), (1.5, 1.0)]:
            for A in _decades(kmax):
                for B in _decades(kmax):
                    cut = 10.0 * max(A, B)
                    out.append(_integrate(
                        lambda t: (A + t) ** -alpha * (B + t) ** -beta,
                        _graded_cuts(0.0, cut) | _tail_cuts(cut)))
    elif kind == "minus":
        for alpha in (0.4, 0.7, 1.0):
            for A in _decades(kmax):
                for B in _decades(kmax)[1:]:
                    half = (B - 1) / 2
                    steps = {10.0 ** j for j in range(kmax)
                             if 10.0 ** j < half}
                    out.append(
                        _integrate(lambda u: (A + u) ** -alpha / (B - u),
                                   {0.0, half} | steps)
                        + _integrate(lambda v: (A + B - v) ** -alpha / v,
                                     {1.0, 1.0 + half}
                                     | {1.0 + x for x in steps}))
    elif kind == "alpha":
        offsets = [s * 10.0 ** k for k in range(kmax + 1) for s in (1, -1)]
        for alpha in (0.5, 0.8, 1.0):
            for A in _decades(kmax):
                for a in offsets:
                    mid = max(10.0, abs(a) * 4, A * 4)
                    cuts = (_graded_cuts(0.0, -a) | _graded_cuts(-a, mid)
                            if a < 0 else _graded_cuts(0.0, mid))
                    out.append(_integrate(
                        lambda t: (A + np.abs(t + a)) ** -alpha / (1 + t),
                        cuts | _tail_cuts(mid)))
    else:
        for eps in (0.1, 0.3):
            for T in _decades(kmax):
                for A in (0.0, 1.0, 100.0, 10000.0):
                    for tvec in [(0.0, T), (0.0, T, 2 * T)]:
                        def f(t):
                            val = (1 + A + np.abs(t)) ** -(1 - eps)
                            for tj in tvec:
                                val = val / (1 + np.abs(t - tj))
                            return val
                        pts = sorted(set([0.0] + list(tvec)))
                        lo, hi = pts[0] - 1.0, pts[-1] + 1.0
                        cuts = ({-c for c in _tail_cuts(-lo)}
                                | _tail_cuts(hi))
                        segs = [lo] + pts + [hi]
                        for p, q in zip(segs, segs[1:]):
                            cuts |= _graded_cuts(p, q)
                        out.append(_integrate(f, cuts))
    return out


@pytest.mark.parametrize("kind", ["plus", "minus", "alpha", "omega"])
@pytest.mark.parametrize("base,ext", [(0, 0), (3, 0), (6, 2), (8, 2)])
def test_shared_rules_match_per_row_rules_exactly(kind, base, ext):
    rows = verify_integral_bounds(kind, base, ext).rows
    assert [r["lhs"] for r in rows] == _lhs_per_row(kind, base + ext)
    assert all(r["ratio"] == r["lhs"] / r["rhs"] for r in rows)


@pytest.mark.parametrize("kind,rules", [("plus", 9), ("minus", 16),
                                        ("alpha", 90), ("omega", 18)])
def test_one_rule_per_distinct_cut_set(monkeypatch, kind, rules):
    built = []
    real = bounds._rule

    def spy(cuts):
        built.append(frozenset(cuts))
        return real(cuts)

    monkeypatch.setattr(bounds, "_rule", spy)
    rep = verify_integral_bounds(kind)
    assert len(built) == rules
    assert len(rep.rows) > rules


def test_sweep_stops_at_first_non_finite_ratio(monkeypatch):
    rows = [{"A": 1.0, "ratio": 0.5}, {"A": 10.0, "ratio": math.nan},
            {"A": 100.0, "ratio": 0.7}]
    monkeypatch.setitem(bounds._KIND_ROWS, "plus", lambda kmax: iter(rows))
    rep = verify_integral_bounds("plus", base_decades=1, extend_decades=1)
    assert rep.passed is False
    assert rep.worst is rows[1]
    assert rep.rows == rows[:2]


def test_rows_classified_by_grid_parameters_only(monkeypatch):
    # a base row whose ratio, lhs and rhs exceed 10^base_decades stays a
    # base row; a row beyond it in A is extended whatever its ratio
    rows = [{"A": 10.0, "lhs": 5e3, "rhs": 2.0, "ratio": 2.5e3},
            {"A": 1e3, "lhs": 1.0, "rhs": 1.0, "ratio": 1.0}]
    monkeypatch.setitem(bounds._KIND_ROWS, "plus", lambda kmax: iter(rows))
    rep = verify_integral_bounds("plus", base_decades=2, extend_decades=1)
    assert (rep.sup_base, rep.sup_extended) == (2.5e3, 1.0)
    assert rep.worst is rows[0]
    assert rep.stable and rep.passed


@pytest.mark.parametrize("base, extend", [(100, 3), (300, 9)])
def test_decade_limit_refused_before_any_work(monkeypatch, base, extend):
    # 103 decades overflowed A^alpha B^beta into a division by zero after
    # the whole sweep, 309 overflowed the grid itself
    grids = []
    monkeypatch.setitem(bounds._KIND_ROWS, "plus",
                        lambda kmax: grids.append(kmax) or iter(()))
    with pytest.raises(ValueError, match=f"base_decades {base} plus "
                       f"extend_decades {extend} is {base + extend} "
                       f"decades, over the limit of {bounds.MAX_DECADES}"):
        verify_integral_bounds("plus", base, extend)
    assert grids == []
    verify_integral_bounds("plus", bounds.MAX_DECADES - 2, 2)
    assert grids == [bounds.MAX_DECADES]


@pytest.mark.parametrize("base, extend", [(400, -300), (2, -1), (-1, 3)])
def test_negative_decades_refused_before_any_work(monkeypatch, base, extend):
    # (400, -300) passed the limit and overflowed the grid; (2, -1) swept
    # one decade of base rows and passed with no extension at all
    grids = []
    monkeypatch.setitem(bounds._KIND_ROWS, "plus",
                        lambda kmax: grids.append(kmax) or iter(()))
    with pytest.raises(ValueError, match=f"base_decades {base} and "
                       f"extend_decades {extend} must both be nonnegative"):
        verify_integral_bounds("plus", base, extend)
    assert grids == []
