"""Local Fourier transforms, the corrected Euler product, Poisson identity."""

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from manin_toric import fourier
from manin_toric.fourier import (
    FourierError,
    _poisson_line,
    arch_transform,
    cf_extract,
    finite_transform,
    poisson_check,
    rademacher_sweep,
    zeta_line,
)
from manin_toric.latticefan import builtin_fan, make_fan, pl_evaluate
from manin_toric.toric import archimedean_volume

P1 = builtin_fan("p1")
P2 = builtin_fan("p2")
P1XP1 = builtin_fan("p1xp1")
F1 = builtin_fan("hirzebruch-1")


class TestArchTransform:
    def test_p1_closed_form(self):
        for s in (1.0, 2.0, 0.5, 2.5 + 0.3j):
            for m in (0.0, 1.0, -3.7):
                got = arch_transform(P1, (s, s), (m,))
                want = 1 / (s + 1j * m) + 1 / (s - 1j * m)
                assert cmath.isclose(got, want, rel_tol=1e-14)

    def test_rho_at_zero_counts_chambers(self):
        for fan in (P1, P2, P1XP1, F1):
            rho = (1,) * len(fan.rays)
            got = arch_transform(fan, rho, None)
            assert got.imag == 0
            assert got.real == pytest.approx(len(fan.max_cones))
            assert got.real == pytest.approx(archimedean_volume(fan) / 2**fan.dim)

    def test_p2_against_quadrature(self):
        m = (1.0, 0.0)
        rho = (1, 1, 1)

        def integrand(part):
            def f(v2, v1):
                phase = v1 * m[0] + v2 * m[1]
                val = cmath.exp(-float(pl_evaluate(P2, rho, (v1, v2))) - 1j * phase)
                return part(val)

            return f

        L = 40.0
        re, re_err = dblquad(integrand(lambda z: z.real), -L, L, -L, L,
                             epsabs=1e-9, epsrel=1e-9)
        im, im_err = dblquad(integrand(lambda z: z.imag), -L, L, -L, L,
                             epsabs=1e-9, epsrel=1e-9)
        got = arch_transform(P2, rho, m)
        assert abs(got - complex(re, im)) < 1e-6

    def test_rejects_nonpositive_real_part(self):
        with pytest.raises(FourierError):
            arch_transform(P1, (0, 1), (0.0,))


class TestFiniteTransform:
    def test_p1_geometric_series(self):
        for p in (2, 3, 101):
            for la, lb in ((2, 2), (2, 3), (1.5, 0.7)):
                got = finite_transform(P1, (la, lb), p)
                ua, ub = p**-la, p**-lb
                want = 1 + ua / (1 - ua) + ub / (1 - ub)
                assert cmath.isclose(got, want, rel_tol=1e-13)

    def test_large_lambda_limit(self):
        assert abs(finite_transform(P1, (40, 40), 2) - 1) < 1e-11
        assert abs(finite_transform(P2, (50, 50, 50), 3) - 1) < 1e-11

    def test_product_fan_factorizes(self):
        for p in (2, 7):
            for m in ((0.0, 0.0), (0.7, -1.3), (2.2, 0.1)):
                full = finite_transform(P1XP1, (2, 3, 2.5, 2), p, m)
                fx = finite_transform(P1, (2, 2.5), p, (m[0],))
                fy = finite_transform(P1, (3, 2), p, (m[1],))
                assert cmath.isclose(full, fx * fy, rel_tol=1e-13)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = tuple(1 + rng.random() + 1j * rng.normal() for _ in range(4))
            m = tuple(rng.normal(size=2))
            mneg = tuple(-c for c in m)
            lbar = tuple(v.conjugate() for v in lam)
            f = finite_transform(F1, lam, 5, m)
            assert cmath.isclose(
                finite_transform(F1, lbar, 5, mneg), f.conjugate(), rel_tol=1e-12
            )
            a = arch_transform(F1, lam, m)
            assert cmath.isclose(
                arch_transform(F1, lbar, mneg), a.conjugate(), rel_tol=1e-12
            )


class TestCfExtract:
    def test_p1_recovers_inverse_zeta4(self):
        got = cf_extract(P1, (2, 2), 400)
        assert abs(got - 90 / math.pi**4) < 1e-6
        assert abs(got.imag) < 1e-15

    def test_log_magnitude_bounded_on_grid(self):
        for la in (1.5, 2.0, 3.0):
            for lb in (1.5, 2.25, 3.0):
                val = cf_extract(P1, (la, lb), 200)
                assert abs(cmath.log(val)) < 1.0

    def test_p2_local_factor_near_one(self):
        # each corrected p-factor must be 1 + O(p^-2)
        for p in (2, 3, 5, 11, 101):
            factor = finite_transform(P2, (2, 2, 2), p) * (1 - p**-2.0) ** 3
            assert abs(factor - 1) * p * p < 1.0
            assert factor == pytest.approx(1 - p**-6.0)

    def test_large_lambda_limit(self):
        assert abs(cf_extract(P1, (30, 30), 100) - 1) < 1e-8

    def test_detects_non_stabilizing_product(self):
        with pytest.raises(FourierError):
            cf_extract(P1, (0.67 + 3j, 0.67), 5)

    def test_rejects_small_real_part(self):
        with pytest.raises(FourierError):
            cf_extract(P1, (0.5, 2.0), 100)

    @pytest.mark.parametrize("pmax", [-3, 0, 1])
    def test_rejects_pmax_without_primes(self, pmax):
        # no prime p <= pmax: the product would be silently empty
        with pytest.raises(FourierError, match=f"pmax = {pmax} must be"):
            cf_extract(P1, (2.0, 2.0), pmax)


class TestZetaLine:
    def test_against_mpmath(self):
        mp.mp.dps = 25
        pts = [2 + 0j, 2 + 1j, 2 + 17.3j, 2 + 213j, 2 + 1999j,
               1.5 + 800j, 3.1 - 1200j, 1.2 + 30j, 4 + 2500j, 1.5 + 0j]
        for s in pts:
            want = complex(mp.zeta(s))
            got = zeta_line(s)
            assert abs(got - want) < 1e-13 * abs(want)

    def test_critical_strip(self):
        # the rounding of t log n in each term, summed over N ~ t/pi terms
        # of size n^-Re(s), dominates the error inside the strip
        mp.mp.dps = 25
        pts = [0.75 + 40j, 0.5 + 300j, 0.25 + 14.1j, 0.25 + 900j]
        for s in pts:
            want = complex(mp.zeta(s))
            got = zeta_line(s)
            assert abs(got - want) < 1e-11 * abs(want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(0.25, 4.0), st.floats(-3000.0, 3000.0))
    def test_random_points_against_mpmath(self, sigma, t):
        s = complex(sigma, t)
        assume(abs(s - 1) > 1e-3)
        with mp.workdps(30):
            want = complex(mp.zeta(mp.mpc(sigma, t)))
        # absolute below |zeta| = 1: zeta has zeros on Re s = 1/2
        assert abs(zeta_line(s) - want) < 2e-11 * max(1.0, abs(want))

    def test_beyond_the_random_range(self):
        # the rounding of t log p enters each term once per prime factor
        for s in (0.5 + 1e5j, 1.5 + 1e5j, 0.75 + 2e4j):
            with mp.workdps(30):
                want = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta_line(s) - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("N", [16, 17, 968, 31844])
    def test_factor_plan_fills_every_column_from_earlier_ones(self, N):
        # replay the kernel's column order on integers: a block with
        # cutoff N, and one with a smaller cutoff taking the prefixes
        primes, logp, layers = fourier._factor_plan(N)
        assert np.array_equal(logp, np.log(primes))
        for cut in (N, N // 2 + 1):
            P = sum(p < cut for p in primes)
            cols = list(primes[:P])
            prev = 0  # first column of the layer before
            for ns, i, j in layers:
                count = sum(n < cut for n in ns)
                assert list(ns[:count]) == sorted(ns[:count])
                start = len(cols)
                for n, a, b in zip(ns[:count], i, j):
                    assert a < P and prev + b < start  # filled earlier
                    assert cols[a] * cols[prev + b] == n
                    cols.append(n)
                prev = start
            # with n = 1 the constant term, every n < cut exactly once
            assert sorted(cols) == list(range(2, cut))

    @pytest.mark.parametrize("size", [1, 2, 511, 513, 2000])
    def test_value_independent_of_the_array(self, size):
        # a point's block, and so its cutoff N, depends on the rest of
        # the array; right of the strip the value does not
        rng = np.random.default_rng(size)
        pts = rng.uniform(1.5, 4.0, size) + 1j * rng.uniform(-3000, 3000,
                                                            size)
        pts[: size // 3] = pts[: size // 3].real  # a run on the real axis
        rng.shuffle(pts)
        got = zeta_line(pts)
        for s, v in zip(pts, got):
            want = zeta_line(complex(s))
            assert abs(v - want) <= 1e-14 * abs(want)

    def test_bernoulli_table_is_exact(self):
        # B_m from sum_{j<=m} C(m+1, j) B_j = 0, then B_2k / (2k)!
        bern = [Fraction(1)]
        for m in range(1, 2 * len(fourier._BERNOULLI) + 1):
            bern.append(-sum(math.comb(m + 1, j) * bern[j]
                             for j in range(m)) / (m + 1))
        exact = [float(bern[2 * k] / math.factorial(2 * k))
                 for k in range(1, len(fourier._BERNOULLI) + 1)]
        assert fourier._BERNOULLI == tuple(exact)

    def test_block_stays_within_the_entry_budget(self):
        # unblocked, 64 points at |Im s| = 1e5 would take 64 x N complex
        # terms (N = 31,844), 32 MiB
        pts = 1.5 + 1j * (1e5 - np.arange(64.0))
        blocks = list(fourier._zeta_blocks(np.sort(np.abs(pts.imag))))
        assert blocks[-1][2] == math.ceil((1e5 + 40) / math.pi)
        assert all((hi - lo) * n <= fourier._BLOCK_ENTRIES
                   for lo, hi, n in blocks)
        assert sum(hi - lo for lo, hi, _ in blocks) == 64
        tracemalloc.start()
        try:
            zeta_line(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * fourier._BLOCK_ENTRIES

    def test_array_shape(self):
        arr = zeta_line(np.array([2 + 0j, 2 + 5j]))
        assert arr.shape == (2,)
        assert isinstance(zeta_line(2.5), complex)

    def test_domain_guards(self):
        with pytest.raises(FourierError):
            zeta_line(0.01 + 5j)
        with pytest.raises(FourierError):
            zeta_line(np.array([2 + 0j, -0.8 + 2j]))
        with pytest.raises(FourierError):
            zeta_line(1.0 + 1e-12j)


class TestPoisson:
    @pytest.mark.parametrize("fan", [P1, P1XP1], ids=["p1", "p1xp1"])
    @pytest.mark.parametrize("kw, message", [
        ({"T": 0.0}, "T = 0.0"), ({"T": -1.0}, "T = -1.0"),
        ({"panel_width": 0.0}, "panel width = 0.0"),
        ({"B0": -5.0}, "B0 = -5.0 must be positive"),
        ({"B0": 0.0}, "B0 = 0.0 must be positive"),
        ({"pmax": 0}, "pmax = 0 must be at least 2"),
        ({"pmax": 1}, "pmax = 1 must be at least 2"),
        # every fit grid ends at 4 B0 = 0.004: no point, lhs = 0
        ({"B0": 0.001, "T": 50.0},
         "B0 = 0.001 leaves every direct sum empty: the largest bound of "
         "the fit grid, 4 B0 = 0.004, is below 1"),
    ], ids=["T-zero", "T-negative", "width-zero", "B0-negative", "B0-zero",
            "pmax-zero", "pmax-one", "B0-no-point"])
    def test_rejects_nonpositive_widths(self, monkeypatch, fan, kw, message):
        # refused before the direct sums run
        def never(*args):
            raise AssertionError("direct sums ran")

        monkeypatch.setattr(fourier, "_zeta_partials", never)
        with pytest.raises(FourierError, match=message):
            poisson_check(fan, **kw)

    def test_p1_identity(self):
        rep = poisson_check(P1)
        assert rep.rel_error < 1e-4
        assert rep.imag_residual < 1e-10
        assert rep.tail_correction == pytest.approx(0.00127, abs=2e-4)
        assert rep.lhs == pytest.approx(2.4425061413, abs=5e-5)

    def test_p1xp1_factorizes(self):
        rep = poisson_check(P1XP1)
        assert rep.rel_error < 1e-4
        assert len(rep.factors) == 2
        assert rep.rhs == pytest.approx(rep.factors[0].rhs * rep.factors[1].rhs)
        assert rep.lhs == pytest.approx(2.4425061413**2, rel=1e-4)

    @pytest.mark.parametrize("lam", [(2.0, 3.0, 2.0, 3.0),
                                     (2.0, 3.0, 2.5, 4.0)],
                             ids=["per-factor-lambda", "per-ray-lambda"])
    def test_p1xp1_in_any_basis_and_order(self, lam):
        # rays A v_order[m], A in GL_2(Z) with a shear and a sign, in all
        # 24 labellings: the direct sums equal builtin p1xp1's bit for
        # bit, and so does the integral where each factor's two rays
        # carry one lambda; otherwise which of the two rays a labelling
        # names first only reorders the integral's rounding
        A = ((1, 2), (0, -1))
        kw = {"T": 400.0, "B0": 700.0}
        want = poisson_check(P1XP1, lam, **kw)
        for order in itertools.permutations(range(4)):
            rays = [tuple(sum(a * x for a, x in zip(row, P1XP1.rays[o]))
                          for row in A) for o in order]
            where = {o: m for m, o in enumerate(order)}
            fan = make_fan(2, rays, [[where[j] for j in cone]
                                     for cone in P1XP1.max_cones])
            got = poisson_check(fan, tuple(lam[o] for o in order), **kw)
            assert got.lhs_partials == want.lhs_partials
            assert got.lhs == want.lhs
            if lam[0] == lam[2] and lam[1] == lam[3]:
                assert (got.rhs, got.rel_error) == (want.rhs, want.rel_error)
            else:
                assert got.rhs == pytest.approx(want.rhs, rel=1e-14)

    @pytest.mark.parametrize("lam,lines", [(None, 1), ((2, 3, 2.5, 2), 2)])
    def test_product_evaluates_each_lambda_pair_once(self, monkeypatch, lam,
                                                     lines):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return _poisson_line(*args)

        monkeypatch.setattr(fourier, "_poisson_line", counted)
        rep = poisson_check(P1XP1, lam=lam, T=100.0, pmax=100, B0=100.0)
        assert len(calls) == lines
        assert [f.fan_name for f in rep.factors] == ["p1xp1[0]", "p1xp1[1]"]
        # the second factor, copied or not, equals a line computed afresh
        sub = make_fan(1, [[1], [-1]], [[0], [1]], name="p1xp1[1]")
        assert rep.factors[1] == _poisson_line(sub, rep.factors[1].lam,
                                               100.0, 100, 100.0, 4.0)

    def test_tail_closed_form_against_quadrature(self):
        # int_T^inf Re(1/(la+it) + 1/(lb-it)) dt = atan(la/T) + atan(lb/T)
        for la in (1.01, 1.5, 2.0, 3.7, 6.0):
            for lb in (1.01, 2.0, 4.5, 6.0):
                for T in (10.0, 97.0, 600.0, 2000.0):
                    val, _ = quad(
                        lambda t: (1.0 / (la + 1j * t)
                                   + 1.0 / (lb - 1j * t)).real,
                        T, np.inf, epsabs=0.0, epsrel=1e-13)
                    closed = math.atan(la / T) + math.atan(lb / T)
                    assert closed == pytest.approx(val, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lam", [(2.0, 2.0), (1.5, 3.0), (3.0, 1.25)])
    def test_tail_correction_is_closed_form(self, lam):
        T, pmax = 150.0, 100
        rep = poisson_check(P1, lam=lam, T=T, pmax=pmax, B0=100.0)
        la = lam[P1.rays.index((1,))]
        lb = lam[P1.rays.index((-1,))]
        mean_f = (cf_extract(P1, lam, pmax) * zeta_line(la + lb).real).real
        expected = (4.0 * mean_f * (math.atan(la / T) + math.atan(lb / T))
                    / (2 * math.pi))
        assert rep.tail_correction == pytest.approx(expected, rel=1e-12,
                                                    abs=0.0)

    def test_unsupported_fan_rejected(self):
        with pytest.raises(FourierError):
            poisson_check(P2)
        with pytest.raises(FourierError):
            poisson_check(F1)

    def test_lambda_validation(self):
        with pytest.raises(FourierError):
            poisson_check(P1, lam=(1.0, 2.0))
        with pytest.raises(FourierError):
            poisson_check(P1, lam=(2.0, 2.0, 2.0))


def test_gauss_panels_refuses_an_oversized_rule():
    # the Poisson and Perron rules both come from _gauss_panels: a rule of
    # _MAX_NODES nodes is built, one panel more is refused
    m, w = fourier._gauss_panels(1.0, fourier._MAX_NODES // 16 + 1, 16)
    assert m.size == w.size == fourier._MAX_NODES
    with pytest.raises(FourierError, match=r"^a quadrature rule of 1000016 "
                       r"nodes on \[0, 1.0\] is over the limit of 1000000$"):
        fourier._gauss_panels(1.0, fourier._MAX_NODES // 16 + 2, 16)


def test_rademacher_sweep_stays_tame():
    rows = rademacher_sweep(P1, pmax=200)
    ts = [t for t, _ in rows]
    vals = [v for _, v in rows]
    assert ts[0] == 0.0
    assert all(math.isfinite(v) for v in vals)
    assert max(vals) < 10.0
    # no systematic growth: the last sample is within a generous polynomial
    # envelope of the first
    assert vals[-1] <= vals[0] * (1 + ts[-1])
