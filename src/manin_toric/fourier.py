"""Fourier transforms of toric heights and the Poisson summation identity.

The height zeta function Z(lam) = sum over rational torus points of
H(lam, x)^-1 can be computed two independent ways: direct summation, or
Poisson summation over the adelic torus, which turns the sum into
(2*pi)^-d times an integral of the product of local transforms over the
unramified character line m in R^d.  `poisson_check` runs both routes.

Local transforms are closed forms.  At the archimedean place the
transform of exp(-phi_lam) is a sum over maximal cones of products
1/(lam_j + i<e_j, m>).  At a finite place the lattice sum over N
decomposes by relative interior of cones into geometric series.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .counting import _cox_shape, _zeta_partials
from .latticefan import Fan
from .primes import primes_up_to

__all__ = [
    "FourierError",
    "arch_transform",
    "finite_transform",
    "cf_extract",
    "zeta_line",
    "rademacher_sweep",
    "PoissonReport",
    "poisson_check",
]


class FourierError(ValueError):
    pass


def _lam_complex(fan: Fan, lam, min_re: float = 0.0) -> tuple[complex, ...]:
    vals = tuple(complex(v) for v in lam)
    if len(vals) != len(fan.rays):
        raise FourierError("one lambda value per ray required")
    if any(v.real <= min_re for v in vals):
        raise FourierError(f"Re(lambda_j) > {min_re} required on every ray")
    return vals


def _m_vector(fan: Fan, m) -> tuple[float, ...]:
    if m is None:
        return (0.0,) * fan.dim
    vec = tuple(float(c) for c in m)
    if len(vec) != fan.dim:
        raise FourierError("spectral parameter m must have one entry per axis")
    return vec


def arch_transform(fan: Fan, lam, m) -> complex:
    """Integral of exp(-phi_lam(v) - i<v,m>) over R^d, as a cone sum.

    Each maximal cone is unimodular, so the integral over it splits into
    one-dimensional exponentials along the ray generators.
    """
    lam_c = _lam_complex(fan, lam)
    mv = _m_vector(fan, m)
    total = 0j
    for cone in fan.max_cones:
        prod = 1.0 + 0j
        for j in cone:
            denom = lam_c[j] + 1j * sum(a * b for a, b in zip(fan.rays[j], mv))
            if denom == 0:
                raise FourierError("vanishing denominator in cone product")
            prod /= denom
        total += prod
    return total


def finite_transform(fan: Fan, lam, p: int, m=None) -> complex:
    """Lattice sum over N of p^(-phi_lam(n) - i<m,n>), in closed form.

    Every lattice point lies in the relative interior of exactly one cone;
    over the interior of a cone spanned by e_j the sum is a product of
    geometric series u_j/(1-u_j) with u_j = p^(-lam_j - i<m,e_j>).  The
    zero cone contributes 1.
    """
    lam_c = _lam_complex(fan, lam)
    mv = _m_vector(fan, m)
    logp = math.log(p)
    u = []
    for j, ray in enumerate(fan.rays):
        expo = lam_c[j] + 1j * sum(a * b for a, b in zip(ray, mv))
        u.append(cmath.exp(-expo * logp))
    total = 0j
    for cones in fan.cones_by_dim.values():
        for cone in cones:
            prod = 1.0 + 0j
            for j in cone:
                prod *= u[j] / (1 - u[j])
            total += prod
    return total


def _check_pmax(pmax: int) -> None:
    if pmax < 2:
        raise FourierError(f"pmax = {pmax} must be at least 2: no prime "
                           "below it to take the Euler product over")


def cf_extract(fan: Fan, lam, pmax: int, m=None) -> complex:
    """Truncated correction factor of the finite transform.

    The finite transform behaves like a product of zeta factors, one per
    ray; stripping them leaves a rapidly convergent Euler product.  Each
    p-factor here is finite_transform(p) times prod_j (1 - u_j).
    """
    lam_c = _lam_complex(fan, lam, min_re=2.0 / 3.0)
    mv = _m_vector(fan, m)
    _check_pmax(pmax)
    half = max(2, pmax // 2)
    value = 1.0 + 0j
    at_half = 1.0 + 0j
    for p in primes_up_to(pmax):
        p = int(p)
        logp = math.log(p)
        factor = finite_transform(fan, lam_c, p, mv)
        for j, ray in enumerate(fan.rays):
            expo = lam_c[j] + 1j * sum(a * b for a, b in zip(ray, mv))
            factor *= 1 - cmath.exp(-expo * logp)
        value *= factor
        if p <= half:
            at_half = value
    if abs(value - at_half) > 0.05 * (1 + abs(value)):
        raise FourierError(
            "truncation insufficient: partial products have not stabilized"
        )
    return value


# B_2k / (2k)! for k = 1..20, the Euler-Maclaurin correction coefficients
# of zeta_line (rounded from the exact rationals; a test rebuilds them)
_BERNOULLI = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32,
)
# a block of zeta_line holds at most this many rows and rows x N entries,
# and fills its composite columns in chunks of _BLOCK_ENTRIES // 256
_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 1 << 19


def _zeta_blocks(t):
    """(lo, hi, N) blocks over ascending |Im s| values t.

    Each block has at most _BLOCK_ROWS rows and, unless one row alone
    needs more, at most _BLOCK_ENTRIES rows x N entries; N is the
    Euler-Maclaurin cutoff of its last, largest row.
    """
    cut = np.maximum(16, np.ceil((t + 2 * len(_BERNOULLI)) / math.pi)
                     ).astype(np.int64)
    lo = 0
    while lo < t.size:
        hi = min(lo + _BLOCK_ROWS, t.size)
        if (hi - lo) * cut[hi - 1] > _BLOCK_ENTRIES:
            hi = lo + max(1, _BLOCK_ENTRIES // int(cut[hi - 1]))
        yield lo, hi, int(cut[hi - 1])
        lo = hi


def _factor_plan(N: int):
    """The columns of zeta_line's blocks for 1 < n < N, by Omega(n).

    Returns the primes below N, their logs and, for Omega = 2, 3, ...,
    one layer (n, i, j): its n ascending, the rank i of spf(n) among the
    primes and the rank j of n / spf(n) in the layer before, spf the
    smallest prime factor.  A block with a cutoff below N takes a prefix
    of each.  The plan is built on lists: numpy routines that nothing
    else in a call runs would map in more of numpy's code, which counts
    in the process's resident memory.
    """
    spf = list(range(N))
    for p in range(math.isqrt(N - 1), 1, -1):  # the least p writes last
        spf[p * p::p] = [p] * len(range(p * p, N, p))
    omega = [0] * N
    rank = [0] * N  # of n in its own layer
    primes, layers = [], []
    for n in range(2, N):
        p = spf[n]
        if p == n:
            omega[n], rank[n] = 1, len(primes)
            primes.append(n)
            continue
        m = n // p
        k = omega[n] = omega[m] + 1
        if k - 1 > len(layers):
            layers.append(([], [], []))
        ns, i, j = layers[k - 2]
        rank[n] = len(ns)
        ns.append(n)
        i.append(rank[p])
        j.append(rank[m])
    primes = np.array(primes)
    return (primes, np.log(primes),
            [tuple(map(np.array, layer)) for layer in layers])


def _dirichlet_block(b, N: int, plan):
    """sum_{n<N} n^-b over one block's points b.

    Column n of the (N - 2, rows) block holds n^-b.  Complex exponentials
    are taken at the primes, which lead, and each later layer's column n
    is the product of its columns spf(n) and n / spf(n), in chunks of at
    most _BLOCK_ENTRIES // 256 entries.  The block dies with the call.
    """
    primes, logp, layers = plan
    P = bisect_left(primes, N)
    counts = [bisect_left(ns, N) for ns, _, _ in layers]
    cols = np.empty((P + sum(counts), b.size), dtype=complex)
    np.multiply.outer(logp[:P], -b, out=cols[:P])
    np.exp(cols[:P], out=cols[:P])
    step = max(1, _BLOCK_ENTRIES // 256 // b.size)
    prev, start = 0, P  # first columns of the layer before and this one
    for (_, i, j), count in zip(layers, counts):
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            np.multiply(cols[i[lo:hi]], cols[j[lo:hi] + prev],
                        out=cols[start + lo:start + hi])
        prev, start = start, start + count
    return 1 + cols.sum(axis=0)


def zeta_line(s):
    """Riemann zeta on vertical segments, vectorized over numpy arrays.

    Euler-Maclaurin summation (Edwards, Riemann's Zeta Function, 6.4):
    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1..K} B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1)
    with K = 20 correction terms.  The points are sorted by |Im s| and
    taken in blocks, and a block whose largest |Im s| is t uses the cutoff
    N = max(16, ceil((t + 2K)/pi)).  Every factor |s + j| of the
    correction terms is then at most about pi N, so the k-th term is at
    most about N^(1-Re s) 2^(1-2k)/pi, and the remainder is at most
    |s + 2K + 1|/(Re s + 2K + 1) times the first omitted term.

    n^-s is completely multiplicative, so a block takes complex
    exponentials only at the primes below N and fills each composite n as
    spf(n)^-s (n/spf(n))^-s, spf the smallest prime factor, in order of
    Omega(n); one factor plan serves every block of a call.  The rounding
    of t log p then enters each term once per prime factor, and dominates
    the error: against 30-digit mpmath for |Im s| <= 3000 it is below
    2e-13 |zeta(s)| for Re s >= 1.5 and 2e-11 max(1, |zeta(s)|) down to
    Re s = 0.25, and at |Im s| = 1e5 it grows to a few 1e-11 max(1,
    |zeta(s)|).  A block holds at most 512 points and 2^19 complex terms
    (8 MiB), so memory stays flat however large the array or |Im s|.  The
    expansion continues zeta through the strip, so any Re s > 0.05 away
    from the pole at s = 1 is fine.
    """
    scalar = np.isscalar(s)
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(arr.real <= 0.05):
        raise FourierError("zeta_line requires Re s > 0.05")
    if np.any(np.abs(arr - 1) < 1e-9):
        raise FourierError("zeta_line: s too close to the pole at 1")
    order = np.argsort(np.abs(arr.imag), kind="stable")
    b = arr[order]
    blocks = list(_zeta_blocks(np.abs(b.imag)))
    cuts = [n for _, _, n in blocks]
    sizes = [hi - lo for lo, hi, _ in blocks]
    # one plan for the last, largest cutoff serves every block
    plan = _factor_plan(cuts[-1]) if cuts else None
    val = np.empty_like(b)
    for lo, hi, n in blocks:
        val[lo:hi] = _dirichlet_block(b[lo:hi], n, plan)
    # the tail at each point's own cutoff N, over all blocks at once
    N = np.repeat(np.array(cuts, dtype=float), sizes)
    Ns = np.exp(-b * np.repeat([math.log(n) for n in cuts], sizes))
    val += Ns * N / (b - 1) + Ns / 2
    # term = s(s+1)...(s+2k-2) N^(-s-2k+1), updated by its ratio
    term = b * Ns / N
    for k, coeff in enumerate(_BERNOULLI, start=1):
        val += coeff * term
        term *= (b + 2 * k - 1) * (b + 2 * k) / (N * N)
    out = np.empty_like(arr)
    out[order] = val
    return complex(out[0]) if scalar else out


def rademacher_sweep(fan: Fan, sigma: float = 0.95,
                     t_values=(0.0, 2.0, 5.0, 10.0, 20.0, 50.0),
                     pmax: int = 300):
    """Growth of the regularized truncated finite transform along Im lam.

    At lam_j = sigma + i*t the product over p <= pmax of the local
    transforms, regularized by prod_j (lam_j - 1)/lam_j, should grow
    slowly in t.  Returns (t, magnitude) rows; a diagnostic sweep, not a
    proved bound.
    """
    primes = [int(p) for p in primes_up_to(pmax)]
    rows = []
    for t in t_values:
        lam = tuple(complex(sigma, t) for _ in fan.rays)
        reg = 1.0 + 0j
        for v in lam:
            reg *= (v - 1) / v
        val = reg
        for p in primes:
            val *= finite_transform(fan, lam, p)
        rows.append((float(t), abs(val)))
    return rows


class PoissonReport(NamedTuple):
    fan_name: str
    lam: tuple
    lhs: float
    rhs: float
    rel_error: float
    imag_residual: float
    tail_correction: float
    T: float
    pmax: int
    B_grid: tuple
    lhs_partials: tuple
    factors: tuple = ()

    def summary(self) -> str:
        return (
            f"{self.fan_name}: direct={self.lhs:.8f} "
            f"poisson={self.rhs:.8f} rel={self.rel_error:.2e}"
        )


def _wsum(w, v) -> float:
    """sum_i w_i v_i by numpy's pairwise sum, never through BLAS.

    np.dot hands a float vector of more than 10^4 entries to OpenBLAS's
    thread pool, whose rounding follows the thread count and whose
    hand-off costs milliseconds a call.  A sum whose length an input
    sets goes through here, so its bits do not depend on the BLAS
    threads.
    """
    return float(np.add.reduce(w * v))


# most nodes a quadrature rule of _gauss_panels may have; the Perron
# rule of tauberian.perron_phi_k at T = 1000 has 51,576
_MAX_NODES = 10 ** 6


def _check_rule(T: float, edges: int, order: int) -> None:
    """Refuse a rule of _gauss_panels of more than _MAX_NODES nodes."""
    if (edges - 1) * order > _MAX_NODES:
        raise FourierError(
            f"a quadrature rule of {(edges - 1) * order} nodes on [0, {T}] "
            f"is over the limit of {_MAX_NODES}")


def _gauss_panels(T: float, edges: int, order: int):
    """Order-point Gauss-Legendre on the edges - 1 equal panels of [0, T];
    a rule of more than _MAX_NODES nodes is refused before any
    allocation."""
    _check_rule(T, edges, order)
    nodes, wts = np.polynomial.legendre.leggauss(order)
    edge = np.linspace(0.0, T, edges)
    mid = (edge[:-1] + edge[1:]) / 2
    half = (edge[1:] - edge[:-1]) / 2
    m = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * wts[None, :]).ravel()
    return m, w


def _extrapolate_direct(fan: Fan, lam, B0: float, n_terms: int):
    """Fit S(B) = L - B^(1-smin) * poly(log B) through partial sums.
    Returns L, the bounds and the sums."""
    smin = min(float(v) for v in lam)
    Bs = [B0 * 4.0**k for k in range(n_terms + 1)]
    partials = _zeta_partials(fan, lam, Bs)[1]
    Ss = [z.value.real for z in partials]
    rows = []
    for B in Bs:
        decay = B ** (1.0 - smin)
        rows.append([1.0] + [-decay * math.log(B) ** k for k in range(n_terms)])
    sol = np.linalg.solve(np.array(rows), np.array(Ss))
    return float(sol[0]), tuple(Bs), tuple(Ss)


def _poisson_line(fan: Fan, lam, T: float, pmax: int, B0: float,
                  panel_width: float) -> PoissonReport:
    plus = fan.rays.index((1,))   # fan is P^1: rays +1 and -1
    la = float(lam[plus])
    lb = float(lam[1 - plus])

    lhs, Bs, Ss = _extrapolate_direct(fan, lam, B0, 1)

    cf0 = cf_extract(fan, lam, pmax)
    m, w = _gauss_panels(T, max(2, int(round(T / panel_width)) + 1), 16)
    arch = 1.0 / (la + 1j * m) + 1.0 / (lb - 1j * m)
    za = zeta_line(la + 1j * m)
    # zeta(lb - i m) = conj(zeta(lb + i m)), real coefficients
    zb = np.conj(za if lb == la else zeta_line(lb + 1j * m))
    integrand = 2.0 * arch * cf0 * za * zb
    main = 2.0 * _wsum(w, integrand.real)

    # Beyond T the zeta product averages to zeta(la+lb) over long windows
    # (diagonal terms of the double Dirichlet series); the oscillatory
    # remainder integrates to O(1/T^2).  The archimedean factor left over
    # integrates in closed form: int_T^inf Re(1/(la+it) + 1/(lb-it)) dt
    # = atan(la/T) + atan(lb/T), for la, lb > 0.
    zs = float(zeta_line(la + lb).real)
    mean_f = (cf0 * zs).real
    tail = 4.0 * mean_f * (math.atan(la / T) + math.atan(lb / T))

    # conjugate-symmetry residual: evaluate both half-lines on a coarse
    # grid without assuming symmetry
    Tc = min(T, 200.0)
    mc, wc = _gauss_panels(Tc, max(2, int(round(Tc / 25.0)) + 1), 8)
    def raw(mm):
        a = 1.0 / (la + 1j * mm) + 1.0 / (lb - 1j * mm)
        return 2.0 * a * cf0 * zeta_line(la + 1j * mm) * zeta_line(lb - 1j * mm)
    imag_residual = abs(float(np.dot(wc, raw(mc).imag) + np.dot(wc, raw(-mc).imag)))

    rhs = (main + tail) / (2 * math.pi)
    rel = abs(lhs - rhs) / abs(lhs)
    return PoissonReport(
        fan_name=fan.name or "d1",
        lam=tuple(float(v) for v in lam),
        lhs=lhs,
        rhs=rhs,
        rel_error=rel,
        imag_residual=imag_residual,
        tail_correction=tail / (2 * math.pi),
        T=T,
        pmax=pmax,
        B_grid=Bs,
        lhs_partials=Ss,
    )


def poisson_check(fan: Fan, lam=None, T: float = 2000.0, pmax: int = 400,
                  B0: float = 2500.0, panel_width: float = 4.0) -> PoissonReport:
    """Compare direct height-zeta summation with the Poisson integral.

    Supported at desk scale: P^1, and P^1 x P^1 in any basis and ray
    order, as _cox_shape recognizes it (the integral side factors
    exactly; the direct side is still summed on the product).  lam
    defaults to 2*rho; real lam with every entry > 1 is required so both
    routes converge.
    """
    if lam is None:
        lam = (2.0,) * len(fan.rays)
    lam = tuple(float(v) for v in lam)
    if len(lam) != len(fan.rays):
        raise FourierError("one lambda value per ray required")
    if min(lam) <= 1.0:
        raise FourierError("poisson_check needs real lambda_j > 1")
    for name, v in (("T", T), ("panel width", panel_width), ("B0", B0)):
        if not v > 0:
            raise FourierError(f"{name} = {v} must be positive")
    _check_pmax(pmax)  # before the direct sums run
    # every fit grid, the product's and its factors', ends at 4 B0
    if B0 * 4.0 < 1:
        raise FourierError(
            f"B0 = {B0} leaves every direct sum empty: the largest bound "
            f"of the fit grid, 4 B0 = {B0 * 4.0}, is below 1")

    shape = _cox_shape(fan)
    if shape == ("P", 1):
        return _poisson_line(fan, lam, T, pmax, B0, panel_width)
    if shape is None or shape[:2] != ("F", 0):
        raise FourierError("poisson_check supports P^1 and P^1 x P^1")
    from .latticefan import make_fan

    a, b, c, e = shape[2]
    factors = []
    for axis, (jp, jm) in enumerate(((b, e), (a, c))):
        name = f"{fan.name or 'product'}[{axis}]"
        pair = (lam[jp], lam[jm])
        if factors and factors[0].lam == pair:
            # the same lambda pair gives the same factor, up to its name
            factors.append(factors[0]._replace(fan_name=name))
            continue
        sub = make_fan(1, [[1], [-1]], [[0], [1]], name=name)
        factors.append(_poisson_line(sub, pair, T, pmax, B0, panel_width))
    lhs, Bs, Ss = _extrapolate_direct(fan, lam, B0 / 4.0, 2)
    rhs = factors[0].rhs * factors[1].rhs
    rel = abs(lhs - rhs) / abs(lhs)
    return PoissonReport(
        fan_name=fan.name or "product",
        lam=lam,
        lhs=lhs,
        rhs=rhs,
        rel_error=rel,
        imag_residual=max(f.imag_residual for f in factors),
        tail_correction=max(f.tail_correction for f in factors),
        T=T,
        pmax=pmax,
        B_grid=Bs,
        lhs_partials=Ss,
        factors=tuple(factors),
    )
