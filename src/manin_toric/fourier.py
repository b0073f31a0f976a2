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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .counting import _zeta_partials
from .latticefan import Fan
from .primes import primes_up_to

__all__ = [
    "FourierError",
    "TransformValue",
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


@dataclass(frozen=True)
class TransformValue:
    """One local transform evaluation: place, parameters, value."""

    place: str
    lam: tuple
    m: tuple
    value: complex


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


def cf_extract(fan: Fan, lam, pmax: int, m=None) -> complex:
    """Truncated correction factor of the finite transform.

    The finite transform behaves like a product of zeta factors, one per
    ray; stripping them leaves a rapidly convergent Euler product.  Each
    p-factor here is finite_transform(p) times prod_j (1 - u_j).
    """
    lam_c = _lam_complex(fan, lam, min_re=2.0 / 3.0)
    mv = _m_vector(fan, m)
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


# Euler-Maclaurin correction: pairs (B_2k, 2k)
_BERNOULLI = ((1 / 6, 2), (-1 / 30, 4), (1 / 42, 6), (-1 / 30, 8))


def zeta_line(s):
    """Riemann zeta on vertical segments, vectorized over numpy arrays.

    Euler-Maclaurin with cutoff N past the largest |Im s|, so accuracy is
    uniform along vertical segments; relative error is near 1e-12 for
    |Im s| up to a few thousand.  The expansion continues zeta through
    the strip, so any Re s > 0.05 away from the pole at s = 1 is fine.
    """
    scalar = np.isscalar(s)
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(arr.real <= 0.05):
        raise FourierError("zeta_line requires Re s > 0.05")
    if np.any(np.abs(arr - 1) < 1e-9):
        raise FourierError("zeta_line: s too close to the pole at 1")
    tmax = float(np.max(np.abs(arr.imag)))
    N = max(64, int(tmax) + 16)
    out = np.zeros_like(arr)
    ln = np.log(np.arange(1, N, dtype=float))
    for lo in range(0, arr.size, 512):
        block = arr[lo : lo + 512, None]
        out[lo : lo + 512] = np.exp(-block * ln[None, :]).sum(axis=1)
    Ns = np.exp(-arr * math.log(N))
    out += Ns * N / (arr - 1) + Ns / 2
    rising = arr.copy()
    term = Ns / N
    for b2k, k2 in _BERNOULLI:
        out += (b2k / math.factorial(k2)) * rising * term
        rising = rising * (arr + k2 - 1) * (arr + k2)
        term = term / (N * N)
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


@dataclass
class PoissonReport:
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


def _gauss_panels(T: float, width: float, order: int = 16):
    nodes, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, T, max(2, int(round(T / width)) + 1))
    mid = (edges[:-1] + edges[1:]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    m = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * wts[None, :]).ravel()
    return m, w


def _extrapolate_direct(fan: Fan, lam, B0: float, n_terms: int):
    """Fit S(B) = L - B^(1-smin) * poly(log B) through partial sums."""
    smin = min(float(v) for v in lam)
    Bs = [B0 * 4.0**k for k in range(n_terms + 1)]
    Ss = [z.value.real for z in _zeta_partials(fan, lam, Bs)]
    rows = []
    for B in Bs:
        decay = B ** (1.0 - smin)
        rows.append([1.0] + [-decay * math.log(B) ** k for k in range(n_terms)])
    sol = np.linalg.solve(np.array(rows), np.array(Ss))
    return float(sol[0]), tuple(Bs), tuple(Ss)


def _poisson_line(fan: Fan, lam, T: float, pmax: int, B0: float,
                  panel_width: float) -> PoissonReport:
    plus = [j for j, r in enumerate(fan.rays) if r == (1,)]
    minus = [j for j, r in enumerate(fan.rays) if r == (-1,)]
    if len(plus) != 1 or len(minus) != 1:
        raise FourierError("one-dimensional check needs rays +1 and -1")
    la = float(lam[plus[0]])
    lb = float(lam[minus[0]])

    lhs, Bs, Ss = _extrapolate_direct(fan, lam, B0, 1)

    cf0 = cf_extract(fan, lam, pmax)
    m, w = _gauss_panels(T, panel_width)
    arch = 1.0 / (la + 1j * m) + 1.0 / (lb - 1j * m)
    za = zeta_line(la + 1j * m)
    zb = np.conj(zeta_line(lb + 1j * m))  # zeta(lb - i m), real coefficients
    integrand = 2.0 * arch * cf0 * za * zb
    main = 2.0 * float(np.dot(w, integrand.real))

    # Beyond T the zeta product averages to zeta(la+lb) over long windows
    # (diagonal terms of the double Dirichlet series); the oscillatory
    # remainder integrates to O(1/T^2).
    zs = float(zeta_line(la + lb).real)
    mean_f = (cf0 * zs).real
    tail = 2.0 * quad(
        lambda t: (1.0 / (la + 1j * t) + 1.0 / (lb - 1j * t)).real,
        T,
        np.inf,
    )[0] * 2.0 * mean_f

    # conjugate-symmetry residual: evaluate both half-lines on a coarse
    # grid without assuming symmetry
    mc, wc = _gauss_panels(min(T, 200.0), 25.0, order=8)
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


def _split_product(fan: Fan):
    """Axis split of a product of two one-dimensional fans, or None."""
    if fan.dim != 2 or len(fan.rays) != 4 or len(fan.max_cones) != 4:
        return None
    axes: dict[tuple[int, int], int] = {}
    for j, ray in enumerate(fan.rays):
        if sorted(map(abs, ray)) != [0, 1]:
            return None
        axes[tuple(ray)] = j
    needed = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if set(axes) != set(needed):
        return None
    return (axes[(1, 0)], axes[(-1, 0)]), (axes[(0, 1)], axes[(0, -1)])


def poisson_check(fan: Fan, lam=None, T: float = 2000.0, pmax: int = 400,
                  B0: float = 2500.0, panel_width: float = 4.0) -> PoissonReport:
    """Compare direct height-zeta summation with the Poisson integral.

    Supported at desk scale: one-dimensional fans, and products of two
    one-dimensional fans (the integral side factors exactly; the direct
    side is still summed on the product).  lam defaults to 2*rho; real
    lam with every entry > 1 is required so both routes converge.
    """
    if lam is None:
        lam = (2.0,) * len(fan.rays)
    lam = tuple(float(v) for v in lam)
    if len(lam) != len(fan.rays):
        raise FourierError("one lambda value per ray required")
    if min(lam) <= 1.0:
        raise FourierError("poisson_check needs real lambda_j > 1")

    if fan.dim == 1:
        return _poisson_line(fan, lam, T, pmax, B0, panel_width)

    split = _split_product(fan)
    if split is None:
        raise FourierError(
            "poisson_check supports d=1 fans and products of two d=1 fans"
        )
    from .latticefan import make_fan

    factors = []
    for axis, (jp, jm) in enumerate(split):
        sub = make_fan(1, [[1], [-1]], [[0], [1]], name=f"{fan.name or 'product'}[{axis}]")
        factors.append(
            _poisson_line(sub, (lam[jp], lam[jm]), T, pmax, B0, panel_width)
        )
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
