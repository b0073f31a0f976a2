"""Arithmetic invariants of a complete regular fan.

The Picard lattice read off one unimodular maximal cone, the alpha
constant as the characteristic function of the effective cone in it,
cell point counts over F_p, the archimedean anticanonical volume, and
the Tamagawa number as a truncated Euler product with an exact tail
interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cones import PolyhedralCone, char_function, make_cone
from .latticefan import Fan, PLFunction
from .primes import primes_up_to


class PicardError(ValueError):
    pass


class PicardData(NamedTuple):
    """Pic = Z^J / M with the classes of the rays outside the first
    maximal cone as its basis.

    projection maps Z^J onto Z^rank with kernel M (rows indexed by the
    basis), and divisor_classes[j] is the class of the j-th ray divisor.
    """

    fan: Fan
    rank: int
    projection: tuple          # rank rows of length J
    anticanonical: tuple       # class of (1,...,1)
    divisor_classes: tuple     # J classes, columns of projection
    effective_cone: PolyhedralCone

    def project(self, vec) -> tuple:
        return tuple(sum(row[j] * vec[j] for j in range(len(vec)))
                     for row in self.projection)


def picard_data(fan: Fan) -> PicardData:
    """Pic(X) read off the first maximal cone sigma (Fulton, Introduction
    to Toric Varieties, 3.4).

    The rows u_i of sigma's inverse are the dual basis of its rays, so
    div(x^(u_i)) = D_(sigma_i) + sum_(k not in sigma) <u_i, e_k> D_k and
    [D_(sigma_i)] = -sum_(k not in sigma) <u_i, e_k> [D_k].  The
    projection is the identity on the rays outside sigma and
    -<u_i, e_k> on sigma's rays; its kernel is M.
    """
    d = fan.dim
    cone, inv = fan.max_cones[0], fan.cone_inverses[0]
    J = len(fan.rays)
    projection = []
    for k in range(J):
        if k in cone:
            continue
        row = [int(j == k) for j in range(J)]
        for u, j in zip(inv, cone):
            row[j] = -sum(a * b for a, b in zip(u, fan.rays[k]))
        projection.append(tuple(row))
    projection = tuple(projection)
    anticanonical = tuple(sum(row) for row in projection)
    classes = tuple(tuple(row[j] for row in projection) for j in range(J))
    seen = list(dict.fromkeys(classes))
    eff = make_cone(seen, J - d)
    return PicardData(fan=fan, rank=J - d, projection=projection,
                      anticanonical=anticanonical, divisor_classes=classes,
                      effective_cone=eff)


def alpha_constant(fan: Fan) -> Fraction:
    """X_{Lambda_eff}(-K): the effective-cone characteristic function
    at the anticanonical class, with the quotient lattice measure.

    The projection of picard_data maps Z^J onto Z^rank with kernel M,
    so the quotient lattice measure is the standard one on Z^rank.
    """
    pic = picard_data(fan)
    form = char_function(pic.effective_cone)
    # every extreme ray of the dual cone is a linear factor of some
    # term, so -K is strictly interior exactly when all factors are
    # positive there (rank 0 has no factor and no interior)
    k = pic.anticanonical
    factors = [w for _coeff, forms in form.terms for w in forms]
    if not factors or any(sum(a * b for a, b in zip(w, k)) <= 0
                          for w in factors):
        raise PicardError("anticanonical class is not interior to the "
                          "effective cone")
    return form(k)


def count_points_mod_p(fan: Fan, p: int) -> int:
    """Number of F_p points: each torus orbit of a cone of dimension k
    contributes (p-1)^(d-k)."""
    total = 0
    for k in range(fan.dim + 1):
        total += fan.cone_count(k) * (p - 1) ** (fan.dim - k)
    return total


def local_factor_coefficients(fan: Fan) -> tuple:
    """Coefficients f_m of the local Euler factor
    (1-1/p)^r * #X(F_p)/p^d = sum_m f_m p^(-m); always f_0 = 1, f_1 = 0."""
    d = fan.dim
    r = len(fan.rays) - d
    f = [0] * (d + r + 1)
    for k in range(d + 1):
        c = fan.cone_count(k)
        e = d + r - k
        for i in range(e + 1):
            f[k + i] += c * math.comb(e, i) * (-1) ** i
    assert f[0] == 1 and f[1] == 0
    return tuple(f)


class EulerProductSpec(NamedTuple):
    """Local density data for the Tamagawa Euler product."""

    fan: Fan
    rank: int
    coefficients: tuple     # f_m with f_0 = 1, f_1 = 0
    tail_constant: int      # sum |f_m| over m >= 2

    def local_factor(self, p: int) -> Fraction:
        x = Fraction(1, p)
        return sum(c * x ** m for m, c in enumerate(self.coefficients))

    def local_density(self, p: int) -> Fraction:
        return Fraction(count_points_mod_p(self.fan, p), p ** self.fan.dim)


def euler_product_spec(fan: Fan) -> EulerProductSpec:
    f = local_factor_coefficients(fan)
    return EulerProductSpec(fan=fan, rank=len(fan.rays) - fan.dim,
                            coefficients=f,
                            tail_constant=sum(abs(c) for c in f[2:]))


def archimedean_volume(fan: Fan) -> float:
    """2^d times the count of maximal cones: the integral of
    exp(-phi_rho) over each maximal cone is exactly 1 for a regular
    fan, and the real torus has 2^d sign components."""
    return float(2 ** fan.dim * fan.cone_count(fan.dim))


def archimedean_volume_mc(fan: Fan, samples: int = 20000,
                          seed: int = 0) -> tuple:
    """Importance-sampling estimate of the same volume with a product
    Laplace proposal; returns (estimate, standard_error).

    The rate 1/max_j ||e_j||_1 keeps the weight variance finite since
    phi_rho(v) >= ||v||_1 / max_j ||e_j||_1 on every cone.
    """
    d = fan.dim
    M = max(sum(abs(c) for c in ray) for ray in fan.rays)
    phi = PLFunction(fan, tuple([1] * len(fan.rays)))
    rng = np.random.default_rng(seed)
    pts = rng.laplace(scale=float(M), size=(samples, d))
    logw = np.empty(samples)
    for i in range(samples):
        v = pts[i]
        logw[i] = -phi(tuple(v)) + np.abs(v).sum() / M
    w = np.exp(logw) * (2.0 * M) ** d
    est = 2.0 ** d * float(w.mean())
    se = 2.0 ** d * float(w.std(ddof=1)) / math.sqrt(samples)
    return est, se


class TamagawaResult(NamedTuple):
    value: float
    lower: float
    upper: float
    pmax: int
    tail_log_bound: float
    spec: EulerProductSpec

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


_BLOCK = 100000


def tamagawa_number(fan: Fan, pmax: int = 1000000) -> TamagawaResult:
    """Archimedean volume times the Euler product over p <= pmax, with
    an interval from the exact tail bound sum_{p>pmax} |log factor|
    <= C/((1-delta) pmax), C = sum_{m>=2} |f_m|, delta = C/pmax^2."""
    spec = euler_product_spec(fan)
    C = spec.tail_constant
    if pmax < 2 or (C > 0 and C / pmax ** 2 >= 0.5):
        raise ValueError("pmax too small for a meaningful tail bound")
    primes = primes_up_to(pmax)
    coeffs_desc = np.array(spec.coefficients[::-1], dtype=float)
    block_sums = []
    for start in range(0, len(primes), _BLOCK):
        x = 1.0 / primes[start:start + _BLOCK].astype(float)
        block_sums.append(math.fsum(np.log(np.polyval(coeffs_desc, x))))
    log_finite = math.fsum(block_sums)
    value = archimedean_volume(fan) * math.exp(log_finite)
    delta = C / pmax ** 2
    tail = C / ((1.0 - delta) * pmax) + 1e-9 if C > 0 else 1e-12
    return TamagawaResult(value=value, lower=value * math.exp(-tail),
                          upper=value * math.exp(tail), pmax=pmax,
                          tail_log_bound=tail, spec=spec)


class LeadingConstant(NamedTuple):
    """Theta = alpha * tau with pole data (a, b) = (1, rank Pic)."""

    fan: Fan
    alpha: Fraction
    tamagawa: TamagawaResult
    theta: float
    lower: float
    upper: float
    a: int
    b: int

    def predict(self, B: float) -> float:
        """Main-term prediction Theta * B * (log B)^(b-1) / (b-1)!."""
        if B <= 1:
            return 0.0
        return (self.theta * B * math.log(B) ** (self.b - 1)
                / math.factorial(self.b - 1))


def leading_constant(fan: Fan, pmax: int = 1000000) -> LeadingConstant:
    alpha = alpha_constant(fan)
    tam = tamagawa_number(fan, pmax=pmax)
    a = float(alpha)
    return LeadingConstant(fan=fan, alpha=alpha, tamagawa=tam,
                           theta=a * tam.value, lower=a * tam.lower,
                           upper=a * tam.upper, a=1,
                           b=len(fan.rays) - fan.dim)
