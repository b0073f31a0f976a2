"""G_m-torsors O(n) over P^1 and their height machinery.

A Hirzebruch surface F_n is the P^1-fibration hiding inside the torsor
O(n) -> P^1: over a base point b the fiber heights get twisted by an
adelic offset g_b recording the transition cocycle of O(n).  This
module builds the offsets, Arakelov L-sums over the base, fibration
zeta partial sums with their exact heights counted by value, the
quotient Picard data of the total space, and the product-rule leading
constant.  Every route is cross-checked against the direct toric
pipeline on the F_n fan, which pins all sign conventions.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt
from typing import NamedTuple

from .cones import PolyhedralCone, QuotientChar, make_cone, quotient_char
from .counting import (_MAX_TABLE, _check_table, _complex_fsum,
                       _dirichlet_terms, _hirzebruch_counts, _magnitude,
                       enumerate_bounded, projective_height_counts)
from .heights import AdelicOffset, exact_height, global_height, make_offset
from .latticefan import Fan, PLFunction, builtin_fan
from .primes import factorize
from .ratlinalg import solve_fraction
from .toric import (LeadingConstant, PicardData, picard_data,
                    tamagawa_number, TamagawaResult)

__all__ = [
    "FibrationError",
    "TorsorSpec",
    "torsor_class",
    "twisted_fiber_height",
    "arakelov_L_partial",
    "FibrationZeta",
    "fibration_zeta_partial",
    "direct_zeta_partial",
    "FibrationPicard",
    "fibration_picard",
    "hirzebruch_match",
    "FibrationConstant",
    "fibration_predicted_constant",
    "hirzebruch_fan",
]


class FibrationError(ValueError):
    pass


class _TorsorFields(NamedTuple):
    twist: int
    section: str


class TorsorSpec(_TorsorFields):
    """O(twist) over P^1 with max-norm metric, P^1 fibers.

    section chooses the trivializing chart: "x0" trivializes where
    b0 != 0, "x1" where b1 != 0.  Switching sections shifts the offset
    at b by the principal profile of c = (b1/b0)^twist, so pointwise
    heights satisfy H(x; x0) = H(c x; x1): fiberwise sums, height
    multisets, and character pairings are all unchanged."""

    __slots__ = ()

    def __new__(cls, twist: int, section: str = "x0"):
        try:
            whole = twist == int(twist)
        except (OverflowError, ValueError):   # inf, nan
            whole = False
        if not whole:
            raise FibrationError("twist degree must be an integer")
        if section not in ("x0", "x1"):
            raise FibrationError('section must be "x0" or "x1"')
        # an int twist keeps the fiber heights exact
        return super().__new__(cls, int(twist), section)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here, so it is checked too
        return cls(*iterable)

    @property
    def fiber_fan(self) -> Fan:
        return builtin_fan("p1")


def hirzebruch_fan(n: int) -> Fan:
    """The fan the torsor construction must reproduce."""
    if n < 0:
        raise FibrationError("hirzebruch_fan wants n >= 0")
    return builtin_fan(f"hirzebruch-{n}")


def _validate_base_point(b):
    b0, b1 = int(b[0]), int(b[1])
    if (b0, b1) != (b[0], b[1]):
        raise FibrationError("base point needs integer coordinates")
    if b0 == 0 and b1 == 0:
        raise FibrationError("base point (0, 0) is not a point of P^1")
    if gcd(b0, b1) != 1:
        raise FibrationError("base coordinates must be coprime")
    return b0, b1


def torsor_class(spec: TorsorSpec, b) -> AdelicOffset:
    """Adelic offset representing the class of the fiber torsor at b.

    Components shift the valuation argument of the fiber height: at a
    finite place the order of b's trivializing coordinate enters with
    weight -twist, and the archimedean part is -twist * log of the
    max-norm divided by that coordinate.  A base point outside the
    chosen section's chart falls back to the other chart."""
    b0, b1 = _validate_base_point(b)
    branch = spec.section
    if b0 == 0 and branch == "x0":
        branch = "x1"
    if b1 == 0 and branch == "x1":
        branch = "x0"
    anchor = abs(b0) if branch == "x0" else abs(b1)
    n = spec.twist
    finite = {p: (-n * e,) for p, e in factorize(anchor) if n * e != 0}
    mx = max(abs(b0), abs(b1))
    arch = (-n * (math.log(mx) - math.log(anchor)),)
    return make_offset(1, finite=finite, arch=arch)


def twisted_fiber_height(spec: TorsorSpec, lam, b, x) -> float:
    """Height of the fiber point x over b, twisted by the torsor class."""
    return global_height(spec.fiber_fan, lam, (x,),
                         offset=torsor_class(spec, b))


def base_points(m: int) -> list:
    """Coprime (b0, b1), b0 >= 1, b1 != 0, with max|.| = m, sorted: the
    projective_height_counts(1, m)[m] torus points of P^1 of max-norm
    height m."""
    if m == 1:
        return [(1, -1), (1, 1)]
    batch = []
    for k in range(1, m):
        if gcd(k, m) == 1:
            batch += [(m, -k), (m, k), (k, -m), (k, m)]
    return sorted(batch)


def _fiber_lambda(lam) -> tuple:
    if isinstance(lam, str):
        if lam != "rho":
            raise FibrationError(f"unknown fiber class name {lam!r}")
        return (1, 1)
    vals = tuple(lam)
    if len(vals) != 2:
        raise FibrationError("fiber class needs one value per P^1 ray")
    if not all(0 < float(v) < math.inf for v in vals):
        raise FibrationError("fiber exponents must be positive and finite")
    return vals


class FibrationZeta(NamedTuple):
    """Truncated height zeta of the torsor total space.

    height_counts maps each anticanonical height value, kept exact so two
    pipelines can be compared literally (an int where integral, a
    Fraction otherwise, as direct_zeta_partial keys them), to its number
    of points.
    tail_estimate extrapolates the last octave geometrically; infinity
    when the octave sums do not decay."""

    twist: int
    section: str
    lam_fiber: tuple
    alpha_base: float
    B: float
    value: float
    n_points: int
    base_count: int
    height_counts: dict
    base_rows: tuple
    tail_estimate: float


def fibration_zeta_partial(spec: TorsorSpec, lam_fiber, alpha_base,
                           B) -> FibrationZeta:
    """Sum of H_base(b)^-alpha * H_fiber(lam, g_b x)^-1 over all torus
    points with anticanonical height at most B.

    The cutoff is the anticanonical height of the total space, the
    product of the squared base max-norm and the rho-twisted fiber
    height; partial sums converge to the zeta value only for fiber
    exponents > 1 and alpha_base > 2.  A bound with more points than
    counting._MAX_TABLE, counted in Cox coordinates on F_|twist|, is
    refused before the loop, as are exponents with B^(mu1 + mu2) past
    the float range."""
    mu = _fiber_lambda(lam_fiber)
    a = float(alpha_base)
    if not 0 < a < math.inf:
        raise FibrationError("alpha_base must be positive and finite")
    # integral exponents as ints keep the fiber heights exact
    mu1, mu2 = (int(m) if float(m).is_integer() else float(m) for m in mu)
    n = spec.twist
    try:
        Bq = Fraction(B)
    except (OverflowError, ValueError):   # inf, nan
        raise FibrationError(f"the bound B must be finite, got {B}") from None
    if Bq >= 1:
        # past B = 10^14 the count's own table is over the limit, and the
        # base height 1 alone has about 2.4 B points, so over 2 B in all
        total = (_hirzebruch_counts(abs(n), 1, [Bq])[0]
                 if isqrt(int(Bq)) <= _MAX_TABLE else math.inf)
        if total > _MAX_TABLE:
            count = (total if total < math.inf
                     else f"over {_magnitude(2 * Bq)}")
            raise FibrationError(
                f"the fibration loop would visit {count} points "
                f"(B = {_magnitude(Bq)}), over the limit of {_MAX_TABLE}")
        # the loop's powers are x^e with 1/B <= x <= B, e <= mu1 + mu2
        if (float(mu1) + float(mu2)) * math.log2(Bq) > 1023:
            raise FibrationError(
                f"fiber exponents {float(mu[0]):g}, {float(mu[1]):g} are too "
                f"large for B = {_magnitude(Bq)}: B^(mu1 + mu2) leaves the "
                "float range")
    base_rows = []
    height_counts = Counter()
    terms = []
    octave_hi = 0.0
    octave_lo = 0.0
    # the fiber over b depends on b only through H1 = max|b|: build it
    # once per height, then add it once per base point of that height
    for H1 in range(1, (isqrt(int(Bq)) if Bq >= 1 else 0) + 1):
        Bf = Bq / H1 ** 2
        S = H1 ** n if n >= 0 else Fraction(1, H1 ** -n)
        base_factor = float(H1) ** -a
        u_max = isqrt(int(Bf / S)) if Bf >= S else 0
        w_max = isqrt(int(Bf * S))
        fiber_counts = Counter()
        fiber_terms = []
        hi_terms = []
        lo_terms = []
        for u in range(1, u_max + 1):
            for w in range(1, w_max + 1):
                if gcd(u, w) != 1:
                    continue
                # the fiber point z = u/w, once x = anchor^n z absorbs
                # the finite twist, has height u^mu1 w^mu2 times
                # (S u/w)^-mu1 when S u <= w and (S u/w)^mu2 otherwise;
                # its rho-height times H1^2 is the cut height
                if S * u <= w:
                    total_height = H1 * H1 * Fraction(w * w, S)
                    hf = w ** (mu1 + mu2) / S ** mu1
                else:
                    total_height = H1 * H1 * S * u * u
                    hf = u ** (mu1 + mu2) * S ** mu2
                if total_height.denominator == 1:   # keyed by its int
                    total_height = total_height.numerator
                # both signs of the fiber coordinate, same heights
                summand = 2.0 * (base_factor / hf)
                fiber_counts[total_height] += 2
                fiber_terms.append(summand)
                hflt = float(total_height)
                if hflt > float(Bq) / 2:
                    hi_terms.append(summand)
                elif hflt > float(Bq) / 4:
                    lo_terms.append(summand)
        if not fiber_terms:
            continue
        fsum = math.fsum(fiber_terms)
        points = base_points(H1)
        for h, c in fiber_counts.items():
            height_counts[h] += c * len(points)
        for b0, b1 in points:
            # in point order, as the tail estimate's last bits depend on it
            for t in hi_terms:
                octave_hi += t
            for t in lo_terms:
                octave_lo += t
            terms.append(fsum)
            base_rows.append((b0, b1, H1, 2 * len(fiber_terms), fsum))
    value = math.fsum(terms)
    if octave_lo > 0 and octave_hi < octave_lo:
        r = octave_hi / octave_lo
        tail = octave_hi * r / (1.0 - r)
    elif octave_hi == 0.0:
        tail = 0.0
    else:
        tail = math.inf
    return FibrationZeta(
        twist=spec.twist, section=spec.section, lam_fiber=mu,
        alpha_base=a, B=float(B), value=value,
        n_points=sum(height_counts.values()), base_count=len(base_rows),
        height_counts=dict(height_counts), base_rows=tuple(base_rows),
        tail_estimate=tail,
    )


def direct_zeta_partial(fan: Fan, lam, B, stats=None):
    """Exact enumeration reference: the anticanonical heights of the torus
    points of the fan, each with its number of points (keyed by its int
    when integral, as FibrationZeta.height_counts is), the corresponding
    sum of H_lam^-1, and the number of points.  The walk's counts are
    added into stats, a dict, if given (see counting.enumerate_bounded).

    One PLFunction of rho serves the walk and the heights.  The 2^d sign
    copies of a profile come in a row, and heights do not depend on
    signs, so each run is read once, at its first copy: its count is
    2^d and its term is scaled by 2^d, which is exact, so fsum gives the
    same bits."""
    rho = (1,) * len(fan.rays)
    pl_rho = PLFunction(fan, rho)
    pl_lam = pl_rho if tuple(lam) == rho else PLFunction(fan, tuple(lam))
    run = 2 ** fan.dim
    height_counts = Counter()
    terms = []
    for prof in islice(enumerate_bounded(fan, pl_rho, B, stats=stats),
                       None, None, run):
        hcut = exact_height(fan, pl_rho, prof)
        if hcut.denominator == 1:
            hcut = hcut.numerator
        hsum = hcut if pl_lam is pl_rho else exact_height(fan, pl_lam, prof)
        height_counts[hcut] += run
        terms.append(run * (1.0 / float(hsum)))
    return (dict(height_counts), math.fsum(terms),
            sum(height_counts.values()))


def arakelov_L_partial(spec: TorsorSpec, a, m, H) -> complex:
    """Truncated Arakelov L-sum over the base:
    sum over b in P^1(Q), max-norm height <= H, of the inverse character
    of the torsor class times the base height to the power -a.

    The character at b is H(b)^(i twist m): its finite part, -twist times
    the orders of b's trivializing coordinate, and its archimedean part,
    -twist times log(max|b| / that coordinate), add up to -twist log H(b)
    on either section.  So the sum is 2 (the two boundary points, where
    the torsor is trivial) plus sum_h c(h) h^-(a + i twist m), c the
    projective_height_counts of P^1, whose limit is 4 zeta(s-1)/zeta(s) at
    s = a + i twist m.

    Needs a > 2: the base count grows quadratically in the max-norm."""
    a = float(a)
    if a <= 2:
        raise FibrationError("arakelov_L_partial needs a > 2")
    H = float(H)
    if not math.isfinite(H):
        raise FibrationError(f"arakelov_L_partial needs a finite H, got {H}")
    if H < 1:
        return 0j
    _check_table(int(H), Fraction(H), "the Arakelov L-sum", "H")
    s = complex(a, spec.twist * float(m))
    c = projective_height_counts(1, int(H))
    return _complex_fsum(lambda: chain([2.0],
                                       _dirichlet_terms(c, s, int(H))))


class FibrationPicard(NamedTuple):
    """Picard data of the total space as a quotient V/M.

    V = PL(fiber fan) x Pic(P^1) with coordinates (fiber ray +1,
    fiber ray -1, base O(1)); M is spanned by (1, -1, twist), the
    divisor of the fiber coordinate including its twist across the
    base.  The effective cone is the image of the product orthant."""

    twist: int
    rank: int
    m_basis: tuple
    quotient: QuotientChar
    fiber_plus_class: tuple
    fiber_minus_class: tuple
    base_class: tuple
    anticanonical_class: tuple
    effective_cone: PolyhedralCone
    alpha: Fraction


def fibration_picard(spec: TorsorSpec) -> FibrationPicard:
    n = spec.twist
    orthant = make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    # div of the fiber coordinate: plus ray minus minus ray, twisted
    # n times across the base
    m_basis = ((1, -1, n),)
    q = quotient_char(orthant, m_basis)

    # classes in a unimodular basis of Z^3 / M; the quotient object's
    # own projection is only a Q-basis once |n| > 1, so we project by
    # hand: (x1, x2, x3) -> (x1 + x2, x3 - n x1) kills (1, -1, n) and
    # is onto Z^2.
    def cls(x):
        return (x[0] + x[1], x[2] - n * x[0])

    f_plus = cls((1, 0, 0))
    f_minus = cls((0, 1, 0))
    base = cls((0, 0, 1))
    antican = cls((1, 1, 2))
    eff = make_cone([f_plus, f_minus, base], 2)
    alpha = q.evaluate((1, 1, 2))
    return FibrationPicard(
        twist=n, rank=2, m_basis=m_basis, quotient=q,
        fiber_plus_class=f_plus, fiber_minus_class=f_minus,
        base_class=base, anticanonical_class=antican,
        effective_cone=eff, alpha=Fraction(alpha),
    )


def hirzebruch_match(spec: TorsorSpec) -> tuple:
    """Lattice isomorphism onto the Picard data of the F_n fan.

    Sends the base class to the fiber-divisor class of the fan and the
    fiber ray -1 class to the section class, then checks that the
    remaining ray class and the anticanonical class follow suit.
    Returns the 2x2 integer matrix; raises when no match exists."""
    if spec.twist < 0:
        raise FibrationError("hirzebruch_match wants twist >= 0")
    fp = fibration_picard(spec)
    pic: PicardData = picard_data(hirzebruch_fan(spec.twist))
    cls = pic.divisor_classes
    if tuple(cls[0]) != tuple(cls[2]):
        raise FibrationError("fan base divisors disagree; not a fibration")
    # columns of the unknown matrix from two prescribed images
    cols = [[Fraction(fp.base_class[i]), Fraction(fp.fiber_minus_class[i])]
            for i in range(2)]
    rows = []
    for i in range(2):
        sol = solve_fraction(cols, [Fraction(cls[0][i]),
                                    Fraction(cls[3][i])])
        rows.append(tuple(sol))
    if any(c.denominator != 1 for row in rows for c in row):
        raise FibrationError("no integral matching of Picard lattices")
    P = tuple(tuple(int(c) for c in row) for row in rows)
    det = P[0][0] * P[1][1] - P[0][1] * P[1][0]
    if abs(det) != 1:
        raise FibrationError("matched map is not a lattice isomorphism")

    def apply(v):
        return tuple(P[i][0] * v[0] + P[i][1] * v[1] for i in range(2))

    if apply(fp.fiber_plus_class) != tuple(cls[1]):
        raise FibrationError("twisted fiber ray class does not match")
    if apply(fp.anticanonical_class) != tuple(pic.anticanonical):
        raise FibrationError("anticanonical classes do not match")
    return P


class FibrationConstant(NamedTuple):
    """Theta of the total space by the product rule: the quotient-cone
    characteristic value at the anticanonical class times the Tamagawa
    numbers of fiber and base."""

    twist: int
    alpha: Fraction
    tau_fiber: TamagawaResult
    tau_base: TamagawaResult
    theta: float
    lower: float
    upper: float
    a: int
    b: int
    picard: FibrationPicard

    predict = LeadingConstant.predict


def fibration_predicted_constant(spec: TorsorSpec,
                                 pmax: int = 1000000) -> FibrationConstant:
    fp = fibration_picard(spec)
    tau = tamagawa_number(builtin_fan("p1"), pmax=pmax)
    af = float(fp.alpha)
    return FibrationConstant(
        twist=spec.twist, alpha=fp.alpha, tau_fiber=tau, tau_base=tau,
        theta=af * tau.value * tau.value,
        lower=af * tau.lower * tau.lower,
        upper=af * tau.upper * tau.upper,
        a=1, b=fp.rank, picard=fp,
    )
