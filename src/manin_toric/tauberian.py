"""Perron-type contour integrals and the descending Tauberian bracket.

For a Dirichlet series f(s) = sum c_n n^-s with rightmost pole at s = a of
order b and leading constant Theta, the smoothed counting functions

    phi_k(X) = sum_{n <= X} c_n (log X/n)^k = (k!/2*pi*i) int f(s) X^s s^-(k+1) ds

are absolutely convergent line integrals once k exceeds the growth
exponent of f on vertical lines.  phi_k determines phi_(k-1) through a
two-sided difference bracket, which descends all the way to the raw count
phi_0.  This module computes the integrals numerically, checks them
against direct summation, verifies contour independence and the residue
across the pole, and compares phi_0 with the predicted main term.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .counting import p1_height_counts
from .fourier import _check_rule, _gauss_panels, _wsum, zeta_line
from .primes import divisor_count_table

__all__ = [
    "TauberianError",
    "PoleData",
    "DirichletOracle",
    "builtin_oracle",
    "PerronLine",
    "perron_phi_k",
    "residue_circle",
    "residue_shape",
    "contour_independence",
    "residue_consistency",
    "descent_eta",
    "descend_k",
    "predict",
    "compare",
]

EULER_GAMMA = 0.5772156649015328606

# phi_direct holds a few float arrays of N + 1 entries, about 40 bytes a
# term, so a larger direct sum is refused rather than left to exhaust
# memory
MAX_DIRECT_TERMS = 10**8


class TauberianError(ValueError):
    pass


class _PoleFields(NamedTuple):
    abscissa: float
    order: int
    theta: float
    delta0: float
    kappa: float


class PoleData(_PoleFields):
    """Rightmost pole: location, order, leading constant, analytic strip."""

    __slots__ = ()

    def __new__(cls, abscissa: float, order: int, theta: float,
                delta0: float, kappa: float = 0.0):
        if not abscissa > 0:
            raise TauberianError("pole abscissa must be positive")
        if order < 1:
            raise TauberianError("pole order must be at least 1")
        if not theta > 0:
            raise TauberianError("leading constant must be positive")
        if not 0 < delta0 < abscissa:
            raise TauberianError("strip width must satisfy 0 < delta0 < a")
        if kappa < 0:
            raise TauberianError("growth exponent must be nonnegative")
        return super().__new__(cls, abscissa, order, theta, delta0, kappa)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through here, so it is checked too
        return cls(*iterable)


class DirichletOracle:
    """Evaluator plus coefficient access for one Dirichlet series.

    The evaluator is a closed form on 1-d complex arrays, valid for
    Re s > a - delta0 off the pole (so on both sides of the pole line) and
    |Im s| up to a few thousand, the range of `zeta_line`; coefficients
    feed brute-force cross-checks.  Immutable and compared by its four
    fields, as a NamedTuple would be, but one cannot hold the two whose
    names begin with "_".
    """

    __slots__ = ("name", "pole", "_evaluate", "_coefficients")

    def __init__(self, name: str, pole: PoleData | None,
                 _evaluate: Callable[[np.ndarray], np.ndarray],
                 _coefficients: Callable[[int], np.ndarray]):
        for attr, value in zip(self.__slots__,
                               (name, pole, _evaluate, _coefficients)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def _fields_tuple(self) -> tuple:
        return tuple(getattr(self, attr) for attr in self.__slots__)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not slot assignment
        return self.__class__, self._fields_tuple()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_tuple() == other._fields_tuple()

    def __hash__(self):
        return hash(self._fields_tuple())

    def __repr__(self):
        return "DirichletOracle(" + ", ".join(
            f"{attr}={getattr(self, attr)!r}" for attr in self.__slots__) + ")"

    def evaluate(self, s) -> complex:
        return complex(self.evaluate_line(s)[0])

    def evaluate_line(self, s: np.ndarray) -> np.ndarray:
        return self._evaluate(np.atleast_1d(np.asarray(s, dtype=complex)))

    def coefficients(self, N: int) -> np.ndarray:
        """c_1..c_N as arr[1..N]; arr[0] is unused padding."""
        return self._coefficients(int(N))

    def phi_direct(self, X: float, k):
        """Exact phi_k(X) by direct summation of the coefficients.  For a
        sequence of k, the list of phi_k(X), from one coefficient table."""
        if not X < MAX_DIRECT_TERMS + 1:
            raise TauberianError(
                f"direct sum needs N = floor(X) = {X:.0f} terms, above the "
                f"cap of {MAX_DIRECT_TERMS}"
            )
        many = isinstance(k, (tuple, list))
        ks = list(k) if many else [k]
        N = int(math.floor(X))
        out = [0.0] * len(ks)
        if N >= 1:
            c = self.coefficients(N).astype(float)
            c[0] = 0.0  # padding, which no sum may see
            n = np.arange(0, N + 1, dtype=float)
            n[0] = 1.0
            for i, kk in enumerate(ks):
                # phi_0 sums the coefficients themselves
                out[i] = (_wsum(c, np.log(X / n) ** kk) if kk
                          else float(np.add.reduce(c)))
        return out if many else out[0]


def _coeff_one(N):
    arr = np.zeros(N + 1)
    if N >= 1:
        arr[1] = 1.0
    return arr


def _coeff_zeta(N):
    arr = np.ones(N + 1)
    arr[0] = 0.0
    return arr


def _coeff_zeta2(N):
    arr = np.zeros(N + 1)
    arr[1:] = divisor_count_table(N)[1:]
    return arr


def _coeff_p1(N):
    # anticanonical heights on the torus of P^1 are the squares h^2 of
    # the max-norm heights h
    arr = np.zeros(N + 1)
    T = math.isqrt(N)
    arr[np.arange(T + 1) ** 2] = p1_height_counts(T)
    return arr


_BUILTIN_ORACLES = {
    "one": (None, np.ones_like, _coeff_one),
    "zeta": (PoleData(1.0, 1, 1.0, 0.5, kappa=0.5), zeta_line, _coeff_zeta),
    "zeta2": (PoleData(1.0, 2, 1.0, 0.5, kappa=1.0),
              lambda s: zeta_line(s) ** 2, _coeff_zeta2),
    # 4*zeta(2s-1)/zeta(2s) - 2 stays bounded on Re s >= 1.2 and grows
    # slower than t^(1/4) on the left contour Re s = 7/8, so kappa = 1/4
    "p1": (PoleData(1.0, 1, 12 / math.pi**2, 0.25, kappa=0.25),
           lambda s: 4 * zeta_line(2 * s - 1) / zeta_line(2 * s) - 2,
           _coeff_p1),
}


def builtin_oracle(name: str) -> DirichletOracle:
    try:
        pole, ev, co = _BUILTIN_ORACLES[name]
    except KeyError:
        raise TauberianError(
            f"unknown oracle {name!r}; have {sorted(_BUILTIN_ORACLES)}"
        ) from None
    return DirichletOracle(name=name, pole=pole, _evaluate=ev,
                           _coefficients=co)


_ORDER = 12   # Gauss-Legendre points per panel of a Perron rule


def _panel_edges(T: float, X: float) -> int:
    # at least three panels per oscillation period 2*pi/log X; log X is
    # rounded up so that the X of a descent window share one node set
    width = min(0.5, 2 * math.pi / max(math.ceil(math.log(X)), 1) / 3)
    return max(2, int(math.ceil(T / width)) + 1)


def _line_values(oracle: DirichletOracle, a_prime: float, T: float,
                 edges: int, k: int):
    """Gauss-Legendre nodes s on a' + i[0, T], weights, f(s) and
    s^(k+1)."""
    t, w = _gauss_panels(T, edges, _ORDER)
    s = a_prime + 1j * t
    return s, w, oracle.evaluate_line(s), s ** (k + 1)


def _line_sum(line, X: float, k: int) -> float:
    s, w, f, sk = line
    vals = f * np.exp(s * math.log(X)) / sk
    # real coefficients give conjugate symmetry across the real axis
    return math.factorial(k) / math.pi * _wsum(w, vals.real)


def _line_integral(oracle: DirichletOracle, X: float, k: int,
                   a_prime: float, T: float) -> float:
    return _line_sum(_line_values(oracle, a_prime, T, _panel_edges(T, X), k),
                     X, k)


_TAIL_SAMPLES = (1.0, 1.37, 1.9, 2.6)


class PerronLine:
    """phi_k(X) as a truncated integral on the line Re s = a_prime.

    Calling the line on X returns phi_k(X) and raises when the bound on
    the integral beyond |Im s| = T exceeds tol * (|phi_k| + 1).  The
    quadrature nodes depend on X only through ceil(log X), which sets
    their panel count, and the tail bound only through X^a_prime, so a
    line evaluates the series once per distinct node set and samples it
    for the tail once, however many X it is called on, and integrates
    once per X.  The X(1 -/+ eta) and X of a descent window share one
    node set unless the window straddles an integer of log X.  The tail
    is sampled after the first rule is built, so a T whose rule is over
    the node limit is refused before the series is evaluated.  `stats`
    reports that work.
    """

    def __init__(self, oracle: DirichletOracle, pole: PoleData | None,
                 k: int, a_prime: float | None = None, T: float = 300.0,
                 tol: float = 1e-3):
        if pole is None:
            pole = oracle.pole
        kappa = pole.kappa if pole else 0.0
        if a_prime is None:
            a_prime = (pole.abscissa if pole else 1.0) + 0.5
        if pole and a_prime <= pole.abscissa:
            raise TauberianError("contour must pass right of the pole")
        if k <= kappa:
            raise TauberianError(f"k = {k} must exceed the contour growth "
                                 f"exponent kappa = {kappa}")
        if not T > 0:
            raise TauberianError(f"truncation height T = {T} must be positive")
        if not tol > 0:
            raise TauberianError(f"tolerance tol = {tol} must be positive")
        self.oracle, self.k, self.kappa = oracle, k, kappa
        self.a_prime, self.T, self.tol = a_prime, T, tol
        self._cf = None  # tail constant, sampled on the first tail()
        self._lines = {}  # panel edge count -> (s, w, f(s), s^(k+1))
        self._values = {}  # X -> integral

    def integral(self, X: float) -> float:
        """The integral over |Im s| <= T."""
        if X not in self._values:
            edges = _panel_edges(self.T, X)
            if edges not in self._lines:
                self._lines[edges] = _line_values(self.oracle, self.a_prime,
                                                  self.T, edges, self.k)
            self._values[X] = _line_sum(self._lines[edges], X, self.k)
        return self._values[X]

    def check_rule(self, X: float) -> None:
        """Refuse a rule for X over the node limit, with no work done."""
        _check_rule(self.T, _panel_edges(self.T, X), _ORDER)

    def tail(self, X: float) -> float:
        """Bound on the integral over |Im s| > T."""
        k, kappa, T = self.k, self.kappa, self.T
        if self._cf is None:
            f = self.oracle.evaluate_line(
                self.a_prime + 1j * (T * np.array(_TAIL_SAMPLES)))
            self._cf = 1.5 * max(abs(complex(v)) * c**-kappa
                                 for v, c in zip(f, _TAIL_SAMPLES))
        return (math.factorial(k) * X**self.a_prime * self._cf
                * T ** (kappa - k) / (math.pi * (k - kappa)))

    def __call__(self, X: float) -> float:
        value = self.integral(X)
        bound = self.tail(X)
        limit = self.tol * (abs(value) + 1)
        if bound > limit:
            raise TauberianError(
                f"tail_bound = {bound!r} exceeds tol * (|phi_k| + 1) = "
                f"{limit!r} by {bound - limit!r} at X = {X!r}, "
                f"T = {self.T!r}; raise T"
            )
        return value

    @property
    def stats(self) -> dict:
        """Node sets evaluated, series points in them, tail samples."""
        return {"node_sets": len(self._lines),
                "points": sum(s.size for s, *_ in self._lines.values()),
                "tail_samples": 0 if self._cf is None else len(_TAIL_SAMPLES)}


def perron_phi_k(oracle: DirichletOracle, pole: PoleData | None, X: float,
                 k: int, a_prime: float | None = None, T: float = 300.0,
                 tol: float = 1e-3) -> float:
    """phi_k(X) by truncated vertical-line integral at Re s = a_prime."""
    return PerronLine(oracle, pole, k, a_prime, T, tol)(X)


def residue_circle(oracle: DirichletOracle, pole: PoleData, X: float, k: int,
                   radius: float | None = None, nodes: int = 256) -> float:
    """k! times the residue of f(s) X^s / s^(k+1) at the pole, by a circle.

    Trapezoid quadrature on a circle inside the analytic annulus is
    spectrally accurate; the imaginary part is a numerical residual.
    """
    r = radius if radius is not None else pole.delta0 / 2
    theta = 2 * math.pi * np.arange(nodes) / nodes
    s = pole.abscissa + r * np.exp(1j * theta)
    f = oracle.evaluate_line(s)
    vals = f * np.exp(s * math.log(X)) / s ** (k + 1) * (s - pole.abscissa)
    total = complex(np.mean(vals)) * math.factorial(k)
    if abs(total.imag) > 1e-8 * (1 + abs(total.real)):
        raise TauberianError("residue has a non-real part; check the pole data")
    return total.real


def residue_shape(pole: PoleData, X: float, k: int) -> float:
    """Leading residue shape Theta/(b-1)! d^(b-1)/ds^(b-1)[X^s s^-(k+1)] at a.

    Only the top coefficient of the pole's principal part enters; for
    higher-order poles the oracle may carry lower principal-part terms
    that this shape deliberately omits.
    """
    a, b = pole.abscissa, pole.order
    logX = math.log(X)
    # d^j/ds^j [X^s s^-(k+1)] = X^s sum_i C(j,i) logX^(j-i) (-1)^i (k+1)_i s^-(k+1+i)
    j = b - 1
    total = 0.0
    for i in range(j + 1):
        poch = 1.0
        for q in range(i):
            poch *= k + 1 + q
        total += (math.comb(j, i) * logX ** (j - i) * (-1) ** i * poch
                  * a ** -(k + 1 + i))
    return math.factorial(k) * pole.theta / math.factorial(j) * X**a * total


class ContourReport(NamedTuple):
    value_low: float
    value_high: float
    a_low: float
    a_high: float
    tail_low: float
    tail_high: float

    @property
    def difference(self) -> float:
        return abs(self.value_low - self.value_high)

    def consistent(self, tol: float = 1e-3) -> bool:
        scale = abs(self.value_low) + abs(self.value_high) + 1
        return self.difference <= self.tail_low + self.tail_high + tol * scale


def contour_independence(oracle: DirichletOracle, pole: PoleData | None,
                         X: float, k: int, a1: float | None = None,
                         a2: float | None = None,
                         T: float = 300.0) -> ContourReport:
    """Integrate on two lines right of the pole; values must agree."""
    if pole is None:
        pole = oracle.pole
    base = (pole.abscissa if pole else 1.0) + 0.5
    low = PerronLine(oracle, pole, k, a1, T)
    high = PerronLine(oracle, pole, k, base + 1.0 if a2 is None else a2, T)
    return ContourReport(
        value_low=low.integral(X),
        value_high=high.integral(X),
        a_low=low.a_prime,
        a_high=high.a_prime,
        tail_low=low.tail(X),
        tail_high=high.tail(X),
    )


class ResidueReport(NamedTuple):
    right: float
    left: float
    circle: float
    shape: float

    @property
    def difference(self) -> float:
        return self.right - self.left

    @property
    def rel_error(self) -> float:
        return abs(self.difference - self.circle) / abs(self.circle)


def residue_consistency(oracle: DirichletOracle, pole: PoleData | None,
                        X: float, k: int, T: float = 300.0) -> ResidueReport:
    """Right-line minus left-line integral must equal the pole residue."""
    if pole is None:
        pole = oracle.pole
    if pole is None:
        raise TauberianError("residue consistency needs pole data")
    right = _line_integral(oracle, X, k, pole.abscissa + pole.delta0, T)
    left = _line_integral(oracle, X, k, pole.abscissa - pole.delta0 / 2, T)
    return ResidueReport(
        right=right,
        left=left,
        circle=residue_circle(oracle, pole, X, k),
        shape=residue_shape(pole, X, k),
    )


def descent_eta(X: float, eps: float = 0.5) -> float:
    """X^-eps, floored at 20/X so the window spans several jumps."""
    if not X > 20:
        raise TauberianError(f"X = {X:g} is too small for the descent "
                             "window max(X^-eps, 20/X): need X > 20")
    return max(X**-eps, 20.0 / X)


def descend_k(sampler: Callable[[float], float], k: int, X: float,
              eta: float | None = None, eps: float = 0.5):
    """Bracket phi_(k-1)(X) from phi_k samples at X(1 -/+ eta).

    Since d(phi_k)/d(log X) = k phi_(k-1) and phi_(k-1) is nondecreasing,
    one-sided difference quotients of exact phi_k values enclose the
    target.  eta defaults to `descent_eta(X, eps)`.
    """
    if k < 1:
        raise TauberianError("descend needs k >= 1")
    if eta is None:
        eta = descent_eta(X, eps)
    if not 0 < eta < 1:
        raise TauberianError("eta must lie in (0, 1)")
    f_lo = float(sampler(X * (1 - eta)))
    f_mid = float(sampler(X))
    f_hi = float(sampler(X * (1 + eta)))
    lower = (f_mid - f_lo) / (-math.log1p(-eta)) / k
    upper = (f_hi - f_mid) / math.log1p(eta) / k
    if lower > upper:
        raise TauberianError(
            "inverted bracket: sampler noise exceeds the bracket width"
        )
    return lower, upper


def predict(pole: PoleData, X: float) -> float:
    """Leading term Theta/(a (b-1)!) X^a (log X)^(b-1)."""
    a, b = pole.abscissa, pole.order
    return (pole.theta / (a * math.factorial(b - 1))
            * X**a * math.log(X) ** (b - 1))


class CompareReport(NamedTuple):
    oracle_name: str
    Xs: tuple
    counts: tuple
    predictions: tuple
    residuals: tuple
    error_exponent: float
    residual_coefficient: float | None

    def rows(self):
        for X, N, P, R in zip(self.Xs, self.counts, self.predictions,
                              self.residuals):
            yield {"X": X, "N": N, "predict": P, "residual": R}


def compare(oracle: DirichletOracle, X_grid, pole: PoleData | None = None) -> CompareReport:
    """Count vs prediction over a grid, with the empirical error exponent.

    The residual N - predict is regressed two ways: log|residual| against
    log X for the error exponent, and (for double poles) against the
    next-lower term X^a (log X)^(b-2) for its coefficient.
    """
    if pole is None:
        pole = oracle.pole
    if pole is None:
        raise TauberianError("compare needs pole data")
    Xs = sorted(float(X) for X in X_grid)
    if len(Xs) < 2:
        raise TauberianError("need at least two grid points")
    counts = [oracle.phi_direct(X, 0) for X in Xs]
    preds = [predict(pole, X) for X in Xs]
    resid = [N - P for N, P in zip(counts, preds)]
    nonzero = [(X, abs(r)) for X, r in zip(Xs, resid) if r != 0]
    if len(nonzero) >= 2:
        lx = np.log([x for x, _ in nonzero])
        lr = np.log([r for _, r in nonzero])
        exponent = float(np.polyfit(lx, lr, 1)[0])
    else:
        exponent = float("-inf")
    coeff = None
    if pole.order >= 2:
        basis = np.array(
            [X**pole.abscissa * math.log(X) ** (pole.order - 2) for X in Xs]
        )
        coeff = float(np.dot(basis, resid) / np.dot(basis, basis))
    return CompareReport(
        oracle_name=oracle.name,
        Xs=tuple(Xs),
        counts=tuple(counts),
        predictions=tuple(preds),
        residuals=tuple(resid),
        error_exponent=exponent,
        residual_coefficient=coeff,
    )
