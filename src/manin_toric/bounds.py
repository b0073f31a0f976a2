"""Empirical verification sweeps for four families of integral bounds.

Each kind integrates a left-hand side over a geometric parameter grid
and divides by the conjectured right-hand shape.  The sweep passes when
every ratio is finite and the supremum does not grow as the grid is
extended by further decades: the bound constants are never derived,
only exhibited.

Every integral uses one fixed, non-adaptive rule: 24-node Gauss-Legendre
on geometrically graded pieces.  A finite stretch [p, q] is cut at
p + 10^j and q - 10^j (and the alpha kind also at its kink), and a tail
[lo, inf) at lo + 10^j for j = 0..40.  The minus kind integrates the
half of [0, B-1] next to its singular end in v = B - u, cut at 1 + 10^j.
The cuts depend on few of a row's parameters, so one rule is built per
distinct cut set and every row that shares it is evaluated on it; the
rows keep their order.

Kinds
-----
plus   I(A,B) = int_0^inf dt / ((A+t)^alpha (B+t)^beta)
       vs  min(A,B)/(A^alpha B^beta) * (1 + log of the larger ratio
       when the matching exponent is 1).
minus  I(A,B) = int_0^{B-1} du / ((A+u)^alpha (B-u))
       vs  (1 + log A)/A^alpha,  alpha <= 1.
alpha  I(A,a) = int_0^inf (A + |t+a|)^{-alpha} dt/(1+t)
       vs  (1 + log A)/A^alpha.
omega  I(t_vec, A) = int_R (1+A+|t|)^{-(1-eps)} prod_j (1+|t-t_j|)^{-1} dt
       vs  (1+log(1+A))/(1+A)^{1-eps} * sum_j prod_{k!=j} (1+|t_k-t_j|)^{-1}.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# the tail rule ends at lo + 10^_TAIL_DECADES; every integrand here
# decays at least like t^-1.5, so what lies beyond is about 1e-20 of
# the integrand's scale or less
_TAIL_DECADES = 40
# the most base plus extended decades: the plus kind divides by A^alpha
# B^beta, up to 10^(3 * 102), and the cuts reach 10^103 + 10^_TAIL_DECADES
MAX_DECADES = 102


class DecadeLimitError(ValueError):
    """Base plus extended decades over MAX_DECADES."""


class _SweepFields(NamedTuple):
    kind: str
    rows: list[dict]
    sup_base: float
    sup_extended: float
    worst: dict | None
    stable: bool
    passed: bool


class SweepReport(_SweepFields):
    __slots__ = ()

    def __new__(cls, kind, rows=None, sup_base=0.0, sup_extended=0.0,
                worst=None, stable=False, passed=False):
        # a new list for each report that is given none
        return super().__new__(cls, kind, [] if rows is None else rows,
                               sup_base, sup_extended, worst, stable, passed)

    def summary(self) -> dict:
        return {"kind": self.kind, "rows": len(self.rows),
                "sup_base": self.sup_base, "sup_extended": self.sup_extended,
                "stable": self.stable, "passed": self.passed,
                "worst": self.worst}


def _decades(kmax: int) -> list[float]:
    return [10.0 ** k for k in range(kmax + 1)]


def _graded_cuts(p: float, q: float) -> set[float]:
    """p, q and the geometric cuts p + 10^j, q - 10^j up to the midpoint.

    Integrands here vary over many decades near the endpoints and are
    flat in between, so the pieces grow geometrically away from both.
    """
    cuts = {p, q}
    step = 1.0
    while step < (q - p) / 2:
        cuts.add(p + step)
        cuts.add(q - step)
        step *= 10.0
    return cuts


def _tail_cuts(lo: float) -> set[float]:
    # graded from lo itself rather than lo * 10^j: the nearest kink of
    # an omega integrand sits one unit below lo
    return {lo} | {lo + 10.0 ** j for j in range(_TAIL_DECADES + 1)}


def _rule(cuts: set[float]):
    """Nodes and weights of the composite Gauss-Legendre rule on the
    pieces between cuts."""
    edges = np.array(sorted(cuts))
    half = np.diff(edges)[:, None] / 2
    nodes = edges[:-1, None] + half * (1 + _GL_NODES)
    return nodes.ravel(), (half * _GL_WEIGHTS).ravel()


def _integrals(params, key, cuts, f) -> np.ndarray:
    """The integrals of f(t, *p) for p in params, in their order.

    Rows with the same key(*p) have the same cut set, cuts(key), so its
    rule is built once and every such row is evaluated on it, on its
    own and with scalar parameters.
    """
    groups: dict = {}
    for i, p in enumerate(params):
        groups.setdefault(key(*p), []).append(i)
    out = np.empty(len(params))
    for k, rows in groups.items():
        nodes, weights = _rule(cuts(k))
        for i in rows:
            out[i] = np.dot(weights, f(nodes, *params[i]))
    return out


def _rows_plus(kmax: int):
    exponents = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0),
                 (1.5, 1.5), (1.0, 1.5), (1.5, 1.0)]
    params = [(alpha, beta, A, B) for alpha, beta in exponents
              for A in _decades(kmax) for B in _decades(kmax)]
    lhs = _integrals(params, lambda alpha, beta, A, B: 10.0 * max(A, B),
                     lambda cut: _graded_cuts(0.0, cut) | _tail_cuts(cut),
                     lambda t, alpha, beta, A, B:
                     (A + t) ** -alpha * (B + t) ** -beta)
    for (alpha, beta, A, B), val in zip(params, lhs.tolist()):
        shape = min(A, B) / (A ** alpha * B ** beta)
        if alpha == 1.0 and B > A:
            shape *= 1 + math.log(B / A)
        elif beta == 1.0 and A > B:
            shape *= 1 + math.log(A / B)
        yield {"alpha": alpha, "beta": beta, "A": A, "B": B,
               "lhs": val, "rhs": shape, "ratio": val / shape}


def _rows_minus(kmax: int):
    params = [(alpha, A, B) for alpha in (0.4, 0.7, 1.0)
              for A in _decades(kmax) for B in _decades(kmax) if B > 1]

    def lower(B):
        # 0, the midpoint and the cuts 10^j below it, as in _graded_cuts
        half = (B - 1) / 2
        return {0.0, half} | {10.0 ** j for j in range(kmax)
                              if 10.0 ** j < half}

    # the half next to u = B - 1 is integrated in v = B - u: nodes u
    # there would be floats of size B, and B - u of size 1 would carry
    # their rounding of ulp(B)
    lhs = (_integrals(params, lambda alpha, A, B: B, lower,
                      lambda u, alpha, A, B: (A + u) ** -alpha / (B - u))
           + _integrals(params, lambda alpha, A, B: B,
                        lambda B: {1.0 + x for x in lower(B)},
                        lambda v, alpha, A, B: (A + B - v) ** -alpha / v))
    for (alpha, A, B), val in zip(params, lhs.tolist()):
        shape = (1 + math.log(A)) / A ** alpha
        yield {"alpha": alpha, "A": A, "B": B,
               "lhs": val, "rhs": shape, "ratio": val / shape}


def _alpha_cuts(key):
    a, mid = key
    if a < 0:
        # kink of |t + a| at t = -a < mid
        cuts = _graded_cuts(0.0, -a) | _graded_cuts(-a, mid)
    else:
        cuts = _graded_cuts(0.0, mid)
    return cuts | _tail_cuts(mid)


def _rows_alpha(kmax: int):
    offsets = [s * 10.0 ** k for k in range(kmax + 1) for s in (1, -1)]
    params = [(alpha, A, a) for alpha in (0.5, 0.8, 1.0)
              for A in _decades(kmax) for a in offsets]
    lhs = _integrals(params,
                     lambda alpha, A, a: (a, max(10.0, abs(a) * 4, A * 4)),
                     _alpha_cuts,
                     lambda t, alpha, A, a:
                     (A + np.abs(t + a)) ** -alpha / (1 + t))
    for (alpha, A, a), val in zip(params, lhs.tolist()):
        shape = (1 + math.log(A)) / A ** alpha
        yield {"alpha": alpha, "A": A, "a": a,
               "lhs": val, "rhs": shape, "ratio": val / shape}


def _omega_f(t, tvec, A, eps):
    val = (1 + A + np.abs(t)) ** -(1 - eps)
    for tj in tvec:
        val = val / (1 + np.abs(t - tj))
    return val


def _omega_cuts(tvec):
    pts = sorted(set([0.0] + list(tvec)))
    lo, hi = pts[0] - 1.0, pts[-1] + 1.0
    # both tails graded away from the outermost kinks
    cuts = {-c for c in _tail_cuts(-lo)} | _tail_cuts(hi)
    segs = [lo] + pts + [hi]
    for p, q in zip(segs, segs[1:]):
        cuts |= _graded_cuts(p, q)
    return cuts


def _omega_lhs(tvec, A, eps):
    nodes, weights = _rule(_omega_cuts(tvec))
    return float(np.dot(weights, _omega_f(nodes, tvec, A, eps)))


def _rows_omega(kmax: int):
    avals = [0.0, 1.0, 100.0, 10000.0]
    params = [(tvec, A, eps) for eps in (0.1, 0.3) for T in _decades(kmax)
              for A in avals for tvec in [(0.0, T), (0.0, T, 2 * T)]]
    lhs = _integrals(params, lambda tvec, A, eps: tvec, _omega_cuts,
                     _omega_f)
    for (tvec, A, eps), val in zip(params, lhs.tolist()):
        seg = 0.0
        for j, tj in enumerate(tvec):
            prod = 1.0
            for k, tk in enumerate(tvec):
                if k != j:
                    prod /= 1 + abs(tk - tj)
            seg += prod
        shape = (1 + math.log1p(A)) / (1 + A) ** (1 - eps) * seg
        yield {"eps": eps, "T": tvec[1], "A": A, "n": len(tvec),
               "lhs": val, "rhs": shape, "ratio": val / shape}


# the entries of a row that are not grid parameters
_RESULTS = frozenset(("lhs", "rhs", "ratio"))

_KIND_ROWS = {"plus": _rows_plus, "minus": _rows_minus,
              "alpha": _rows_alpha, "omega": _rows_omega}


def verify_integral_bounds(kind: str, base_decades: int = 6,
                           extend_decades: int = 2,
                           stability_slack: float = 1.05) -> SweepReport:
    """Run the sweep for one kind and report the ratio suprema.

    The base grid spans 10^0..10^base_decades; the extension adds
    extend_decades more.  passed = all ratios finite and the extended
    supremum within stability_slack of the base supremum.  More than
    MAX_DECADES in all raises DecadeLimitError before any work.
    """
    if kind not in _KIND_ROWS:
        raise ValueError(f"unknown bound kind {kind!r}; "
                         f"expected one of {sorted(_KIND_ROWS)}")
    if base_decades + extend_decades > MAX_DECADES:
        raise DecadeLimitError(
            f"base_decades {base_decades} plus extend_decades "
            f"{extend_decades} is {base_decades + extend_decades} decades, "
            f"over the limit of {MAX_DECADES}, past which the grid leaves "
            f"the float range")
    rows_fn = _KIND_ROWS[kind]
    limit = 10.0 ** base_decades

    def bigger_params(row):
        # the grid parameters only: lhs, rhs and ratio are results
        return any(isinstance(v, float) and abs(v) > limit
                   for k, v in row.items() if k not in _RESULTS)

    rows = []
    sup_base = 0.0
    sup_ext = 0.0
    worst = None
    for row in rows_fn(base_decades + extend_decades):
        rows.append(row)
        if not math.isfinite(row["ratio"]):
            # the sweep stops at its first non-finite ratio
            return SweepReport(kind, rows, worst=row)
        if bigger_params(row):
            sup_ext = max(sup_ext, row["ratio"])
        else:
            if row["ratio"] > sup_base:
                sup_base = row["ratio"]
                worst = row
    stable = sup_ext <= sup_base * stability_slack
    return SweepReport(kind, rows, sup_base, sup_ext, worst, stable,
                       stable and math.isfinite(sup_base))
