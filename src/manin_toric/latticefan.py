"""Complete unimodular fans in Z^d and piecewise linear functions on them.

A fan is given by its rays (primitive integer vectors) and its maximal
cones (index lists into the ray array).  Every maximal cone must be
simplicial and unimodular, i.e. its rays form a basis of Z^d with
determinant +-1.  Completeness is certified combinatorially through the
Euler identity over the face poset and probabilistically through seeded
coverage sampling.

JSON schema::

    {
      "dim": 2,
      "rays": [[1, 0], [0, 1], [-1, -1]],
      "maxCones": [[0, 1], [1, 2], [0, 2]],
      "name": "p2"            # optional
    }
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

from .ratlinalg import _rref, det_fraction, solve_fraction


class FanFormatError(ValueError):
    """Raised when a fan description cannot be parsed."""


class FanValidationError(ValueError):
    """Raised when a parsed fan fails a structural requirement."""


Vector = tuple[int, ...]


def _inverse_unimodular(mat: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Inverse of an integer matrix with det +-1, as integer rows: one
    elimination takes [mat | I] to [I | mat^-1]."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(mat)]
    if len(_rref(aug, n)) < n:
        raise FanValidationError("singular cone matrix")
    if any(x.denominator != 1 for row in aug for x in row[n:]):
        raise FanValidationError("cone matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in aug)


@dataclass(frozen=True)
class Fan:
    """A complete unimodular fan in Z^dim."""

    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    name: str = ""

    @cached_property
    def cone_matrices(self) -> tuple[tuple[Vector, ...], ...]:
        """Per maximal cone, the matrix whose columns are its rays."""
        out = []
        for cone in self.max_cones:
            cols = [self.rays[j] for j in cone]
            out.append(tuple(tuple(cols[j][i] for j in range(self.dim))
                             for i in range(self.dim)))
        return tuple(out)

    @cached_property
    def cone_inverses(self) -> tuple[tuple[Vector, ...], ...]:
        """Integer inverses of the cone matrices (rows).

        For v in the cone, cone_inverses[s] @ v gives the nonnegative
        coordinates of v in the ray basis of maximal cone s.
        """
        return tuple(_inverse_unimodular(m) for m in self.cone_matrices)

    @cached_property
    def cones_by_dim(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """All cones of the fan, as sorted ray-index tuples, keyed by dimension.

        Faces of a simplicial cone are spanned by subsets of its rays, so
        the face poset is the union of the subset lattices of the maximal
        cones.  The zero cone appears as the empty tuple at dimension 0.
        """
        seen: set[tuple[int, ...]] = set()
        for cone in self.max_cones:
            idx = tuple(sorted(cone))
            n = len(idx)
            for mask in range(1 << n):
                seen.add(tuple(idx[i] for i in range(n) if mask >> i & 1))
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for face in seen:
            by_dim.setdefault(len(face), []).append(face)
        return {k: tuple(sorted(v)) for k, v in sorted(by_dim.items())}

    def cone_count(self, k: int) -> int:
        """Number of k-dimensional cones."""
        return len(self.cones_by_dim.get(k, ()))


# relative float tolerance of cone membership: a float vector v is in a
# cone when its ray coordinates are >= -_TOL * (1 + sum|v_k|)
_TOL = 1e-12


@dataclass(frozen=True)
class PLFunction:
    """A piecewise linear function on a fan, determined by its ray values.

    The one kernel for phi_lambda: cone location, exact and float
    evaluation, the dual monomials of the cones, convexity, the vertices
    of P_lambda whose pairings bound the enumeration's archimedean term,
    the rows r_n of phi(n) minus the monomials at n, and exact heights of
    valuation profiles, with per-cone and per-vector data cached on the
    instance.  Values may be int, Fraction, float or complex.
    """

    fan: Fan
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.fan.rays):
            raise ValueError("one value per ray required")

    @cached_property
    def monomials(self) -> tuple[tuple, ...]:
        """Dual monomial m_sigma of each maximal cone, <m_sigma, e_j> = lam_j
        on the rays e_j of sigma: m_sigma = inv_sigma^T lam_sigma, in the
        type of the values (int for integral lambda, by unimodularity)."""
        d = self.fan.dim
        lam = self.values
        return tuple(
            tuple(sum(inv[i][k] * lam[j] for i, j in enumerate(cone))
                  for k in range(d))
            for inv, cone in zip(self.fan.cone_inverses, self.fan.max_cones))

    @cached_property
    def is_convex(self) -> bool:
        """phi = max_sigma <m_sigma, .>: every cone's linear extension
        stays at or below lambda on every ray."""
        return all(sum(m * r for m, r in zip(mono, ray)) <= lam
                   for mono in self.monomials
                   for ray, lam in zip(self.fan.rays, self.values))

    def locate(self, v: Sequence):
        """Index of the maximal cone containing v and v's ray coordinates.

        Integer or Fraction input is handled exactly.  Points on a wall
        belong to several closed cones; the one with the lowest index in
        max_cones wins.  Float coordinates within the tolerance count as
        in the cone and are clamped at 0; when round-off pushes v outside
        every cone, the nearest cone is taken.  Returns (cone_index,
        coords).
        """
        exact = all(isinstance(x, (int, Fraction)) for x in v)
        tol = 0 if exact else -_TOL * (1.0 + sum(abs(x) for x in v))
        best = None
        for s, inv in enumerate(self.fan.cone_inverses):
            coords = tuple(sum(r * x for r, x in zip(row, v)) for row in inv)
            m = min(coords)
            if m >= tol:
                break
            if best is None or m > best[0]:
                best = (m, s, coords)
        else:
            if exact:
                raise FanValidationError(
                    f"vector {v} lies in no cone; fan incomplete")
            _m, s, coords = best
        return s, coords if exact else tuple(max(c, 0.0) for c in coords)

    def __call__(self, v: Sequence):
        """phi(v): the ray coordinates of v weighted by the ray values."""
        s, coords = self.locate(v)
        return sum(c * self.values[j]
                   for c, j in zip(coords, self.fan.max_cones[s]))

    @cached_property
    def vertices(self) -> tuple[tuple, ...]:
        """The vertices m_t of P_lambda = {m : <m, e_j> <= lambda_j on
        every ray e_j}: the solutions of <m, e_j> = lambda_j on d
        independent rays that satisfy every inequality, the maximal cones
        first in max_cones order, then the other sets of d rays, repeats
        dropped.  When phi is convex these are the cone monomials in cone
        order.  Entries are int where integral and float otherwise.
        Requires real lambda."""
        fan = self.fan
        lam = [Fraction(v) for v in self.values]
        maximal = set(map(frozenset, fan.max_cones))
        rest = (c for c in combinations(range(len(fan.rays)), fan.dim)
                if frozenset(c) not in maximal)
        found = {}
        for idx in chain(fan.max_cones, rest):
            cols = [[fan.rays[j][k] for j in idx] for k in range(fan.dim)]
            try:
                m = solve_fraction(cols, [lam[j] for j in idx])
            except ValueError:
                continue   # dependent rays
            if all(sum(a * x for a, x in zip(m, ray)) <= l
                   for ray, l in zip(fan.rays, lam)):
                found.setdefault(tuple(m), None)
        return tuple(tuple(int(x) if x.denominator == 1 else float(x)
                           for x in m) for m in found)

    def pairings(self, n: Sequence[int]) -> tuple[float, ...]:
        """The pairings <m_t, n> with the vertices of P_lambda: what the
        lattice vector n adds, per unit of log p, to the float vector the
        valuation-profile DFS carries for v = sum_p n_p log p.  Minus the
        least entry of that vector is psi(-v) = max_t <m_t, -v>, the
        sublinear hull of phi at -v: at most phi(-v), equal to it when
        phi is convex."""
        return tuple(float(sum(m * x for m, x in zip(vert, n)))
                     for vert in self.vertices)

    @cached_property
    def _rows(self) -> dict:
        """n -> row(n), filled on first use."""
        return {}

    def row(self, n: Vector) -> tuple:
        """r_n[t] = phi(n) - <m_t, n> over the cone monomials m_t, in the
        type of the values, cached per integer vector n.  The exponent
        of p in the height of a valuation profile is r_(n_p)[s], s the
        cone of the archimedean vector; r_n >= 0 when phi is convex."""
        r = self._rows.get(n)
        if r is None:
            phi = self(n)
            r = self._rows[n] = tuple(
                phi - sum(m * x for m, x in zip(mono, n))
                for mono in self.monomials)
        return r

    @cached_property
    def _int_valued(self) -> bool:
        return all(type(v) is int for v in self.values)

    def profile_height(self, support) -> Fraction:
        """Exact height of the point with valuation profile
        ((p, n_p), ...): prod_p p^(phi(n_p)) exp(phi(-v)), v = sum_p n_p
        log p, which is prod_p p^(r_(n_p)[s]) for s the cone of -v (see
        row).  For convex phi, phi(-v) = max_t <m_t, -v>, so the height
        is max_t prod_p p^(r_(n_p)[t]): integer products, no cone search.
        Otherwise s is found by exact sign tests: a ray coordinate
        -sum_p c_p log p of -v is >= 0 iff prod_p p^(c_p) <= 1.
        Raises ValueError when a row entry is not an integer, which
        integral lambda rules out; int values, the common case, need no
        check or conversion."""
        rows = [(p, self.row(n)) for p, n in support]
        if not self._int_valued:
            if any(e != int(e) for _p, r in rows for e in r):
                raise ValueError("integral lambda required")
            rows = [(p, tuple(map(int, r))) for p, r in rows]
        if self.is_convex:
            best = 0
            for t in range(len(self.monomials)):
                h = 1
                for p, r in rows:
                    h *= p ** r[t]
                if h > best:
                    best = h
            return Fraction(best)
        for s, inv in enumerate(self.fan.cone_inverses):
            if all(_log_nonpositive(row, support) for row in inv):
                break
        else:
            raise FanValidationError("no cone contains the archimedean vector")
        num = den = 1
        for p, r in rows:
            if r[s] > 0:
                num *= p ** r[s]
            elif r[s] < 0:
                den *= p ** -r[s]
        return Fraction(num, den)


def _log_nonpositive(row, support) -> bool:
    """Whether sum_p <row, n_p> log p <= 0, decided in integers."""
    num = den = 1
    for p, n in support:
        c = sum(r * x for r, x in zip(row, n))
        if c > 0:
            num *= p ** c
        elif c < 0:
            den *= p ** -c
    return num <= den


def make_fan(dim: int, rays: Sequence[Sequence[int]],
             max_cones: Sequence[Sequence[int]], name: str = "") -> Fan:
    return Fan(dim=int(dim),
               rays=tuple(tuple(int(x) for x in r) for r in rays),
               max_cones=tuple(tuple(int(i) for i in c) for c in max_cones),
               name=name)


def fan_from_json(src: str | dict) -> Fan:
    """Parse a fan from a JSON string or an already-decoded dict."""
    if isinstance(src, str):
        try:
            obj = json.loads(src)
        except json.JSONDecodeError as e:
            raise FanFormatError(f"invalid JSON: {e}") from None
    else:
        obj = src
    if not isinstance(obj, dict):
        raise FanFormatError("fan description must be a JSON object")
    for key in ("dim", "rays", "maxCones"):
        if key not in obj:
            raise FanFormatError(f"missing required key {key!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise FanFormatError("dim must be a positive integer")
    rays = obj["rays"]
    cones = obj["maxCones"]
    if not isinstance(rays, list) or not rays:
        raise FanFormatError("rays must be a nonempty list")
    if not isinstance(cones, list) or not cones:
        raise FanFormatError("maxCones must be a nonempty list")
    for r in rays:
        if (not isinstance(r, list) or len(r) != dim
                or not all(isinstance(x, int) for x in r)):
            raise FanFormatError(f"ray {r!r} is not an integer {dim}-vector")
    for c in cones:
        if not isinstance(c, list) or not all(isinstance(i, int) for i in c):
            raise FanFormatError(f"cone {c!r} is not an index list")
        if any(i < 0 or i >= len(rays) for i in c):
            raise FanFormatError(f"cone {c!r} references a missing ray")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise FanFormatError("name must be a string")
    return make_fan(dim, rays, cones, name)


def fan_to_json(fan: Fan) -> dict:
    out = {"dim": fan.dim,
           "rays": [list(r) for r in fan.rays],
           "maxCones": [list(c) for c in fan.max_cones]}
    if fan.name:
        out["name"] = fan.name
    return out


def validate_fan(fan: Fan, samples: int = 200, seed: int = 0) -> None:
    """Check the structural requirements; raise FanValidationError if violated.

    Checks: rays nonzero, primitive, and pairwise distinct; every maximal
    cone has exactly dim rays forming a unimodular basis; the Euler
    identity  sum over all cones of (-1)^dim(cone) == (-1)^dim  holds;
    and seeded random integer vectors each lie in at least one maximal
    cone, in exactly one unless on a shared boundary.
    """
    d = fan.dim
    if len(fan.rays) < d + 1:
        raise FanValidationError("a complete fan needs at least dim+1 rays")
    for r in fan.rays:
        if len(r) != d:
            raise FanValidationError(f"ray {r} has wrong dimension")
        if all(x == 0 for x in r):
            raise FanValidationError("zero vector cannot be a ray")
        if math.gcd(*r) != 1:
            raise FanValidationError(f"ray {r} is not primitive")
    if len(set(fan.rays)) != len(fan.rays):
        raise FanValidationError("duplicate rays")
    for cone in fan.max_cones:
        if len(cone) != d or len(set(cone)) != d:
            raise FanValidationError(
                f"maximal cone {cone} must have {d} distinct rays")
    if len(set(tuple(sorted(c)) for c in fan.max_cones)) != len(fan.max_cones):
        raise FanValidationError("duplicate maximal cones")
    for cone, mat in zip(fan.max_cones, fan.cone_matrices):
        det = int(det_fraction(mat))
        if abs(det) != 1:
            raise FanValidationError(
                f"maximal cone {cone} is not unimodular (det={det})")

    euler = sum((-1) ** k * fan.cone_count(k)
                for k in fan.cones_by_dim)
    if euler != (-1) ** d:
        raise FanValidationError(
            f"Euler identity fails (got {euler}, expected {(-1) ** d}); "
            "the fan does not cover Z^d")

    rng = random.Random(seed)
    for _ in range(samples):
        v = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(d))
        if all(x == 0 for x in v):
            continue
        hits = []
        interior = 0
        for s, inv in enumerate(fan.cone_inverses):
            coords = [sum(inv[i][j] * v[j] for j in range(d))
                      for i in range(d)]
            if all(c >= 0 for c in coords):
                hits.append(s)
                if all(c > 0 for c in coords):
                    interior += 1
        if not hits:
            raise FanValidationError(
                f"sample vector {v} lies in no maximal cone; fan incomplete")
        if interior > 0 and len(hits) > 1:
            raise FanValidationError(
                f"sample vector {v} is interior to one cone but contained "
                f"in {len(hits)}; cones overlap")


def locate_cone(fan: Fan, v: Sequence):
    """Index of the maximal cone containing v and v's ray coordinates;
    see PLFunction.locate."""
    return PLFunction(fan, (0,) * len(fan.rays)).locate(v)


def pl_evaluate(fan: Fan, values: Sequence, v: Sequence):
    """Evaluate the PL function with the given ray values at v; exact for
    integer or Fraction input."""
    return PLFunction(fan, tuple(values))(v)


_BUILTINS: dict[str, dict] = {
    "p1": {
        "dim": 1,
        "rays": [[1], [-1]],
        "maxCones": [[0], [1]],
    },
    "p2": {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "maxCones": [[0, 1], [1, 2], [0, 2]],
    },
    "p3": {
        "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "maxCones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    },
    "p1xp1": {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "maxCones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    },
}


def builtin_fan(name: str) -> Fan:
    """Fan by name: p1, p2, p3, p1xp1, or hirzebruch-<n> for n >= 0."""
    key = name.strip().lower()
    if key in _BUILTINS:
        spec = dict(_BUILTINS[key])
        spec["name"] = key
        return fan_from_json(spec)
    if key.startswith("hirzebruch-"):
        try:
            n = int(key.split("-", 1)[1])
        except ValueError:
            raise FanFormatError(f"bad Hirzebruch index in {name!r}") from None
        if n < 0:
            raise FanFormatError("Hirzebruch index must be >= 0")
        return make_fan(
            2,
            [[1, 0], [0, 1], [-1, n], [0, -1]],
            [[0, 1], [1, 2], [2, 3], [0, 3]],
            name=key)
    raise FanFormatError(f"unknown builtin fan {name!r}")
