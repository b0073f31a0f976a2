"""Complete regular fans in Z^d and piecewise linear functions on them.

A fan is given by its rays (primitive integer vectors) and its maximal
cones (index lists into the ray array).  Every Fan is complete and
regular by construction: its maximal cones are d rays with determinant
+-1 and cover R^d exactly once, which `validate_fan` checks exactly, in
integers, when the Fan is built.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .ratlinalg import _inverse, solve_fraction


class FanFormatError(ValueError):
    """Raised when a fan description cannot be parsed."""


class FanValidationError(ValueError):
    """Raised when fan data are not a complete regular fan; when a Fan
    refuses them, `fan` holds it, for reporting its data."""


Vector = tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """A complete regular fan in Z^dim, checked when built."""

    dim: int
    rays: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        try:
            validate_fan(self)
        except FanValidationError as e:
            e.fan = self
            raise

    @cached_property
    def _eliminated(self) -> tuple:
        """(det A, rows of A^-1) per maximal cone, A its rays as columns:
        one elimination of [A | I] each, for validate_fan and the inverses."""
        return tuple(_inverse(tuple(zip(*(self.rays[j] for j in cone))))
                     for cone in self.max_cones)

    @cached_property
    def cone_inverses(self) -> tuple[tuple[Vector, ...], ...]:
        """Integer inverses, as rows, of the matrices whose columns are
        the rays of each maximal cone.

        For v in the cone, cone_inverses[s] @ v gives the nonnegative
        coordinates of v in the ray basis of maximal cone s.
        """
        return tuple(inv for _det, inv in self._eliminated)

    @cached_property
    def cones_by_dim(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """All cones of the fan, as sorted ray-index tuples, keyed by dimension.

        Faces of a simplicial cone are spanned by subsets of its rays, so
        the face poset is the union of the subset lattices of the maximal
        cones.  The zero cone appears as the empty tuple at dimension 0.
        """
        faces = {face for cone in self.max_cones
                 for k in range(self.dim + 1)
                 for face in combinations(sorted(cone), k)}
        return {k: tuple(sorted(f for f in faces if len(f) == k))
                for k in range(self.dim + 1)}

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
            _m, s, coords = best   # float round-off, the fan is complete
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
        dropped.  On a maximal cone the solution is its monomial.  When
        phi is convex no other set is solved: every m in P_lambda has
        <m, v> <= phi(v) = max_t <m_t, v> at every v, so P_lambda is the
        hull of the monomials.  Entries are int where integral and float
        otherwise.  Requires real lambda."""
        fan, pl = self.fan, self
        if not all(isinstance(v, (int, Fraction)) for v in self.values):
            pl = PLFunction(fan, tuple(map(Fraction, self.values)))
        found = dict.fromkeys(pl.monomials)
        if not pl.is_convex:
            maximal = set(map(frozenset, fan.max_cones))
            for idx in combinations(range(len(fan.rays)), fan.dim):
                if frozenset(idx) in maximal:
                    continue
                cols = [[fan.rays[j][k] for j in idx] for k in range(fan.dim)]
                try:
                    found.setdefault(tuple(solve_fraction(
                        cols, [pl.values[j] for j in idx])))
                except ValueError:
                    pass   # dependent rays
        return tuple(tuple(int(x) if x.denominator == 1 else float(x)
                           for x in m) for m in found
                     if all(sum(a * x for a, x in zip(m, ray)) <= lam
                            for ray, lam in zip(fan.rays, pl.values)))

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
        s = next(s for s, inv in enumerate(self.fan.cone_inverses)
                 if all(_log_nonpositive(row, support) for row in inv))
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


def fan_from_json(src: str | dict, name: str = "") -> Fan:
    """Parse a fan from a JSON string or an already-decoded dict; name
    names it when the description does not."""
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
    given = obj.get("name", "")
    if not isinstance(given, str):
        raise FanFormatError("name must be a string")
    return make_fan(dim, rays, cones, given or name)


def fan_to_json(fan: Fan) -> dict:
    out = {"dim": fan.dim,
           "rays": [list(r) for r in fan.rays],
           "maxCones": [list(c) for c in fan.max_cones]}
    if fan.name:
        out["name"] = fan.name
    return out


def validate_fan(fan: Fan) -> None:
    """Check exactly, in integers, that fan is a complete regular fan;
    raise FanValidationError naming the first defect.  Every Fan runs
    this when it is built.

    The rays must be primitive, distinct and each in a maximal cone; the
    maximal cones d = dim distinct rays with determinant +-1; each wall
    (a maximal cone's rays but one) in exactly two maximal cones whose
    other rays lie on opposite sides of it: the determinants of the
    wall's rays, in one order, and the other ray have opposite signs;
    and the sum v of the first cone's rays in no other maximal cone.

    Then the cones cover R^d once.  For d = 1 the one wall is empty: two
    cones, the half lines of +1 and -1.  For d >= 2 let N(x) count the
    cones holding a point x on no wall.  A path between two such points
    can avoid the faces of dimension d - 2 and the intersections of two
    distinct wall hyperplanes, of codimension 2, and cross walls at
    isolated points y.  A cone holding y inside counts on both sides; one
    holding y on its boundary has y inside one facet, a wall, and counts
    on the side opposite the other cone of that wall.  So N is constant,
    and N(v) = 1, v being inside the first cone and in no other.  So the
    closed cones cover R^d, with disjoint interiors.
    """
    d, rays, cones = fan.dim, fan.rays, fan.max_cones
    if d < 1 or not cones:
        raise FanValidationError("a fan needs dim >= 1 and a maximal cone")
    for r in rays:
        if len(r) != d:
            raise FanValidationError(f"ray {r} has wrong dimension")
        if math.gcd(*r) != 1:
            raise FanValidationError(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise FanValidationError("duplicate rays")
    for cone in cones:
        if len(cone) != d or len(set(cone)) != d:
            raise FanValidationError(
                f"maximal cone {cone} must have {d} distinct rays")
        if min(cone) < 0 or max(cone) >= len(rays):
            raise FanValidationError(
                f"maximal cone {cone} references a missing ray")
    unused = set(range(len(rays))).difference(*cones)
    if unused:
        j = min(unused)
        raise FanValidationError(f"ray {j} {rays[j]} lies in no maximal cone")
    walls: dict[tuple[int, ...], list] = {}
    for cone, (det, _inv) in zip(cones, fan._eliminated):
        if abs(det) != 1:
            raise FanValidationError(
                f"maximal cone {cone} is not unimodular (det={det})")
        # the sign of det(the wall's rays ascending, then the ray left
        # out): sort the rays, then move that one from place k to the end
        idx = sorted(cone)
        det *= (-1) ** sum(a > b for a, b in combinations(cone, 2))
        for k in range(d):
            walls.setdefault(tuple(idx[:k] + idx[k + 1:]), []).append(
                (cone, det * (-1) ** (d - 1 - k)))
    for wall, where in walls.items():
        if len(where) == 1:
            raise FanValidationError(
                f"the wall {wall} bounds only maximal cone {where[0][0]}; "
                "the fan is incomplete")
        if len(where) > 2 or where[0][1] == where[1][1]:
            raise FanValidationError(
                f"the wall {wall} bounds maximal cones "
                f"{', '.join(str(c) for c, _ in where)}, not one on each "
                "side; the cones overlap")
    v = tuple(map(sum, zip(*(rays[j] for j in cones[0]))))
    for cone, inv in zip(cones[1:], fan.cone_inverses[1:]):
        if all(sum(a * x for a, x in zip(row, v)) >= 0 for row in inv):
            raise FanValidationError(
                f"{v}, inside maximal cone {cones[0]}, also lies in maximal "
                f"cone {cone}: the cones cover R^{d} more than once")


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
