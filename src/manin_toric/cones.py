"""Rational polyhedral cones and their characteristic functions.

A cone is stored by generators (plus an optional lineality basis for
duals of lower-dimensional cones).  All operations are exact over Q:
dual cones by double description in integers, placing triangulation
over the generators in their given order, and the characteristic
function

    X_C(z) = integral over the dual cone of exp(-<z, v>) dv

represented symbolically as a sum of terms  c_a / prod_j l_{a,j}(z),
one per simplicial piece of a triangulation of the dual.  Pushforward
to a quotient V/M is available through two independent routes: direct
projection (quotient_char) and iterated one-variable contour residues
(residue_step); they must agree wherever both apply.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .ratlinalg import (
    _eliminate,
    _integer_rows,
    _inverse,
    det_fraction,
    echelon_basis,
    nullspace_fraction,
    primitive_vector,
    rank_fraction,
)


class ConeError(ValueError):
    """Structural problem with a cone operation."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a pole; carries the vanishing form."""

    def __init__(self, form):
        self.form = tuple(form)
        super().__init__(f"form {self.form} vanishes at the evaluation point")


class ResidueError(ValueError):
    """Residue step rejected the input (coincident poles)."""


IntVec = tuple[int, ...]


class PolyhedralCone(NamedTuple):
    """Cone generated by `generators` plus the span of `lineality`.

    `measure_basis`, when given, declares the basis whose unit
    parallelepiped has volume 1 for the integrals below; default is the
    standard lattice Z^n.  Generator order is preserved: triangulation
    depends on it.
    """

    dim: int
    generators: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...] = ()
    measure_basis: tuple[tuple[Fraction, ...], ...] | None = None


def make_cone(generators: Sequence[Sequence], dim: int | None = None,
              lineality: Sequence[Sequence] = (),
              measure_basis=None) -> PolyhedralCone:
    gens = [primitive_vector(g) for g in generators if any(map(Fraction, g))]
    lin = tuple(primitive_vector(l) for l in lineality
                if any(map(Fraction, l)))
    if dim is None:
        if not gens and not lin:
            raise ConeError("cannot infer ambient dimension of empty cone")
        dim = len(gens[0]) if gens else len(lin[0])
    for v in list(gens) + list(lin):
        if len(v) != dim:
            raise ConeError(f"generator {v} has wrong dimension")
    mb = None
    if measure_basis is not None:
        mb = tuple(tuple(Fraction(x) for x in row) for row in measure_basis)
        if det_fraction(mb) == 0:
            raise ConeError("measure basis is singular")
    return PolyhedralCone(dim=dim, generators=tuple(gens),
                          lineality=lin, measure_basis=mb)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    """<a, b> exactly, for outside input: floats are read as the
    Fractions they equal."""
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _idot(a: IntVec, b: IntVec) -> int:
    return sum(map(mul, a, b))


def _dd_feasible(n: int, inequalities: Sequence[Sequence],
                 equalities: Sequence[Sequence] = ()):
    """Rays and lineality of {y : a.y >= 0, e.y = 0} by double description.

    Constraints are scaled once to integer rows and processed one at a
    time against the current minimal (lineality, rays) pair; adjacency of
    rays is decided by the rank of the common active constraints.  Two
    vectors are combined with the other one's pairing as the factor, a
    positive multiple of the rational combination, and rays are kept
    primitive, so everything stays in integers and exact.
    """
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[IntVec] = []
    processed: list[IntVec] = []

    constraints = [tuple(a) for a in _integer_rows(inequalities)[0]]
    for e in _integer_rows(equalities)[0]:
        constraints += [tuple(e), tuple(-x for x in e)]

    for a in constraints:
        if not any(a):
            continue
        hit_idx = next((k for k, l in enumerate(lin) if _idot(a, l)), None)
        if hit_idx is not None:
            l0 = lin[hit_idx]
            al0 = _idot(a, l0)
            if al0 < 0:
                l0 = tuple(-x for x in l0)
                al0 = -al0

            def drop(v):
                av = _idot(a, v)
                return tuple(al0 * x - av * h for x, h in zip(v, l0))

            lin = [primitive_vector(drop(l))
                   for k, l in enumerate(lin) if k != hit_idx]
            rays = [primitive_vector(r) for r in map(drop, rays) if any(r)]
            rays.append(l0)
        else:
            vals = [_idot(a, r) for r in rays]
            neg = [i for i, v in enumerate(vals) if v < 0]
            if neg:
                pos = [i for i, v in enumerate(vals) if v > 0]
                zero = [i for i, v in enumerate(vals) if v == 0]
                target = n - len(lin) - 2
                new_rays = [rays[i] for i in pos] + [rays[i] for i in zero]
                for ip in pos:
                    for im in neg:
                        active = [c for c in processed
                                  if _idot(c, rays[ip]) == 0
                                  and _idot(c, rays[im]) == 0]
                        if len(rays) > 2 and rank_fraction(active) != target:
                            continue
                        new_rays.append(primitive_vector(
                            [vals[ip] * x - vals[im] * y
                             for x, y in zip(rays[im], rays[ip])]))
                rays = new_rays
        processed.append(a)

    return tuple(sorted(set(rays))), echelon_basis(lin)


def dual_cone(c: PolyhedralCone) -> PolyhedralCone:
    """The cone of linear forms nonnegative on c (vanishing on lineality)."""
    rays, lin = _dd_feasible(c.dim, c.generators, c.lineality)
    mb = None
    if c.measure_basis is not None:
        # the dual basis rows are the columns of B^-1
        inv = _inverse(c.measure_basis)[1]
        if inv is None:
            raise ConeError("measure basis is singular")
        mb = tuple(tuple(map(Fraction, col)) for col in zip(*inv))
    return PolyhedralCone(dim=c.dim, generators=rays, lineality=lin,
                          measure_basis=mb)


def canonicalize(c: PolyhedralCone) -> PolyhedralCone:
    """Minimal sorted extreme-ray description (dual of the dual)."""
    d = dual_cone(c)
    rays, lin = _dd_feasible(c.dim, d.generators, d.lineality)
    return PolyhedralCone(dim=c.dim, generators=rays, lineality=lin,
                          measure_basis=c.measure_basis)


def is_pointed(c: PolyhedralCone) -> bool:
    return not canonicalize(c).lineality


def is_full_dim(c: PolyhedralCone) -> bool:
    return rank_fraction(list(c.generators) + list(c.lineality)) == c.dim


def cone_contains(c: PolyhedralCone, v: Sequence) -> bool:
    """Exact membership test via the dual description."""
    d = dual_cone(c)
    return (all(_dot(g, v) >= 0 for g in d.generators)
            and all(_dot(l, v) == 0 for l in d.lineality))


def triangulate(c: PolyhedralCone) -> list[PolyhedralCone]:
    """Placing triangulation over the generators in their given order.

    Inserts generators one by one; each new generator outside the
    current cone is joined to the boundary faces it sees.  Simplicial
    pieces are spanned by subsets of the generators, have pairwise
    disjoint interiors, and cover the cone.  Requires a pointed cone.
    """
    if c.lineality:
        raise ConeError("triangulate expects a pointed cone")
    if not c.generators:
        return []
    gens = [primitive_vector(g) for g in c.generators]
    used: list[IntVec] = [gens[0]]
    simplices: list[tuple[IntVec, ...]] = [(gens[0],)]
    for gi in gens[1:]:
        # each simplex spans the cone so far: its size is the rank
        if rank_fraction(used + [gi]) > len(simplices[0]):
            # rank jump: cone over the existing triangulation
            simplices = [s + (gi,) for s in simplices]
            used.append(gi)
            continue
        # the facets of the cone so far, needed only here
        facet_forms, _lin = _dd_feasible(c.dim, used)
        visible = [w for w in facet_forms if _idot(w, gi) < 0]
        used.append(gi)
        if not visible:
            continue  # interior generator on first appearance
        new_faces: set[tuple[IntVec, ...]] = set()
        for w in visible:
            for s in simplices:
                on_w = [x for x in s if _idot(w, x) == 0]
                if len(on_w) == len(s) - 1:
                    new_faces.add(tuple(on_w))
        for face in sorted(new_faces):
            simplices.append(face + (gi,))

    out = []
    for s in simplices:
        out.append(PolyhedralCone(dim=c.dim, generators=tuple(s),
                                  measure_basis=c.measure_basis))
    return out


class RationalConeForm(NamedTuple):
    """Sum of terms c_a / prod_j <w_{a,j}, z>, exact rationals."""

    dim: int
    terms: tuple[tuple[Fraction, tuple[tuple[Fraction, ...], ...]], ...]

    def __call__(self, z: Sequence):
        return char_evaluate(self, z)


def char_function(c: PolyhedralCone, *, density: Fraction | None = None,
                  dual_order: str = "given") -> RationalConeForm:
    """Characteristic function of c as an exact rational form.

    Triangulates the dual cone; each simplicial piece with generator
    matrix W contributes |det W| / prod_j <w_j, z>.  `density` scales
    the dual measure (it divides the coefficients); by default it is
    derived from `measure_basis`.  `dual_order` picks the insertion
    order of the dual generators ("given" = sorted output of the dual,
    "reversed" for the triangulation-independence checks).
    """
    # c contains a line iff its dual is not full-dimensional, and c is
    # full-dimensional iff its dual is pointed; the dual of c is the
    # dual of its canonical form, so no second description is needed
    dual = dual_cone(c)
    if rank_fraction(list(dual.generators) + list(dual.lineality)) < c.dim:
        raise ConeError("characteristic function diverges: cone contains a line")
    if dual.lineality:
        raise ConeError("characteristic function needs a full-dimensional cone")
    if density is None:
        if c.measure_basis is not None:
            density = 1 / abs(det_fraction(c.measure_basis))
        else:
            density = Fraction(1)
    density = Fraction(density)
    if density <= 0:
        raise ConeError("density must be positive")
    if c.dim == 0:
        return RationalConeForm(dim=0, terms=((1 / density, ()),))
    gens = list(dual.generators)
    if dual_order == "reversed":
        gens = gens[::-1]
    elif dual_order != "given":
        raise ConeError(f"unknown dual_order {dual_order!r}")
    pieces = triangulate(PolyhedralCone(dim=c.dim, generators=tuple(gens)))
    terms = []
    for piece in pieces:
        w = piece.generators
        coeff = abs(det_fraction([[w[j][i] for j in range(len(w))]
                                  for i in range(c.dim)])) / density
        forms = tuple(tuple(Fraction(x) for x in wj) for wj in w)
        terms.append((coeff, forms))
    return RationalConeForm(dim=c.dim, terms=tuple(terms))


def char_evaluate(f: RationalConeForm, z: Sequence):
    """Evaluate the rational form; exact for rational input.

    Raises PoleError naming the vanishing form if any linear factor is
    zero at z.
    """
    exact = all(isinstance(x, (int, Fraction)) for x in z)
    total = Fraction(0) if exact else 0j
    for coeff, forms in f.terms:
        denom = Fraction(1) if exact else complex(1)
        for w in forms:
            val = sum(a * b for a, b in zip(w, z)) if exact else \
                sum(complex(a) * b for a, b in zip(w, z))
            if val == 0:
                raise PoleError(w)
            denom *= val
        total += (coeff / denom) if exact else (float(coeff) / denom)
    return total


def interior_point(c: PolyhedralCone, weights: Sequence | None = None):
    """A rational interior point (positive combination of generators)."""
    cc = canonicalize(c)
    if weights is None:
        weights = [Fraction(1)] * len(cc.generators)
    v = [Fraction(0)] * cc.dim
    for wgt, g in zip(weights, cc.generators):
        for i in range(cc.dim):
            v[i] += Fraction(wgt) * g[i]
    return tuple(v)


class QuotientChar(NamedTuple):
    """Characteristic function of the image cone in V/M.

    `projection` rows are linear functionals on V: project(z) are the
    quotient coordinates, and evaluate(z) is the image-cone form at
    project(z), with the quotient-lattice measure (density folded in).
    """

    form: RationalConeForm
    projection: tuple[tuple[Fraction, ...], ...]
    m_basis: tuple[IntVec, ...]
    w_basis: tuple[IntVec, ...]
    density: Fraction

    def project(self, z: Sequence):
        return tuple(sum(row[j] * z[j] for j in range(len(row)))
                     for row in self.projection)

    def evaluate(self, z: Sequence):
        return char_evaluate(self.form, self.project(z))


def quotient_char(c: PolyhedralCone, m_basis: Sequence[Sequence]) -> QuotientChar:
    """Pushforward of X_c to V/M, computed by direct projection.

    Requires closure(c) to meet M = span(m_basis) only at 0 (checked
    exactly).  The quotient coordinates come from completing m_basis by
    greedily chosen standard basis vectors W; the quotient measure is
    the standard-lattice quotient measure, realized by the density
    |det [m_basis | W]| (divided by the declared ambient density if a
    measure basis was set).
    """
    # c is pointed iff its dual is full-dimensional, and full-dimensional
    # iff its dual is pointed
    dual = dual_cone(c)
    if rank_fraction(list(dual.generators) + list(dual.lineality)) < c.dim:
        raise ConeError("quotient_char expects a pointed cone")
    if dual.lineality:
        raise ConeError("quotient_char expects a full-dimensional cone")
    n = c.dim
    mb = tuple(primitive_vector(m) for m in m_basis)
    if not mb:
        form = char_function(c)
        ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                      for i in range(n))
        return QuotientChar(form=form, projection=ident, m_basis=(),
                            w_basis=ident, density=Fraction(1))
    k = len(mb)
    # mb read right to left: its rank, and the columns off its pivots,
    # which index the first standard basis vectors that complete it
    pivots = _eliminate([list(m[::-1]) for m in mb])[0]
    if len(pivots) != k:
        raise ConeError("m_basis is not linearly independent")
    if k > n:
        raise ConeError("m_basis larger than ambient dimension")

    # exact pre-check: closure(c) ∩ M = {0}
    # {t >= 0 : A G t = 0} must be trivial, A = basis of M-perp; c is
    # pointed, so no nonzero t >= 0 has G t = 0 and the generators need
    # not be extreme
    aperp = nullspace_fraction(mb)
    gmat = c.generators
    kk = len(gmat)
    eqs = [[_dot(arow, g) for g in gmat] for arow in aperp]
    ineqs = [[1 if i == j else 0 for j in range(kk)] for i in range(kk)]
    rays, lin = _dd_feasible(kk, ineqs, eqs)
    if rays or lin:
        raise ConeError("closure of the cone meets the subspace nontrivially")

    # the density and the projection functionals, the last r rows of
    # [m|W]^-1, from one elimination
    w_basis = tuple(tuple(int(j == i) for j in range(n))
                    for i in range(n) if n - 1 - i not in pivots)
    r = n - k
    det, inv = _inverse(list(zip(*mb, *w_basis)))
    c0 = Fraction(abs(det))
    if c.measure_basis is not None:
        c0 = c0 / abs(det_fraction(c.measure_basis))
    projection = tuple(tuple(map(Fraction, row)) for row in inv[k:])

    # the pre-check makes the image cone pointed
    images = []
    for g in c.generators:
        x = tuple(sum(projection[i][j] * g[j] for j in range(n))
                  for i in range(r))
        images.append(x)
    form = char_function(make_cone(images, dim=r), density=c0)
    return QuotientChar(form=form, projection=projection, m_basis=mb,
                        w_basis=w_basis, density=c0)


def _normalize_term(coeff: Fraction, forms: Iterable[Sequence[Fraction]]):
    """Scale each form to a primitive integer vector, positively."""
    out_forms = []
    c = Fraction(coeff)
    for f in forms:
        fv = tuple(Fraction(x) for x in f)
        prim = primitive_vector(fv)
        # positive scale s with fv = s * prim
        idx = next(i for i, x in enumerate(prim) if x != 0)
        s = fv[idx] / prim[idx]
        if s < 0:
            prim = tuple(-x for x in prim)
            s = -s
        c /= s
        out_forms.append(tuple(Fraction(x) for x in prim))
    return c, tuple(out_forms)


def residue_step(f, m0: Sequence, faces: Sequence | None = None):
    """One pushforward step (1/2pi) * integral over t of f(z + i t m0) dt.

    For each term, forms positive on m0 contribute one residue term
    each: substitute z -> z - (phi(z)/phi(m0)) m0, i.e. replace every
    other form psi by psi - (psi(m0)/phi(m0)) phi and divide the
    coefficient by phi(m0).  Terms with no positive form and at least
    one negative form integrate to zero; terms all of whose forms kill
    m0 pass through unchanged (they already live on the quotient).

    `faces`, when given, is a declared list of (form, sign) pairs; the
    sign of each form at m0 is checked against it.  Accepts a
    RationalConeForm or a raw list of (coeff, forms) terms and returns
    the same kind.
    """
    is_form = isinstance(f, RationalConeForm)
    terms = f.terms if is_form else list(f)
    m0v = tuple(Fraction(x) for x in m0)

    if faces is not None:
        for fv, sign in faces:
            val = _dot(fv, m0v)
            actual = 1 if val > 0 else (-1 if val < 0 else 0)
            if actual != sign:
                raise ResidueError(
                    f"declared sign {sign} for face {tuple(fv)} but "
                    f"the form takes value {val} at m0")

    out = []
    for coeff, forms in terms:
        vals = [_dot(w, m0v) for w in forms]
        pos = [i for i, v in enumerate(vals) if v > 0]
        negs = [i for i, v in enumerate(vals) if v < 0]
        if not pos and not negs:
            out.append((Fraction(coeff), tuple(tuple(Fraction(x) for x in w)
                                               for w in forms)))
            continue
        if not pos:
            continue  # contour closes on the pole-free side
        # simple-pole requirement: no two forms share the same pole line
        live = pos + negs
        for ii in range(len(live)):
            for jj in range(ii + 1, len(live)):
                i, j = live[ii], live[jj]
                wi, wj = forms[i], forms[j]
                if all(Fraction(wi[t]) * vals[j] == Fraction(wj[t]) * vals[i]
                       for t in range(len(wi))):
                    raise ResidueError(
                        f"coincident poles: forms {tuple(wi)} and {tuple(wj)} "
                        "collide along m0")
        for i in pos:
            phi = forms[i]
            vphi = vals[i]
            new_forms = []
            for j, psi in enumerate(forms):
                if j == i:
                    continue
                ratio = vals[j] / vphi
                new_forms.append(tuple(Fraction(psi[t]) - ratio * Fraction(phi[t])
                                       for t in range(len(psi))))
            c_new, forms_new = _normalize_term(Fraction(coeff) / vphi, new_forms)
            out.append((c_new, forms_new))
    if is_form:
        return RationalConeForm(dim=f.dim, terms=tuple(out))
    return out
