"""Dual cones, triangulation, characteristic functions, pushforwards."""

import random
from fractions import Fraction

import pytest

from manin_toric.cones import (
    ConeError,
    PoleError,
    RationalConeForm,
    ResidueError,
    canonicalize,
    char_evaluate,
    char_function,
    cone_contains,
    dual_cone,
    interior_point,
    is_full_dim,
    is_pointed,
    make_cone,
    quotient_char,
    residue_step,
    triangulate,
)

from manin_toric.ratlinalg import rank_fraction
from quad_oracles import char_quadrature


def frac(a, b=1):
    return Fraction(a, b)


def rand_interior(cone, rng):
    # wide range keeps seeded draws clear of the routes' apparent poles
    cc = canonicalize(cone)
    w = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 997))
         for _ in cc.generators]
    return interior_point(cc, w)


# ---------------------------------------------------------------- duals


def test_dual_orthant_self_dual():
    for n in (2, 3):
        orth = make_cone([[1 if j == i else 0 for j in range(n)]
                          for i in range(n)])
        d = dual_cone(orth)
        assert set(d.generators) == set(orth.generators)
        assert d.lineality == ()


def test_dual_plane_cone():
    c = make_cone([[1, 0], [1, 2]])
    d = dual_cone(c)
    assert set(d.generators) == {(0, 1), (2, -1)}
    dd = dual_cone(d)
    assert set(dd.generators) == {(1, 0), (1, 2)}


def test_dual_of_lower_dim_cone_has_lineality():
    c = make_cone([[1, 0]], dim=2)
    d = dual_cone(c)
    # forms nonneg on the ray: half plane {y1 >= 0} = ray(e1) + span(e2)
    assert d.generators == ((1, 0),)
    assert d.lineality == ((0, 1),)


def test_dual_square_cone():
    c = make_cone([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    d = dual_cone(c)
    assert set(d.generators) == {(1, 1, 1), (1, -1, 1), (-1, 1, 1),
                                 (-1, -1, 1)}


def test_dual_zero_cone_is_everything():
    z = make_cone([], dim=2)
    d = dual_cone(z)
    assert d.generators == ()
    assert len(d.lineality) == 2


def test_canonicalize_drops_redundant_generator():
    c = make_cone([[1, 0], [1, 1], [0, 1]])
    cc = canonicalize(c)
    assert set(cc.generators) == {(1, 0), (0, 1)}
    assert is_pointed(c)
    assert not is_pointed(make_cone([[1, 0], [-1, 0], [0, 1]]))


def test_cone_contains():
    c = make_cone([[1, 0], [1, 2]])
    assert cone_contains(c, (1, 1))
    assert cone_contains(c, (1, 0))
    assert not cone_contains(c, (0, 1))
    assert not cone_contains(c, (-1, 0))


# --------------------------------------------------------- triangulation


def test_triangulate_simplicial_identity():
    c = make_cone([[1, 0], [0, 1]])
    pieces = triangulate(c)
    assert len(pieces) == 1
    assert set(pieces[0].generators) == {(1, 0), (0, 1)}


def test_triangulate_planar_fan_out():
    # three generators in angular order; middle one is interior
    c = make_cone([[1, 0], [1, 1], [0, 1]])
    pieces = triangulate(c)
    got = [set(p.generators) for p in pieces]
    assert got == [{(1, 0), (1, 1)}, {(1, 1), (0, 1)}]


def test_triangulate_square_cone():
    gens = [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]
    pieces = triangulate(make_cone(gens))
    assert len(pieces) == 2
    # pieces tile: sampled points are in exactly one piece interior
    rng = random.Random(5)
    for _ in range(60):
        w = [Fraction(rng.randint(1, 30)) for _ in range(4)]
        v = tuple(sum(w[i] * Fraction(gens[i][j]) for i in range(4))
                  for j in range(3))
        hits = sum(cone_contains(p, v) for p in pieces)
        assert hits >= 1


@pytest.mark.parametrize("gens", [
    [[1, 0], [1, 1], [0, 1]],
    [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]],
    # a planar cone placed inside Z^3 before the rank jump to 3
    [[1, 0, 0], [0, 1, 0], [1, 1, 0], [-1, 2, 0], [0, 0, 1], [1, 1, 1]],
    # an interior generator first, then one that sees a facet
    [[1, 0], [0, 1], [1, 1], [-1, 3]],
])
def test_triangulate_describes_only_where_facets_are_read(dd_calls, gens):
    # a generator that starts the cone or raises its rank needs no
    # facets; every other one needs those of the cone placed so far
    want = [i for i in range(1, len(gens))
            if rank_fraction(gens[:i + 1]) == rank_fraction(gens[:i])]
    triangulate(make_cone(gens))
    # generator i reads the facets of the first i generators
    assert [len(ineqs) for _n, ineqs in dd_calls] == want


def test_triangulate_rejects_line():
    with pytest.raises(ConeError):
        triangulate(make_cone([], dim=2,
                              lineality=[[1, 0]]))


# ----------------------------------------------------- char functions


def test_char_orthant():
    f = char_function(make_cone([[1, 0], [0, 1]]))
    assert len(f.terms) == 1
    coeff, forms = f.terms[0]
    assert coeff == 1
    assert set(forms) == {(Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(1))}
    assert char_evaluate(f, (Fraction(2), Fraction(3))) == Fraction(1, 6)


def test_char_ray_one_dim():
    f = char_function(make_cone([[1]]))
    assert char_evaluate(f, (Fraction(5),)) == Fraction(1, 5)


def test_char_plane_cone_exact_value():
    f = char_function(make_cone([[1, 0], [1, 2]]))
    # dual is cone{(0,1),(2,-1)}: X = 2/(z2 * (2 z1 - z2))
    assert char_evaluate(f, (Fraction(3), Fraction(1))) == Fraction(2, 5)


def test_char_rejects_line_in_closure():
    # a line outranks lower dimension: span{(1,0)} is both
    for cone in (make_cone([[1, 0], [-1, 0]]),
                 make_cone([[1, 0], [-1, 0], [0, 1]]),   # a half-plane
                 make_cone([[1, 0, 0], [-1, 0, 0]]),
                 make_cone([], dim=2, lineality=[[1, 0]])):
        with pytest.raises(ConeError) as err:
            char_function(cone)
        assert str(err.value) == ("characteristic function diverges: "
                                  "cone contains a line")


def test_char_rejects_lower_dimensional():
    for gens in ([[1, 0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ConeError) as err:
            char_function(make_cone(gens))
        assert str(err.value) == ("characteristic function needs a "
                                  "full-dimensional cone")


@pytest.mark.parametrize("gens", [
    [[1, 0], [0, 1]],
    [[1, 0], [1, 2]],
    [[2, -1], [1, 3]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
])
def test_char_simplicial_takes_one_double_description(dd_calls, gens):
    char_function(make_cone(gens))
    assert len(dd_calls) == 1


def test_char_homogeneity_exact():
    f = char_function(make_cone([[1, 0], [1, 2]]))
    z = (Fraction(5, 2), Fraction(1, 3))
    t = Fraction(7, 3)
    tz = tuple(t * x for x in z)
    assert char_evaluate(f, tz) == char_evaluate(f, z) / t ** 2


def test_char_positive_on_interior():
    rng = random.Random(1)
    c = make_cone([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]])
    f = char_function(c)
    for _ in range(30):
        z = rand_interior(c, rng)
        assert char_evaluate(f, z) > 0


def test_char_triangulation_order_independence():
    c = make_cone([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]])
    f1 = char_function(c)
    f2 = char_function(c, dual_order="reversed")
    rng = random.Random(2)
    for _ in range(100):
        z = rand_interior(c, rng)
        a = char_evaluate(f1, z)
        b = char_evaluate(f2, z)
        assert a == b  # both exact rationals


def test_char_pole_error_names_form():
    f = char_function(make_cone([[1, 0], [0, 1]]))
    with pytest.raises(PoleError) as err:
        char_evaluate(f, (Fraction(1), Fraction(0)))
    assert err.value.form == (Fraction(0), Fraction(1))


def test_char_declared_measure_basis():
    # basis (2e1, e2): unit cell has volume 1 => X doubles
    c = make_cone([[1, 0], [0, 1]], measure_basis=[[2, 0], [0, 1]])
    f = char_function(c)
    assert char_evaluate(f, (Fraction(1), Fraction(1))) == 2


@pytest.mark.parametrize("gens,z", [
    ([[1, 0], [0, 1]], (2.0, 3.0)),
    ([[1, 0], [1, 2]], (3.0, 1.0)),
    ([[2, -1], [1, 3]], (2.5, 1.25)),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1.0, 2.0, 3.0)),
    ([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]], (0.5, 0.25, 3.0)),
])
def test_char_matches_quadrature(gens, z):
    f = char_function(make_cone(gens))
    sym = char_evaluate(f, z)
    num = char_quadrature(gens, z)
    assert abs(sym - num) <= 1e-6 * abs(num)


# ------------------------------------------------------- quotient route


def test_quotient_orthant_antidiagonal():
    c = make_cone([[1, 0], [0, 1]])
    q = quotient_char(c, [[1, -1]])
    assert q.projection == ((Fraction(1), Fraction(1)),)
    assert q.evaluate((Fraction(1), Fraction(1))) == Fraction(1, 2)
    # against the contour-integral definition (1/2pi) \int X(z + i t m) dt
    import numpy as np
    from scipy.integrate import quad
    z = (2.0, 1.5)

    def integrand(t):
        val = 1.0 / ((z[0] + 1j * t) * (z[1] - 1j * t))
        return val.real

    num, _ = quad(integrand, -np.inf, np.inf, limit=600)
    assert abs(num / (2 * np.pi) - 2 / 7) < 1e-6
    assert abs(q.evaluate(z) - 2 / 7) < 1e-12  # float path returns complex


def test_quotient_trivial_subspace():
    c = make_cone([[1, 0], [1, 2]])
    q = quotient_char(c, [])
    f = char_function(c)
    assert q.form.terms == f.terms


def test_quotient_r3_fixture_exact():
    c = make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    q = quotient_char(c, [[1, 1, -2]])
    rng = random.Random(3)
    for _ in range(20):
        z = rand_interior(c, rng)
        val = q.evaluate(z)
        z1, z2, z3 = z
        assert val == 2 / ((z3 + 2 * z1) * (z3 + 2 * z2))


def test_quotient_rejects_subspace_meeting_cone():
    c = make_cone([[1, 0], [0, 1]])
    with pytest.raises(ConeError):
        quotient_char(c, [[1, 1]])


def test_quotient_rejects_line_before_lower_dimension():
    for cone, msg in ((make_cone([[1, 0], [-1, 0]]), "a pointed cone"),
                      (make_cone([], dim=2, lineality=[[1, 0]]),
                       "a pointed cone"),
                      (make_cone([[1, 0, 0], [0, 1, 0]]),
                       "a full-dimensional cone")):
        with pytest.raises(ConeError) as err:
            quotient_char(cone, [])
        assert str(err.value) == "quotient_char expects " + msg


def test_quotient_ignores_redundant_generators():
    # (1, 1, 0) and a repeat lie in the orthant: the pushforward is the
    # orthant's, with its projection and density
    orthant = make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    padded = make_cone([[1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                        [1, 0, 0]])
    for mb in ([[1, 1, -2]], [[1, -1, 3]]):
        q, p = quotient_char(orthant, mb), quotient_char(padded, mb)
        assert (p.form, p.projection, p.density) == \
            (q.form, q.projection, q.density)


def test_quotient_density_from_index():
    # M = span{(1,1,-2)}: completing with e1, e2 gives index 2
    c = make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    q = quotient_char(c, [[1, 1, -2]])
    assert q.density == 2


# -------------------------------------------------------- residue route


def test_residue_single_step_orthant2():
    f = char_function(make_cone([[1, 0], [0, 1]]))
    out = residue_step(f, (1, -1))
    assert len(out.terms) == 1
    coeff, forms = out.terms[0]
    assert coeff == 1
    assert forms == ((Fraction(1), Fraction(1)),)


def test_residue_zero_dim_convention():
    f = char_function(make_cone([[1]]))
    out = residue_step(f, (1,))
    assert out.terms == ((Fraction(1), ()),)
    assert char_evaluate(out, (Fraction(7),)) == 1


def test_residue_all_forms_kill_direction():
    terms = [(Fraction(1), ((Fraction(1), Fraction(0), Fraction(0)),
                            (Fraction(0), Fraction(1), Fraction(0))))]
    out = residue_step(terms, (0, 0, 1))
    assert out == terms


def test_residue_no_positive_faces_drops_term():
    f = char_function(make_cone([[1, 0], [0, 1]]))
    out = residue_step(f, (-1, -1))
    assert out.terms == ()


def test_residue_rejects_coincident_poles():
    terms = [(Fraction(1), ((Fraction(1), Fraction(0)),
                            (Fraction(2), Fraction(0))))]
    with pytest.raises(ResidueError):
        residue_step(terms, (1, 0))


def test_residue_faces_declaration_checked():
    f = char_function(make_cone([[1, 0], [0, 1]]))
    ok = [((1, 0), 1), ((0, 1), -1)]
    residue_step(f, (1, -1), faces=ok)
    bad = [((1, 0), -1)]
    with pytest.raises(ResidueError):
        residue_step(f, (1, -1), faces=bad)


def test_residue_matches_quotient_r3():
    c = make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = char_function(c)
    out = residue_step(f, (1, 1, -2))
    q = quotient_char(c, [[1, 1, -2]])
    rng = random.Random(4)
    for _ in range(50):
        z = rand_interior(c, rng)
        assert char_evaluate(out, z) == q.evaluate(z)


def test_residue_iterated_matches_quotient_both_orders():
    c = make_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = char_function(c)
    m1, m2 = (1, -1, 0), (0, 1, -1)
    q = quotient_char(c, [m1, m2])
    r12 = residue_step(residue_step(f, m1), m2)
    r21 = residue_step(residue_step(f, m2), m1)
    rng = random.Random(6)
    for _ in range(50):
        z = rand_interior(c, rng)
        expect = q.evaluate(z)
        assert char_evaluate(r12, z) == expect
        assert char_evaluate(r21, z) == expect
