"""Fan parsing, validation, cone location, and PL evaluation."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manin_toric.fibration import hirzebruch_fan
from manin_toric.heights import exact_height, global_height, valuation_profile
from manin_toric.latticefan import (
    Fan,
    FanFormatError,
    FanValidationError,
    PLFunction,
    builtin_fan,
    fan_from_json,
    fan_to_json,
    locate_cone,
    make_fan,
    validate_fan,
)
from manin_toric import ratlinalg
from manin_toric.ratlinalg import _inverse, rank_fraction

from fan_oracles import (DOUBLE_WINDING, cone_search_height, covering_degree,
                         disguise, hexagon_fan, mutate, projective_fan,
                         relabel)


def test_builtin_fans_validate():
    for name in ["p1", "p2", "p3", "p1xp1", "hirzebruch-0", "hirzebruch-1",
                 "hirzebruch-2", "hirzebruch-3"]:
        fan = builtin_fan(name)
        validate_fan(fan)
        assert fan.name == name


def test_json_roundtrip():
    fan = builtin_fan("p2")
    again = fan_from_json(json.dumps(fan_to_json(fan)))
    assert again == fan


@pytest.mark.parametrize("bad", [
    "not json at all",
    "[1,2,3]",
    '{"dim": 2, "rays": [[1,0]]}',
    '{"dim": 0, "rays": [[1]], "maxCones": [[0]]}',
    '{"dim": 2, "rays": [[1,0],[0,1],[-1,-1]], "maxCones": [[0,5]]}',
    '{"dim": 2, "rays": [[1,0],[0,1.5],[-1,-1]], "maxCones": [[0,1]]}',
    '{"dim": 2, "rays": [], "maxCones": [[0,1]]}',
])
def test_malformed_fan_rejected(bad):
    with pytest.raises(FanFormatError):
        fan_from_json(bad)


# every Fan is checked when it is built, so invalid data never make one


def test_nonprimitive_ray_rejected():
    with pytest.raises(FanValidationError, match=r"ray \(2,\) is not primitive"):
        make_fan(1, [[2], [-1]], [[0], [1]])


def test_non_unimodular_cone_rejected():
    # cone spanned by (1,0) and (1,2) has index 2 in Z^2
    with pytest.raises(FanValidationError, match=r"maximal cone \(0, 1\) is "
                       r"not unimodular \(det=2\)"):
        make_fan(2, [[1, 0], [1, 2], [-1, -1], [0, -1]],
                 [[0, 1], [1, 2], [2, 3], [0, 3]])


def test_incomplete_fan_rejected():
    # only the first quadrant: each of its walls bounds it alone
    with pytest.raises(FanValidationError, match=r"the wall \(1,\) bounds "
                       r"only maximal cone \(0, 1\); the fan is incomplete"):
        make_fan(2, [[1, 0], [0, 1]], [[0, 1]])


def test_overlapping_cones_rejected():
    # the four quadrants and the first one again
    with pytest.raises(FanValidationError, match=r"the wall \(1,\) bounds "
                       r"maximal cones \(0, 1\), \(1, 2\), \(0, 1\), not one "
                       r"on each side; the cones overlap"):
        make_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                 [[0, 1], [0, 3], [1, 2], [2, 3], [0, 1]])


@pytest.mark.parametrize("dim, rays, cones, message", [
    # cone (0, 2) has determinant -2
    (2, [[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]],
     r"^maximal cone \(0, 2\) is not unimodular \(det=-2\)$"),
    (*DOUBLE_WINDING,
     r"^\(-2, 1\), inside maximal cone \(0, 1\), also lies in maximal cone "
     r"\(6, 7\): the cones cover R\^2 more than once$"),
    # p2 and the ray (1, 1)
    (2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [0, 2]],
     r"^ray 3 \(1, 1\) lies in no maximal cone$"),
], ids=["det-2-cone", "double-cover", "unused-ray"])
def test_fans_a_sampled_check_let_through_are_refused(dim, rays, cones,
                                                      message):
    with pytest.raises(FanValidationError, match=message) as refused:
        make_fan(dim, rays, cones)
    # the refused data, for a report
    assert refused.value.fan.rays == tuple(map(tuple, rays))


def test_every_constructor_checks():
    p2 = builtin_fan("p2")
    with pytest.raises(FanValidationError, match="incomplete"):
        dataclasses.replace(p2, max_cones=p2.max_cones[:2])
    with pytest.raises(FanValidationError, match="not primitive"):
        Fan(dim=1, rays=((1,), (-3,)), max_cones=((0,), (1,)))
    with pytest.raises(FanValidationError, match="and a maximal cone"):
        Fan(dim=2, rays=(), max_cones=())
    with pytest.raises(FanValidationError, match="lies in no maximal cone"):
        fan_from_json({"dim": 1, "rays": [[1], [-1]], "maxCones": [[0]]})


# P^n, F_n and dP6, in random bases and ray orders
PROPERTY_FANS = ([projective_fan(n) for n in range(1, 5)]
                 + [hirzebruch_fan(n) for n in range(5)] + [hexagon_fan()])
property_settings = settings(derandomize=True, deadline=None, database=None,
                             max_examples=80)


def relabellings(n_rays, dim):
    return st.tuples(
        st.permutations(range(n_rays)),
        st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                           st.integers(-2, 2)), max_size=4),
        st.booleans())


def sampled_degrees(draw, dim, rays, cones):
    """The oracle's covering degree at random integer vectors and at the
    sum of each cone's rays, where it says something."""
    vecs = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * dim),
                         min_size=8, max_size=8))
    vecs += [tuple(map(sum, zip(*(rays[j] for j in c)))) for c in cones]
    return [k for k in (covering_degree(rays, cones, v) for v in vecs)
            if k is not None]


@property_settings
@given(st.data())
def test_construction_accepts_disguised_fans(data):
    base = data.draw(st.sampled_from(PROPERTY_FANS))
    fan, _ = disguise(base, *data.draw(relabellings(len(base.rays),
                                                    base.dim)))
    degrees = sampled_degrees(data.draw, fan.dim, fan.rays, fan.max_cones)
    assert degrees and set(degrees) == {1}


@property_settings
@given(st.data(), st.sampled_from(("drop", "unused", "scale", "det2",
                                   "double")))
def test_construction_refuses_mutations(data, kind):
    """Each mutation leaves no complete regular fan, by construction:
    the check refuses it, naming the defect, and the oracle agrees where
    the covering changed."""
    if kind == "double":
        dim, rays, cones = DOUBLE_WINDING
        rays, cones = relabel(dim, rays, cones,
                              *data.draw(relabellings(len(rays), dim)))
    else:
        base = data.draw(st.sampled_from(
            [f for f in PROPERTY_FANS if f.dim > 1 or kind != "det2"]))
        fan, _ = disguise(base, *data.draw(relabellings(len(base.rays),
                                                        base.dim)))
        pick = data.draw(st.integers(0, 20))
        dim, rays, cones = mutate(fan, kind, pick)
    message = {"drop": "incomplete|lies in no maximal cone",
               "unused": "lies in no maximal cone|duplicate rays",
               "scale": "is not primitive",
               "det2": "is not unimodular|duplicate rays",
               "double": r"cover R\^2 more than once"}[kind]
    with pytest.raises(FanValidationError, match=message):
        make_fan(dim, rays, cones)
    degrees = sampled_degrees(data.draw, dim, rays, cones)
    if kind == "drop":
        # the sum of the dropped cone's rays lies in no cone left
        dropped = fan.max_cones[pick % len(fan.max_cones)]
        hole = tuple(map(sum, zip(*(rays[j] for j in dropped))))
        assert covering_degree(rays, cones, hole) == 0
    elif kind == "double":
        assert degrees and set(degrees) == {2}
    elif kind in ("unused", "scale"):
        # the cones are the same sets: the data are at fault, not the
        # covering
        assert degrees and set(degrees) == {1}


def test_cones_by_dim_p2():
    fan = builtin_fan("p2")
    assert fan.cone_count(0) == 1
    assert fan.cone_count(1) == 3
    assert fan.cone_count(2) == 3


def test_locate_cone_p2_exact():
    fan = builtin_fan("p2")
    s, coords = locate_cone(fan, (-1, -1))
    # (-1,-1) is the second ray of cone [1,2]: e2 + ray(-1,-1) coords
    assert s == 1
    assert coords == (0, 1)
    assert fan.max_cones[s] == (1, 2)


def test_locate_cone_tie_break_lowest_index():
    fan = builtin_fan("p1xp1")
    # +e1 is on the wall between cones 0 ([0,1]) and 3 ([0,3])
    s, coords = locate_cone(fan, (1, 0))
    assert s == 0
    assert coords == (1, 0)


def test_locate_cone_float_and_fraction_agree():
    fan = builtin_fan("p2")
    rng = random.Random(7)
    for _ in range(50):
        num = (rng.randint(-40, 40), rng.randint(-40, 40))
        den = rng.randint(1, 9)
        vq = (Fraction(num[0], den), Fraction(num[1], den))
        vf = (num[0] / den, num[1] / den)
        sq, cq = locate_cone(fan, vq)
        sf, cf = locate_cone(fan, vf)
        # wall points may differ in index but the PL value must agree
        rho = (1, 1, 1)
        assert PLFunction(fan, rho)(vq) == pytest.approx(
            PLFunction(fan, rho)(vf), abs=1e-9)
        if all(c > Fraction(1, 100) for c in cq):
            assert sq == sf


def test_pl_evaluate_p1_absolute_value():
    fan = builtin_fan("p1")
    rho = (1, 1)
    for v in [3, -3, Fraction(5, 2), 0]:
        assert PLFunction(fan, rho)((v,)) == abs(v)
    assert PLFunction(fan, (2, 3))((Fraction(5, 2),)) == 5
    assert PLFunction(fan, (2, 3))((Fraction(-5, 2),)) == Fraction(15, 2)


def test_pl_evaluate_p2_anticanonical():
    fan = builtin_fan("p2")
    rho = (1, 1, 1)
    assert PLFunction(fan, rho)((2, 1)) == 3
    assert PLFunction(fan, rho)((-1, -1)) == 1
    # on the cone spanned by e2 and -e1-e2 the function is v2 - 2*v1
    assert PLFunction(fan, rho)((-2, 1)) == 5
    assert PLFunction(fan, rho)((1, -3)) == 7


def test_pl_evaluate_p1xp1():
    fan = builtin_fan("p1xp1")
    rho = (1, 1, 1, 1)
    s, coords = locate_cone(fan, (3, -2))
    assert fan.max_cones[s] == (0, 3)
    assert coords == (3, 2)
    assert PLFunction(fan, rho)((3, -2)) == 5


def test_pl_wall_continuity():
    """Values on both sides of a wall approach the wall value."""
    fan = builtin_fan("hirzebruch-2")
    lam = (Fraction(1), Fraction(2), Fraction(1), Fraction(3))
    rng = random.Random(11)
    for _ in range(100):
        v = (Fraction(rng.randint(-50, 50), rng.randint(1, 7)),
             Fraction(rng.randint(-50, 50), rng.randint(1, 7)))
        base = PLFunction(fan, lam)(v)
        eps = Fraction(1, 10 ** 9)
        for dv in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
            near = PLFunction(fan, lam)((v[0] + dv[0], v[1] + dv[1]))
            assert abs(near - base) < Fraction(1, 10 ** 6)


def test_hirzebruch_zero_matches_p1xp1_values():
    f0 = builtin_fan("hirzebruch-0")
    pp = builtin_fan("p1xp1")
    rho4 = (1, 1, 1, 1)
    rng = random.Random(3)
    for _ in range(40):
        v = (rng.randint(-30, 30), rng.randint(-30, 30))
        assert PLFunction(f0, rho4)(v) == PLFunction(pp, rho4)(v)


def test_unknown_builtin():
    with pytest.raises(FanFormatError):
        builtin_fan("p17")
    with pytest.raises(FanFormatError):
        builtin_fan("hirzebruch--3")


def test_fan_is_hashable_value_object():
    a = builtin_fan("p2")
    b = builtin_fan("p2")
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, Fan)


KERNEL_FANS = ["p2", "p3", "p1xp1"] + [f"hirzebruch-{n}" for n in range(5)]
kernel_settings = settings(derandomize=True, deadline=None, database=None,
                           max_examples=60)


@st.composite
def kernels(draw):
    fan = builtin_fan(draw(st.sampled_from(KERNEL_FANS)))
    lam = tuple(draw(st.integers(1, 6)) for _ in fan.rays)
    return PLFunction(fan, lam)


def rationals(nonzero=False):
    num = st.integers(-60, 60)
    if nonzero:
        num = num.filter(bool)
    return st.one_of(num, st.builds(Fraction, num, st.integers(1, 60)))


def vectors(dim):
    return st.lists(rationals(), min_size=dim, max_size=dim).filter(
        any).map(tuple)


@kernel_settings
@given(st.data())
def test_kernel_exact_and_float_agree(data):
    pl = data.draw(kernels())
    fan = pl.fan
    v = data.draw(vectors(fan.dim))
    s, coords = pl.locate(v)
    cone = fan.max_cones[s]
    assert min(coords) >= 0
    assert tuple(sum(c * fan.rays[j][k] for c, j in zip(coords, cone))
                 for k in range(fan.dim)) == v
    vf = tuple(float(x) for x in v)
    sf, coords_f = pl.locate(vf)
    if min(coords) > 0:
        assert sf == s
    tol = 1e-9 * (1 + sum(abs(x) for x in vf))
    assert abs(pl(vf) - float(pl(v))) <= tol
    # the archimedean term the enumeration carries along a chain of
    # lattice vectors n_p, one per prime, for w = -sum_p n_p log p
    chain = data.draw(st.lists(
        st.tuples(st.sampled_from((2, 3, 5, 7, 101)),
                  st.lists(st.integers(-6, 6), min_size=fan.dim,
                           max_size=fan.dim)),
        min_size=1, max_size=5))
    carried = pl.pairings((0,) * fan.dim)
    w = [Fraction(0)] * fan.dim
    for p, n in chain:
        lq = math.log(p)
        carried = [m + lq * x for m, x in zip(carried, pl.pairings(n))]
        w = [a - Fraction(lq) * x for a, x in zip(w, n)]
    tol = 1e-9 * (1 + sum(abs(float(x)) for x in w))
    # minus its least entry is the sublinear hull psi(w) = max_t <m_t, w>
    # over the vertices of P_lambda, at most phi(w), equal for convex phi
    hull = max(sum(a * float(x) for a, x in zip(m, w)) for m in pl.vertices)
    phi_w = float(pl(tuple(w)))
    assert abs(-min(carried) - hull) <= tol
    assert hull <= phi_w + tol
    if pl.is_convex:
        assert abs(hull - phi_w) <= tol


def test_vertices_of_convex_kernels_are_the_monomials():
    for name in ("p2", "p1xp1"):
        fan = builtin_fan(name)
        pl = PLFunction(fan, (1,) * len(fan.rays))
        assert pl.vertices == pl.monomials


def test_vertices_of_hirzebruch_kernels():
    # F_2 with rho is convex, and two cones share the monomial (1, 1)
    f2 = PLFunction(builtin_fan("hirzebruch-2"), (1, 1, 1, 1))
    assert f2.is_convex and len(f2.vertices) == 3
    assert set(f2.vertices) == set(f2.monomials)
    # non-convex: the monomials (1, 5) and (4, 5) leave P_lambda, and the
    # rays (1, 0) and (-1, 1), in no common cone, meet at a vertex
    f1 = PLFunction(builtin_fan("hirzebruch-1"), (1, 5, 1, 1))
    assert not f1.is_convex
    assert f1.vertices == ((-2, -1), (1, -1), (1, 2))
    f3 = PLFunction(builtin_fan("hirzebruch-3"), (1, 1, 1, 1))
    assert set(f3.vertices) == {(-4, -1), (1, -1), (1, 2 / 3)}
    assert [type(x) for m in f3.vertices for x in m].count(float) == 1


@kernel_settings
@given(st.data())
def test_kernel_vertices_are_tight_and_feasible(data):
    pl = data.draw(kernels())
    fan = pl.fan
    for m in pl.vertices:
        slack = [l - sum(a * x for a, x in zip(m, ray))
                 for ray, l in zip(fan.rays, pl.values)]
        assert min(slack) >= -1e-12
        tight = [ray for ray, t in zip(fan.rays, slack) if abs(t) <= 1e-12]
        assert rank_fraction(tight) == fan.dim
    if pl.is_convex:
        assert set(pl.vertices) == set(pl.monomials)


def test_each_cone_eliminated_once(monkeypatch):
    # the one elimination of [A | I] per cone gives validate_fan its
    # determinant and cone_inverses its inverse
    calls = []
    eliminate = ratlinalg._eliminate
    monkeypatch.setattr(ratlinalg, "_eliminate",
                        lambda *args: calls.append(args) or eliminate(*args))
    fan = builtin_fan("p1xp1")
    assert fan.cone_inverses[1] == ((0, 1), (-1, 0))
    assert len(calls) == 4


def test_inverse_unimodular():
    mat = ((2, 1), (1, 1))
    assert _inverse(mat) == (1, ((1, -1), (-1, 2)))
    assert _inverse(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == (1, (
        (0, 0, 1), (1, 0, 0), (0, 1, 0)))
    assert _inverse(((1, 0), (0, -1))) == (-1, ((1, 0), (0, -1)))


@kernel_settings
@given(st.data())
def test_kernel_convex_iff_max_of_monomials(data):
    pl = data.draw(kernels())
    fan = pl.fan
    samples = list(fan.rays) + data.draw(
        st.lists(vectors(fan.dim), min_size=1, max_size=8))
    agree = all(
        pl(v) == max(sum(m * x for m, x in zip(mono, v))
                     for mono in pl.monomials)
        for v in samples)
    assert pl.is_convex == agree


@kernel_settings
@given(st.data())
def test_kernel_exact_height_matches_global_height(data):
    pl = data.draw(kernels())
    fan = pl.fan
    x = data.draw(st.lists(rationals(nonzero=True), min_size=fan.dim,
                           max_size=fan.dim))
    h = exact_height(fan, pl.values, x)
    assert h == pl.profile_height(valuation_profile(x).support)
    assert math.isclose(float(h), global_height(fan, pl.values, x),
                        rel_tol=1e-9)


ORACLE_FANS = ([projective_fan(n) for n in range(1, 4)]
               + [hirzebruch_fan(n) for n in range(5)])
ORACLE_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def oracle_cases(draw):
    """(fan, lambda, support): a builtin-shaped fan in a random basis and
    ray order, an integral lambda, convex or not, and a valuation profile,
    for half of the draws with -v on a wall: every n_p an integer
    combination of the rays of one cone but one, so the coordinate of -v
    on the ray left out is exactly 0."""
    base = draw(st.sampled_from(ORACLE_FANS))
    fan, _order = disguise(
        base, draw(st.permutations(range(len(base.rays)))),
        draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.integers(-2, 2)), max_size=3)),
        draw(st.booleans()))
    lam = tuple(draw(st.integers(1, 6)) for _ in fan.rays)
    primes = draw(st.lists(st.sampled_from(ORACLE_PRIMES), min_size=1,
                           max_size=4, unique=True))
    d = fan.dim
    if d > 1 and draw(st.booleans()):
        cone = draw(st.sampled_from(fan.max_cones))
        skip = draw(st.integers(0, d - 1))
        face = [fan.rays[j] for i, j in enumerate(cone) if i != skip]
        coeffs = st.lists(st.integers(-3, 3), min_size=d - 1,
                          max_size=d - 1)
        vecs = [tuple(sum(a * r[k] for a, r in zip(draw(coeffs), face))
                      for k in range(d)) for _ in primes]
    else:
        vecs = [tuple(draw(st.lists(st.integers(-4, 4), min_size=d,
                                    max_size=d))) for _ in primes]
    support = tuple((p, n) for p, n in sorted(zip(primes, vecs)) if any(n))
    return fan, lam, support


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(oracle_cases())
# F_1 under the non-convex (1, 5, 1, 1): -v = 2 log 2 (-1, 1) on the wall
# of cones 1 and 2, and the anchor point (3/2, 5)
@example((builtin_fan("hirzebruch-1"), (1, 5, 1, 1), ((2, (2, -2)),)))
@example((builtin_fan("hirzebruch-1"), (1, 5, 1, 1),
          ((2, (-1, 0)), (3, (1, 0)), (5, (0, 1)))))
# -v = log 12 (1, 0) on the wall of F_2's cones 0 and 3
@example((builtin_fan("hirzebruch-2"), (1, 1, 1, 3),
          ((2, (-2, 0)), (3, (-1, 0)))))
def test_profile_height_matches_cone_search(case):
    fan, lam, support = case
    pl = PLFunction(fan, lam)
    h = pl.profile_height(support)
    assert h == cone_search_height(fan, lam, support)
    assert isinstance(h, Fraction)
    # the rows are what the cone search reads off the cone of each n_p
    for _p, n in support:
        t = pl.locate(n)[0]
        assert pl.row(n) == tuple(
            sum((a - b) * x for a, b, x in zip(pl.monomials[t], mono, n))
            for mono in pl.monomials)
    if pl.is_convex:
        assert all(x >= 0 for _p, n in support for x in pl.row(n))


def test_profile_height_lambda_types():
    fan = builtin_fan("hirzebruch-1")
    support = ((2, (-1, 0)), (3, (1, 0)), (5, (0, 1)))
    for lam in ((1.0, 5.0, 1.0, 1.0), (Fraction(1), 5, 1, Fraction(1))):
        assert PLFunction(fan, lam).profile_height(support) == 421875
    with pytest.raises(ValueError, match="integral"):
        PLFunction(fan, (Fraction(1, 2), 5, 1, 1)).profile_height(support)
    # half-integral values whose rows are integral: the exponents decide
    p1 = builtin_fan("p1")
    for lam in ((Fraction(1, 2), Fraction(1, 2)), (0.5, 1.5)):
        for support in ((), ((3, (1,)),), ((2, (-2,)), (3, (1,)))):
            h = PLFunction(p1, lam).profile_height(support)
            assert h == cone_search_height(p1, lam, support)
    with pytest.raises(ValueError, match="integral"):
        PLFunction(p1, (Fraction(1, 2), 1)).profile_height(((3, (1,)),))
