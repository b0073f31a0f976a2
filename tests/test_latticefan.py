"""Fan parsing, validation, cone location, and PL evaluation."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    pl_evaluate,
    validate_fan,
)


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


def test_nonprimitive_ray_rejected():
    fan = make_fan(1, [[2], [-1]], [[0], [1]])
    with pytest.raises(FanValidationError, match="primitive"):
        validate_fan(fan)


def test_non_unimodular_cone_rejected():
    # cone spanned by (1,0) and (1,2) has index 2 in Z^2
    fan = make_fan(2, [[1, 0], [1, 2], [-1, -1], [0, -1]],
                   [[0, 1], [1, 2], [2, 3], [0, 3]])
    with pytest.raises(FanValidationError, match="unimodular"):
        validate_fan(fan)


def test_incomplete_fan_rejected():
    # only the first quadrant: Euler sum is 1 - 2 + 1 = 0, not +1
    fan = make_fan(2, [[1, 0], [0, 1]], [[0, 1]])
    with pytest.raises(FanValidationError):
        validate_fan(fan)


def test_overlapping_cones_rejected():
    # the half planes x>=0 and y>=0 overlap in the first quadrant
    fan = make_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                   [[0, 1], [0, 3], [1, 2], [2, 3], [0, 1]])
    with pytest.raises(FanValidationError):
        validate_fan(fan)


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
        assert pl_evaluate(fan, rho, vq) == pytest.approx(
            pl_evaluate(fan, rho, vf), abs=1e-9)
        if all(c > Fraction(1, 100) for c in cq):
            assert sq == sf


def test_pl_evaluate_p1_absolute_value():
    fan = builtin_fan("p1")
    rho = (1, 1)
    for v in [3, -3, Fraction(5, 2), 0]:
        assert pl_evaluate(fan, rho, (v,)) == abs(v)
    assert pl_evaluate(fan, (2, 3), (Fraction(5, 2),)) == 5
    assert pl_evaluate(fan, (2, 3), (Fraction(-5, 2),)) == Fraction(15, 2)


def test_pl_evaluate_p2_anticanonical():
    fan = builtin_fan("p2")
    rho = (1, 1, 1)
    assert pl_evaluate(fan, rho, (2, 1)) == 3
    assert pl_evaluate(fan, rho, (-1, -1)) == 1
    # on the cone spanned by e2 and -e1-e2 the function is v2 - 2*v1
    assert pl_evaluate(fan, rho, (-2, 1)) == 5
    assert pl_evaluate(fan, rho, (1, -3)) == 7


def test_pl_evaluate_p1xp1():
    fan = builtin_fan("p1xp1")
    rho = (1, 1, 1, 1)
    s, coords = locate_cone(fan, (3, -2))
    assert fan.max_cones[s] == (0, 3)
    assert coords == (3, 2)
    assert pl_evaluate(fan, rho, (3, -2)) == 5


def test_pl_wall_continuity():
    """Values on both sides of a wall approach the wall value."""
    fan = builtin_fan("hirzebruch-2")
    lam = (Fraction(1), Fraction(2), Fraction(1), Fraction(3))
    rng = random.Random(11)
    for _ in range(100):
        v = (Fraction(rng.randint(-50, 50), rng.randint(1, 7)),
             Fraction(rng.randint(-50, 50), rng.randint(1, 7)))
        base = pl_evaluate(fan, lam, v)
        eps = Fraction(1, 10 ** 9)
        for dv in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
            near = pl_evaluate(fan, lam, (v[0] + dv[0], v[1] + dv[1]))
            assert abs(near - base) < Fraction(1, 10 ** 6)


def test_hirzebruch_zero_matches_p1xp1_values():
    f0 = builtin_fan("hirzebruch-0")
    pp = builtin_fan("p1xp1")
    rho4 = (1, 1, 1, 1)
    rng = random.Random(3)
    for _ in range(40):
        v = (rng.randint(-30, 30), rng.randint(-30, 30))
        assert pl_evaluate(f0, rho4, v) == pl_evaluate(pp, rho4, v)


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
    assert abs(pl.arch(carried) - float(pl(tuple(w)))) <= tol


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
