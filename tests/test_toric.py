"""Picard data, alpha, local densities, Tamagawa products."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manin_toric import toric
from manin_toric.cones import make_cone, quotient_char
from manin_toric.fibration import hirzebruch_fan
from manin_toric.latticefan import (Fan, FanValidationError, builtin_fan,
                                    make_fan)
from manin_toric.toric import (EulerProductSpec, PicardError,
                               alpha_constant, archimedean_volume,
                               archimedean_volume_mc, count_points_mod_p,
                               euler_product_spec, leading_constant,
                               local_factor_coefficients, picard_data,
                               tamagawa_number)

from fan_oracles import disguise, hexagon_fan, projective_fan

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854


def test_picard_p1():
    pic = picard_data(builtin_fan("p1"))
    assert pic.rank == 1
    assert pic.anticanonical == (2,)
    assert set(pic.divisor_classes) == {(1,)}
    assert [tuple(g) for g in pic.effective_cone.generators] == [(1,)]


def test_picard_p2():
    pic = picard_data(builtin_fan("p2"))
    assert pic.rank == 1
    assert pic.anticanonical == (3,)
    assert set(pic.divisor_classes) == {(1,)}


def test_picard_p1xp1():
    pic = picard_data(builtin_fan("p1xp1"))
    assert pic.rank == 2
    assert sorted(pic.anticanonical) == [2, 2]
    assert len(set(pic.divisor_classes)) == 2


def test_picard_torsion_rejected():
    # (2,) and (-2,) span Q but not Z, which would put torsion in Pic:
    # the fan is refused when built
    with pytest.raises(FanValidationError,
                       match=r"^ray \(2,\) is not primitive$"):
        Fan(dim=1, rays=((2,), (-2,)), max_cones=((0,), (1,)))


@pytest.mark.parametrize("dim, rays, cones, message", [
    (2, [[1, 0], [0, 1], [-1, -1]], [[0], [1, 2], [0, 2]],
     r"maximal cone \(0,\) must have 2 distinct rays"),
    (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1, 2], [1, 2], [0, 2]],
     r"maximal cone \(0, 1, 2\) must have 2 distinct rays"),
    (1, [[2], [-3]], [[0], [1]], r"ray \(2,\) is not primitive"),
    (2, [[1, 0], [0, 1], [-1, -2]], [[0, 2], [0, 1], [1, 2]],
     r"maximal cone \(0, 2\) is not unimodular \(det=-2\)"),
    (2, [[1, 0], [2, 0], [-1, -1]], [[0, 1], [1, 2], [0, 2]],
     r"ray \(2, 0\) is not primitive"),
], ids=["one-ray", "three-rays", "det-2-ray", "det-2-cone", "singular"])
def test_picard_needs_a_unimodular_first_cone(dim, rays, cones, message):
    # picard_data reads Pic off the inverse of the first cone, which
    # every Fan has: a fan without one is refused when built
    with pytest.raises(FanValidationError, match=f"^{message}$"):
        make_fan(dim, rays, cones)


def orthant_alpha(fan):
    """The coordinate orthant of Z^J pushed through the quotient by M, the
    image of the character lattice, at (1, ..., 1)."""
    J = len(fan.rays)
    orthant = make_cone([[int(i == j) for i in range(J)] for j in range(J)])
    m_basis = [[ray[i] for ray in fan.rays] for i in range(fan.dim)]
    return quotient_char(orthant, m_basis)((1,) * J)


# P^n has alpha 1/(n + 1), F_n 1/(2n + 4) and dP6 1/12
PICARD_FANS = ([projective_fan(n) for n in (1, 2, 3)]
               + [hirzebruch_fan(n) for n in range(7)] + [hexagon_fan()])
PICARD_ALPHA = ([Fraction(1, n + 1) for n in (1, 2, 3)]
                + [Fraction(1, 2 * n + 4) for n in range(7)]
                + [Fraction(1, 12)])


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(base=st.sampled_from(range(len(PICARD_FANS))),
       order=st.permutations(range(6)),
       ops=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(-3, 3)), max_size=4),
       flip=st.booleans(), first=st.integers(0, 5))
def test_picard_lattice_off_the_first_cone(base, order, ops, flip, first):
    # a fan of P^1-P^3, F_0-F_6 or dP6 in a random basis, ray order and
    # choice of first cone
    fan, _ = disguise(PICARD_FANS[base], order, ops, flip)
    s = first % len(fan.max_cones)
    fan = make_fan(fan.dim, fan.rays, fan.max_cones[s:] + fan.max_cones[:s])
    pic = picard_data(fan)
    J, sigma = len(fan.rays), fan.max_cones[0]
    rest = [k for k in range(J) if k not in sigma]
    assert pic.rank == len(rest) == J - fan.dim
    # the projection kills M: every row (<m, e_j>)_j of a coordinate m
    for i in range(fan.dim):
        assert pic.project([ray[i] for ray in fan.rays]) == (0,) * pic.rank
    # the classes of the rays outside sigma are the basis
    for b, k in enumerate(rest):
        assert pic.divisor_classes[k] == tuple(int(i == b)
                                               for i in range(pic.rank))
    assert tuple(map(sum, zip(*pic.divisor_classes))) == pic.anticanonical
    alpha = alpha_constant(fan)
    assert alpha == PICARD_ALPHA[base] == orthant_alpha(fan)


def test_alpha_exact_values():
    assert alpha_constant(builtin_fan("p1")) == Fraction(1, 2)
    assert alpha_constant(builtin_fan("p2")) == Fraction(1, 3)
    assert alpha_constant(builtin_fan("p1xp1")) == Fraction(1, 4)
    assert alpha_constant(builtin_fan("hirzebruch-1")) == Fraction(1, 6)
    assert alpha_constant(builtin_fan("hirzebruch-2")) == Fraction(1, 8)


ALPHA_FANS = ["p1", "p2", "p3", "p1xp1"] + [f"hirzebruch-{n}"
                                            for n in range(9)]


def relabeled(fan, perm):
    """The same fan with ray perm[i] moved to index i."""
    inv = {old: new for new, old in enumerate(perm)}
    return make_fan(fan.dim, [fan.rays[i] for i in perm],
                    [sorted(inv[i] for i in c) for c in fan.max_cones])


def test_alpha_two_routes_agree():
    for name in ALPHA_FANS:
        fan = builtin_fan(name)
        alpha = alpha_constant(fan)
        assert isinstance(alpha, Fraction)
        assert alpha == orthant_alpha(fan), name


def test_alpha_ray_relabeling_invariance():
    for name in ALPHA_FANS:
        fan = builtin_fan(name)
        J = len(fan.rays)
        for perm in (list(range(J))[::-1], list(range(1, J)) + [0]):
            shuffled = relabeled(fan, perm)
            assert alpha_constant(shuffled) == alpha_constant(fan), name
    fan = builtin_fan("hirzebruch-2")
    assert alpha_constant(relabeled(fan, [3, 1, 0, 2])) == Fraction(1, 8)


@pytest.mark.parametrize("anticanonical", [(1, 0), (0, 3), (-1, 2)])
def test_alpha_rejects_anticanonical_off_the_interior(monkeypatch,
                                                      anticanonical):
    # the effective cone of P^1 x P^1 is the orthant: -K moved onto a
    # boundary ray, or out of the cone, has a nonpositive linear factor
    pic = picard_data(builtin_fan("p1xp1"))
    assert pic.effective_cone.generators == ((1, 0), (0, 1))
    moved = pic._replace(anticanonical=anticanonical)
    monkeypatch.setattr(toric, "picard_data", lambda fan: moved)
    with pytest.raises(PicardError, match="not interior"):
        alpha_constant(builtin_fan("p1xp1"))


@pytest.mark.parametrize("name", ALPHA_FANS)
def test_alpha_takes_one_double_description(dd_calls, name):
    alpha_constant(builtin_fan(name))
    assert len(dd_calls) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_count_points_formulas(p):
    assert count_points_mod_p(builtin_fan("p1"), p) == p + 1
    assert count_points_mod_p(builtin_fan("p2"), p) == p * p + p + 1
    for n in (0, 1, 2):
        fan = builtin_fan(f"hirzebruch-{n}")
        assert count_points_mod_p(fan, p) == (p + 1) ** 2


def test_local_factor_coefficients():
    assert local_factor_coefficients(builtin_fan("p1")) == (1, 0, -1)
    assert local_factor_coefficients(builtin_fan("p2")) == (1, 0, 0, -1)
    # (1 - x^2)^2 for any Hirzebruch surface
    assert local_factor_coefficients(builtin_fan("p1xp1")) == (1, 0, -2, 0, 1)
    assert local_factor_coefficients(
        builtin_fan("hirzebruch-2")) == (1, 0, -2, 0, 1)


def test_euler_spec_local_factor_bound():
    for name in ("p1", "p2", "p1xp1"):
        spec = euler_product_spec(builtin_fan(name))
        C = spec.tail_constant
        for p in (2, 3, 5, 7, 11, 13, 97, 199):
            f = spec.local_factor(p)
            assert abs(f - 1) * p * p <= C
            # factor equals the density definition
            r = spec.rank
            assert f == Fraction(p - 1, p) ** r * spec.local_density(p)


def test_archimedean_volume_exact():
    assert archimedean_volume(builtin_fan("p1")) == 4.0
    assert archimedean_volume(builtin_fan("p2")) == 12.0
    assert archimedean_volume(builtin_fan("p1xp1")) == 16.0
    assert archimedean_volume(builtin_fan("hirzebruch-2")) == 16.0


@pytest.mark.parametrize("name", ["p1", "p2", "p1xp1"])
def test_archimedean_volume_monte_carlo(name):
    fan = builtin_fan(name)
    exact = archimedean_volume(fan)
    est, se = archimedean_volume_mc(fan, samples=6000, seed=11)
    assert abs(est - exact) <= 3 * se
    assert abs(est - exact) / exact < 0.1


def test_tamagawa_targets_quick():
    # small pmax here; the full pmax = 10^6 run is an acceptance check
    t1 = tamagawa_number(builtin_fan("p1"), pmax=20000)
    assert t1.contains(4 / ZETA2)
    t2 = tamagawa_number(builtin_fan("p2"), pmax=20000)
    assert t2.contains(12 / ZETA3)
    t3 = tamagawa_number(builtin_fan("p1xp1"), pmax=20000)
    assert t3.contains(16 / ZETA2 ** 2)
    for t in (t1, t2, t3):
        assert (t.upper - t.lower) / t.value < 1e-2
        assert t.lower < t.value < t.upper


def test_tamagawa_pmax_guard():
    with pytest.raises(ValueError):
        tamagawa_number(builtin_fan("p1"), pmax=1)


def test_leading_constant_anchors():
    lc = leading_constant(builtin_fan("p1"), pmax=50000)
    assert lc.alpha == Fraction(1, 2)
    assert lc.b == 1
    assert lc.lower <= 12 / math.pi ** 2 <= lc.upper
    assert abs(lc.theta - 12 / math.pi ** 2) < 1e-4

    lc2 = leading_constant(builtin_fan("p1xp1"), pmax=50000)
    assert lc2.b == 2
    assert abs(lc2.theta - 144 / math.pi ** 4) < 1e-4

    lcp2 = leading_constant(builtin_fan("p2"), pmax=50000)
    assert abs(lcp2.theta - 4 / ZETA3) < 1e-4


def test_predict_main_term():
    lc = leading_constant(builtin_fan("p1xp1"), pmax=5000)
    B = 1e4
    expected = lc.theta * B * math.log(B)
    assert abs(lc.predict(B) - expected) < 1e-9 * expected
    assert lc.predict(1.0) == 0.0
