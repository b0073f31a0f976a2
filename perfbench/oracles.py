"""Correctness checks on benchmark artifacts, independent of the counting
engine under test.

``check(argv, code, text)`` returns a list of problems; an empty list
means the job passed.  Counts are compared exactly against closed forms or
brute force that share no code with ``manin_toric.counting``:

- p1: torus points of height <= B are 4 * Phi(isqrt(B)) - 2, with Phi the
  totient summatory function;
- p2, p3 (P^d): 2^d times the number of primitive positive integer vectors
  of max-norm T, with T^(d+1) <= B;
- p1xp1: the product of two P^1 counts, convolved over the first factor's
  height (acceptance criterion 3 of the test suite);
- hirzebruch-1: the point count of the fibration pipeline,
  ``fibration_zeta_partial`` on the twist-1 torsor.

The analytic routes carry their own verdicts (``status``,
``multiset_equal``, ``contains_target``), and the constants artifact must
give the exact alpha and a Tamagawa interval holding the known limit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

ZETA3 = 1.2020569031595942854

# exact alpha and the limit of the Tamagawa number for the constants job
KNOWN_CONSTANTS = {"p2": (Fraction(1, 3), 12 / ZETA3)}


@lru_cache(maxsize=None)
def _totient_sums(n: int) -> tuple:
    """Phi(k) = sum of Euler's phi(j) for j <= k, for 0 <= k <= n."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    sums, acc = [0], 0
    for k in range(1, n + 1):
        acc += phi[k]
        sums.append(acc)
    return tuple(sums)


def _floor(B) -> int:
    return math.floor(Fraction(B))


def count_p1(B) -> int:
    T = math.isqrt(_floor(B)) if B >= 1 else 0
    return 4 * _totient_sums(T)[T] - 2 if T >= 1 else 0


def count_projective(d: int, B) -> int:
    """Torus points of P^d with anticanonical height max|x_i|^(d+1) <= B."""
    n = _floor(B)
    T = 0
    while (T + 1) ** (d + 1) <= n:
        T += 1
    primitive = sum(1 for v in product(range(1, T + 1), repeat=d + 1)
                    if math.gcd(*v) == 1)
    return 2 ** d * primitive


def count_p1xp1(B) -> int:
    """Group points by the first factor's height m^2 (2 points at m = 1,
    4 phi(m) for m >= 2) and count the second factor under B / m^2."""
    Bq = Fraction(B)
    if Bq < 1:
        return 0
    top = math.isqrt(math.floor(Bq))
    sums = _totient_sums(top)
    total = 0
    for m in range(1, top + 1):
        weight = 2 if m == 1 else 4 * (sums[m] - sums[m - 1])
        total += weight * count_p1(Bq / (m * m))
    return total


def count_hirzebruch1(B) -> int:
    from manin_toric.fibration import TorsorSpec, fibration_zeta_partial
    return fibration_zeta_partial(TorsorSpec(1), "rho", 2.0, B).n_points


COUNT_ORACLES = {
    "p1": count_p1,
    "p2": lambda B: count_projective(2, B),
    "p3": lambda B: count_projective(3, B),
    "p1xp1": count_p1xp1,
    "hirzebruch-1": count_hirzebruch1,
}


@lru_cache(maxsize=None)
def oracle_count(fan: str, B: float) -> int:
    return COUNT_ORACLES[fan](B)


def _flag(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_count(argv, doc):
    fan = _flag(argv, "--fan").split(":", 1)[1]
    want = sorted(float(b) for b in _flag(argv, "--bounds").split(","))
    rows = doc.get("rows", [])
    if [r.get("B") for r in rows] != want:
        return [f"bounds {[r.get('B') for r in rows]} != requested {want}"]
    return [f"N({r['B']}) = {r['N']}, oracle {oracle_count(fan, r['B'])}"
            for r in rows if r["N"] != oracle_count(fan, r["B"])]


def _check_fibration(argv, doc):
    cc = doc.get("cross_check", {})
    problems = []
    if not cc.get("performed"):
        problems.append("direct cross-check not performed")
    if cc.get("status") != "ok" or cc.get("multiset_equal") is not True:
        problems.append(f"cross-check {cc.get('status')}, multiset_equal "
                        f"{cc.get('multiset_equal')}")
    if doc.get("n_points") != cc.get("direct_points"):
        problems.append(f"n_points {doc.get('n_points')} != direct "
                        f"{cc.get('direct_points')}")
    return problems


def _check_tauber(argv, doc):
    if doc.get("brackets", {}).get("contains_target") is not True:
        return ["descent brackets miss the target"]
    return []


def _check_constants(argv, doc):
    fan = _flag(argv, "--fan").split(":", 1)[1]
    alpha, tau_limit = KNOWN_CONSTANTS[fan]
    problems = []
    if doc.get("alpha") != str(alpha):
        problems.append(f"alpha {doc.get('alpha')} != {alpha}")
    tau = doc.get("tau", {})
    if not tau.get("lo", math.inf) <= tau_limit <= tau.get("hi", -math.inf):
        problems.append(f"tau interval [{tau.get('lo')}, {tau.get('hi')}] "
                        f"misses {tau_limit}")
    return problems


CHECKS = {
    "count": _check_count,
    "fibration": _check_fibration,
    "tauber": _check_tauber,
    "constants": _check_constants,
}

# subcommands whose artifact carries a status field that must read "ok"
WITH_STATUS = ("poisson-check", "tauber", "bounds-sweep")


def check(argv, code, text) -> list:
    """Problems with one job's result; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as e:
        return [f"artifact is not JSON: {e}"]
    if not isinstance(doc, dict):
        return ["artifact is not a JSON object"]
    cmd = argv[0]
    problems = []
    if cmd in WITH_STATUS and doc.get("status") != "ok":
        problems.append(f"status {doc.get('status')!r}")
    check_fn = CHECKS.get(cmd)
    if check_fn is not None:
        try:
            problems += check_fn(argv, doc)
        except (KeyError, TypeError, ValueError) as e:
            problems.append(f"malformed artifact: {e!r}")
    return problems
