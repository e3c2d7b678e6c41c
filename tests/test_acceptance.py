"""Acceptance suite: one test per criterion, each printing a pass line.

Run as ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the lines
on passing runs).  Everything is exact; no tolerances apply anywhere.
"""

import itertools
import random

from almostcover.cover import min_almost_cover, verify_cover
from almostcover.fields import GF, QQ
from almostcover.linalg import PointSet
from almostcover.verify import (
    check_ag_jamison,
    check_binomial_grid,
    check_bound_ordering,
    check_cube_alon_furedi,
    check_jnq_sharpness,
    check_orbit_constancy,
    check_permutohedron,
    check_separating_degrees,
    check_szw_polynomials,
    check_vnk_cover_sharpness,
    check_vnk_standard_monomials,
)

from test_cover import traces_avoiding


def assert_all(criterion, checks):
    failures = [c for c in checks if not c.passed]
    for c in failures:
        print(f"[acceptance] {criterion}: FAIL {c.name} ({c.detail})")
    assert not failures, f"{criterion}: {len(failures)} of {len(checks)} checks failed"
    print(f"[acceptance] {criterion}: PASS ({len(checks)} checks)")


def test_criterion_01_standard_monomials_of_vnk():
    assert_all("criterion 1 standard monomials n<=6", check_vnk_standard_monomials(6))


def test_criterion_02_separating_degrees():
    assert_all("criterion 2 separating degrees n<=5", check_separating_degrees(5))


def test_criterion_03_vnk_cover_sharpness():
    assert_all("criterion 3 level covers n<=4", check_vnk_cover_sharpness(4))


def test_criterion_04_cube_alon_furedi():
    assert_all("criterion 4 cube covers n<=4", check_cube_alon_furedi(4))


def test_criterion_05_jnq_sharpness():
    assert_all("criterion 5 jnq grid", check_jnq_sharpness())


def test_criterion_06_ag_jamison_both_modes():
    assert_all("criterion 6 affine spaces", check_ag_jamison())


def test_criterion_07_permutohedron():
    checks = check_permutohedron(4) + check_orbit_constancy()
    assert_all("criterion 7 permutohedron + constancy", checks)


def test_criterion_08_bound_ordering_chain():
    assert_all("criterion 8 bound chain", check_bound_ordering())


def test_criterion_09_binomial_inequalities():
    assert_all("criterion 9 binomial inequalities n<=30", check_binomial_grid(30))


def brute_force_size(V, v):
    """Independent oracle: exhaustive search over subfamilies of the traces."""
    v_idx = V.index_of(v)
    others = [j for j in range(len(V)) if j != v_idx]
    if not others:
        return 0
    pos = {j: i for i, j in enumerate(others)}
    masks = [sum(1 << pos[j] for j in t) for t in traces_avoiding(V, v)]
    full = (1 << len(others)) - 1
    for size in range(len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), size):
            union = 0
            for i in combo:
                union |= masks[i]
            if union == full:
                return size
    raise AssertionError("trace family failed to cover the ground set")


def test_criterion_10_oracle_equivalence_200_random_sets():
    rng = random.Random(20260808)
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            field = QQ
            n = rng.choice((1, 2, 3))
            grid = list(itertools.product(range(-2, 3), repeat=n))
        else:
            field = GF(3)
            n = rng.choice((1, 2, 3))
            grid = list(itertools.product(range(3), repeat=n))
        size = rng.randint(1, min(8, len(grid)))
        V = PointSet.from_ints(field, rng.sample(grid, size))
        v = V.points[rng.randrange(size)]
        sol = min_almost_cover(V, v)
        assert sol.optimal, f"non-optimal exit on {V!r}"
        expected = brute_force_size(V, v)
        assert sol.size == expected, (
            f"solver {sol.size} vs brute force {expected} on "
            f"{[tuple(map(str, p)) for p in V.points]} excluding {tuple(map(str, v))}"
        )
        assert verify_cover(V, v, sol.hyperplanes)
        checked += 1
    print(f"[acceptance] criterion 10 oracle equivalence: PASS ({checked} instances)")


def test_criterion_11_szw_sharp_polynomial():
    assert_all("criterion 11 sharp vanishing polynomial n<=5", check_szw_polynomials(5))
