import itertools
import math
from fractions import Fraction

import pytest

from almostcover.bounds import (
    E_HIGH,
    E_LOW,
    ball_size,
    certificate_lower_bound,
    check_binomial_inequalities,
    cor_bounds,
    counting_lower_bound,
    cube_counting_lower_bound,
    lower_bounds,
    rational_root_lower,
)
from almostcover.fields import QQ
from almostcover.linalg import PointSet


def test_ball_size():
    assert ball_size(2, 2) == 6
    assert ball_size(7, 0) == 1
    assert ball_size(4, 2) == 15
    with pytest.raises(ValueError):
        ball_size(0, 1)
    with pytest.raises(ValueError):
        ball_size(2, -1)


def test_ball_size_counts_monomials():
    # independent oracle: enumerate exponent vectors directly
    for n, k in [(1, 3), (2, 2), (3, 2), (4, 1)]:
        count = sum(
            1
            for e in itertools.product(range(k + 1), repeat=n)
            if sum(e) <= k
        )
        assert ball_size(n, k) == count


def test_counting_lower_bound():
    assert counting_lower_bound(2, 6).value == 2
    assert counting_lower_bound(5, 1).value == 0
    assert counting_lower_bound(4, 16).value == 3
    with pytest.raises(ValueError):
        counting_lower_bound(2, 0)


def test_counting_boundary_tightness():
    for n in range(1, 6):
        for k in range(0, 5):
            assert counting_lower_bound(n, ball_size(n, k)).value == k


def test_cube_counting_lower_bound():
    assert cube_counting_lower_bound(4, 16).value == 4
    assert cube_counting_lower_bound(3, 8).value == 3
    assert cube_counting_lower_bound(3, 4).value == 1
    with pytest.raises(ValueError):
        cube_counting_lower_bound(3, 9)


def test_cube_counting_boundary_tightness():
    for n in range(1, 7):
        for k in range(n + 1):
            size = sum(math.comb(n, i) for i in range(k + 1))
            assert cube_counting_lower_bound(n, size).value == k


def test_cube_bound_dominates_counting_bound():
    for n in range(1, 7):
        for npoints in range(1, 2**n + 1):
            assert (
                cube_counting_lower_bound(n, npoints).value
                >= counting_lower_bound(n, npoints).value
            )


def test_certificate_bounds():
    cube2 = PointSet.from_ints(QQ, list(itertools.product((0, 1), repeat=2)))
    report = certificate_lower_bound(cube2, (QQ.scalar(0), QQ.scalar(0)))
    assert report.value == 2
    vnk21 = PointSet.from_ints(QQ, [(0, 0), (1, 0), (0, 1)])
    assert certificate_lower_bound(vnk21, (QQ.scalar(0), QQ.scalar(0))).value == 1
    jnq23 = PointSet.from_ints(QQ, [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    top = certificate_lower_bound(jnq23)
    assert top.value == 2
    assert top.certificate_point in jnq23.points
    with pytest.raises(ValueError):
        certificate_lower_bound(cube2, (QQ.scalar(5), QQ.scalar(5)))


def test_lower_bounds_order_and_chain():
    # jnq:2:3 is not 0-1, so it has no cube_count report
    jnq23 = PointSet.from_ints(QQ, [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    reports, chain = lower_bounds(jnq23)
    assert [r.method for r in reports] == ["count", "certificate", "cor_e"]
    assert chain == [0, 2, 2]
    # vnkt:3:1:1,2 is 0-1; at its point (0, 0, 1) the certificate is 1, but
    # the chain ends at the set's certificate 2
    vnkt = PointSet.from_ints(QQ, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
    reports, chain = lower_bounds(vnkt, vnkt.points[3])
    assert [r.method for r in reports] == ["count", "cube_count", "certificate", "cor_e"]
    assert reports[2].value == 1
    assert chain == [0, 2, 2, 2]
    # 4 = 4^1 points on a line add the cor_4n threshold last
    line = PointSet.from_ints(QQ, [(x,) for x in range(4)])
    reports, chain = lower_bounds(line)
    assert [r.method for r in reports] == ["count", "certificate", "cor_e", "cor_4n"]
    assert chain == [1, 3, 3]


def test_rational_root_lower():
    assert rational_root_lower(9, 2) == 3
    assert rational_root_lower(27, 3) == 3
    v = rational_root_lower(2, 2)
    assert v * v <= 2 < (v + Fraction(1, 10**12)) ** 2 * 2  # close from below
    assert v < Fraction(1414213563, 10**9)


def test_cor_bounds():
    threshold, _ = cor_bounds(3, 64)
    assert threshold is not None and threshold.value == 4
    assert cor_bounds(3, 63)[0] is None
    _, e_report = cor_bounds(2, 9)
    r = e_report.details["rational"]
    # certified below 6/e - 2 and close to 0.207
    assert r < 6 / E_LOW - 2
    assert Fraction(20, 100) < r < Fraction(21, 100)
    assert e_report.value == 1
    _, vacuous = cor_bounds(1, 1)
    assert vacuous.details["rational"] < 0
    assert vacuous.value == 0
    with pytest.raises(ValueError):
        cor_bounds(2, 0)


def test_cor_e_never_exceeds_counting():
    for n in range(1, 5):
        for npoints in (1, 2, 5, 9, 16, 64, 1000):
            _, e_report = cor_bounds(n, npoints)
            assert e_report.value <= counting_lower_bound(n, npoints).value


def test_binomial_inequalities_examples():
    assert check_binomial_inequalities(5, 2)["bin_upper"]
    assert check_binomial_inequalities(7, 7)["bin_upper"]
    degenerate = check_binomial_inequalities(4, -1)
    assert "bin_upper" not in degenerate
    assert degenerate["bin_upper2"]
    with pytest.raises(ValueError):
        check_binomial_inequalities(3, -3)
    with pytest.raises(ValueError):
        check_binomial_inequalities(0, 1)


def test_e_bracket_sane():
    assert Fraction(2718281828, 10**9) == E_LOW < E_HIGH
    assert E_HIGH - E_LOW == Fraction(1, 10**9)
