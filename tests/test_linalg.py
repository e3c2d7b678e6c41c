from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from almostcover.fields import GF, QQ, scalar_field
from almostcover.linalg import (
    AffineMap,
    Hyperplane,
    PointSet,
    affine_span,
    hyperplane_containing_avoiding,
    _IntKernel,
    rref,
)


def qmat(rows):
    return [[QQ.scalar(x) for x in row] for row in rows]


def test_rref_identity():
    rank, rows, pivots = rref(qmat([[1, 0], [0, 1]]))
    assert rank == 2
    assert rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert pivots == (0, 1)


def test_rref_dependent_rows():
    rank, rows, pivots = rref(qmat([[1, 2], [2, 4]]))
    assert rank == 1
    assert rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))
    assert pivots == (0,)


def test_rref_gf2():
    F = GF(2)
    rank, rows, _ = rref([[F.scalar(1), F.scalar(1)], [F.scalar(1), F.scalar(2)]])
    assert rank == 2
    assert [[x.value for x in r] for r in rows] == [[1, 0], [0, 1]]


def test_rref_rejects_mixed_fields():
    with pytest.raises(TypeError):
        rref([[QQ.scalar(1), GF(3).scalar(1)]])
    with pytest.raises(TypeError):
        rref([[GF(3).scalar(1)], [GF(5).scalar(1)]])


def test_rref_rejects_ragged():
    with pytest.raises(ValueError):
        rref(qmat([[1, 2], [1]]))
    with pytest.raises(ValueError):
        rref([[GF(7).scalar(1)], [GF(7).scalar(2), GF(7).scalar(3)]])


def reference_rref(matrix):
    """Gauss-Jordan elimination on field scalars, the oracle for ``rref``.

    Same pivot rule (leftmost nonzero column, first eligible row), but every
    step is plain Fraction/GFElement arithmetic.
    """
    rows = [list(r) for r in matrix]
    width = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(width):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return r, tuple(tuple(row) for row in rows), tuple(pivots)


ORACLE_FIELDS = (QQ, GF(2), GF(3), GF(7), GF(2**61 - 1))


@st.composite
def field_matrices(draw):
    """Matrices of every shape, with zero rows and dependent rows mixed in."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if field.is_rational:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    else:
        entry = st.one_of(st.integers(-2, 2), st.integers(0, field.p - 1)).map(field.scalar)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "zero", "combination")))
        if kind == "zero":
            rows.append([field.zero()] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(entry), draw(entry)
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * s + b * t for s, t in zip(x, y)])
        else:
            rows.append([draw(entry) for _ in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_reference_gauss_jordan(matrix):
    got = rref(matrix)
    assert got == reference_rref(matrix)
    # GFElement equals a plain int residue, so check the types separately
    field = scalar_field(matrix[0][0])
    assert all(scalar_field(x) == field for row in got[1] for x in row)


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent(raw):
    _, rows, _ = rref(qmat(raw))
    rank2, rows2, _ = rref(rows)
    assert rows2 == rows
    assert rank2 == sum(1 for r in rows if any(r))


def test_kernel_direction_is_equal_exactly_for_parallel_rows():
    q = _IntKernel(QQ).direction
    assert q([0, 4, -6]) == q([0, -2, 3]) == q([0, 10, -15]) == (0, 2, -3)
    assert q([-3, 0]) == q([5, 0]) == (1, 0)
    assert q([1, 2]) != q([1, -2])
    g7 = _IntKernel(GF(7)).direction
    assert g7([3, 1]) == g7([6, 2]) == g7([-4, 15]) == (1, 5)
    assert g7([1, 1]) != g7([1, 2])
    # the lead is the first entry nonzero mod p, not the first nonzero int
    assert _IntKernel(GF(3)).direction([-3, 1]) == (0, 1)


def test_pointset_validation():
    V = PointSet.from_ints(QQ, [(0, 0), (1, 0)])
    assert len(V) == 2 and V.dim == 2
    with pytest.raises(ValueError):
        PointSet.from_ints(QQ, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointSet(QQ, 2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        PointSet.from_ints(QQ, [])
    assert V.index_of((1, 0)) == 1
    with pytest.raises(ValueError):
        V.index_of((5, 5))


def test_pointset_zero_one():
    assert PointSet.from_ints(QQ, [(0, 1), (1, 1)]).is_zero_one()
    assert not PointSet.from_ints(QQ, [(0, 2)]).is_zero_one()
    assert PointSet.from_ints(GF(3), [(0, 1)]).is_zero_one()


def test_affine_span_single_point():
    S = affine_span([(QQ.scalar(0), QQ.scalar(0))])
    assert S.dim == 0
    assert S.contains((QQ.scalar(0), QQ.scalar(0)))
    assert not S.contains((QQ.scalar(1), QQ.scalar(0)))


def test_affine_span_collinear():
    pts = [tuple(QQ.scalar(x) for x in p) for p in [(0, 0), (1, 1), (2, 2)]]
    S = affine_span(pts)
    assert S.dim == 1
    assert S.rows == ((Fraction(1), Fraction(1)),)
    assert S.contains((QQ.scalar(7), QQ.scalar(7)))
    assert not S.contains((QQ.scalar(1), QQ.scalar(0)))


def test_affine_span_plane():
    pts = [tuple(QQ.scalar(x) for x in p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0)]]
    S = affine_span(pts)
    assert S.dim == 2
    with pytest.raises(ValueError):
        affine_span([])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=1, max_size=5),
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=0, max_size=3),
)
def test_affine_span_monotone(first, extra):
    pts_a = [tuple(QQ.scalar(x) for x in p) for p in first]
    pts_b = pts_a + [tuple(QQ.scalar(x) for x in p) for p in extra]
    A = affine_span(pts_a)
    B = affine_span(pts_b)
    assert all(B.contains(p) for p in pts_a)
    assert A.dim <= B.dim
    # the span is no larger than the span of its own members
    assert all(A.contains(p) for p in pts_a)


def test_hyperplane_canonicalization():
    H1 = Hyperplane.from_ints(QQ, (2, -4), 6)
    H2 = Hyperplane.from_ints(QQ, (-1, 2), -3)
    assert H1 == H2
    assert H1.normal == (Fraction(1), Fraction(-2))
    assert H1.offset == Fraction(3)
    with pytest.raises(ValueError):
        Hyperplane.from_ints(QQ, (0, 0), 1)


def test_hyperplane_evaluate():
    H = Hyperplane.from_ints(QQ, (1, 0), 1)  # x1 = 1
    assert H.evaluate((QQ.scalar(1), QQ.scalar(5))) == 0
    H2 = Hyperplane.from_ints(QQ, (1, 1), 1)
    assert H2.evaluate((QQ.scalar(0), QQ.scalar(0))) == Fraction(-1)
    F = GF(3)
    H3 = Hyperplane.from_ints(F, (1, 1), 1)
    assert H3.evaluate((F.scalar(2), F.scalar(2))) == 0
    with pytest.raises(ValueError):
        H.evaluate((QQ.scalar(1),))


def test_separating_hyperplane_point_case():
    S = affine_span([(QQ.scalar(1), QQ.scalar(0))])
    H = hyperplane_containing_avoiding(S, (QQ.scalar(0), QQ.scalar(0)))
    assert H == Hyperplane.from_ints(QQ, (1, 0), 1)


def test_separating_hyperplane_line_case():
    S = affine_span([(QQ.scalar(0), QQ.scalar(1)), (QQ.scalar(1), QQ.scalar(2))])
    H = hyperplane_containing_avoiding(S, (QQ.scalar(0), QQ.scalar(0)))
    # x2 - x1 = 1 in canonical form
    assert H == Hyperplane.from_ints(QQ, (1, -1), -1)
    assert H.contains((QQ.scalar(0), QQ.scalar(1)))
    assert H.contains((QQ.scalar(1), QQ.scalar(2)))
    assert not H.contains((QQ.scalar(0), QQ.scalar(0)))


def test_separating_hyperplane_errors():
    S = affine_span([(QQ.scalar(0), QQ.scalar(0))])
    with pytest.raises(ValueError, match="inseparable"):
        hyperplane_containing_avoiding(S, (QQ.scalar(0), QQ.scalar(0)))
    full = affine_span(
        [tuple(QQ.scalar(x) for x in p) for p in [(0, 0), (1, 0), (0, 1)]]
    )
    with pytest.raises(ValueError, match="no proper hyperplane"):
        hyperplane_containing_avoiding(full, (QQ.scalar(5), QQ.scalar(5)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=1, max_size=3),
    st.tuples(small_entries, small_entries, small_entries),
)
def test_separating_hyperplane_property(span_pts, outside):
    pts = [tuple(QQ.scalar(x) for x in p) for p in span_pts]
    v = tuple(QQ.scalar(x) for x in outside)
    S = affine_span(pts)
    if S.dim >= 3 or S.contains(v):
        return
    H = hyperplane_containing_avoiding(S, v)
    assert all(H.contains(p) for p in pts)
    assert not H.contains(v)


def test_affine_map():
    F = QQ
    swap = AffineMap.from_ints(F, [[0, 1], [1, 0]], [0, 0])
    assert swap.apply((F.scalar(1), F.scalar(2))) == (F.scalar(2), F.scalar(1))
    with pytest.raises(ValueError):
        AffineMap.from_ints(F, [[1, 1], [1, 1]], [0, 0])
    with pytest.raises(ValueError):
        AffineMap.from_ints(F, [[1, 0], [0, 1]], [0, 0, 0])
