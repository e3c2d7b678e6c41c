from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from almostcover.cover import realize_trace
from almostcover.fields import GF, QQ, scalar_field
from almostcover.linalg import (
    AffineMap,
    Hyperplane,
    PointSet,
    content,
    direction,
    echelon,
    eliminate,
    ints,
    scalars,
)


def qpoint(*coords):
    return tuple(QQ.scalar(x) for x in coords)


def test_rref_identity():
    assert echelon([[1, 0], [0, 1]], None) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_dependent_rows():
    assert echelon([[1, 2], [2, 4]], None) == ([[1, 2]], [0])


def test_rref_gf2():
    assert echelon([[1, 1], [1, 2]], 2) == ([[1, 0], [0, 1]], [0, 1])


def test_constructors_reject_mixed_fields():
    with pytest.raises(TypeError):
        Hyperplane((QQ.scalar(1), GF(3).scalar(1)), 0)
    with pytest.raises(TypeError):
        AffineMap([[QQ.scalar(1), GF(3).scalar(1)], [QQ.scalar(0), QQ.scalar(1)]], [0, 0])
    with pytest.raises(TypeError):
        AffineMap([[GF(3).scalar(1), GF(3).scalar(0)], [GF(5).scalar(0), GF(5).scalar(1)]], [0, 0])


def reference_rref(matrix):
    """Gauss-Jordan elimination on field scalars, the oracle for ``echelon``.

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
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return r, tuple(tuple(row) for row in rows), tuple(pivots)


class AffineSpan:
    """aff(points) on field scalars, from ``reference_rref``: the oracle for spans.

    The direction rows are the reduced rows of the differences to the first
    point.  ``witness`` is the field-scalar counterpart of ``realize_trace``.
    """

    def __init__(self, points):
        self.base = tuple(points[0])
        diffs = [[x - b for x, b in zip(p, self.base)] for p in points[1:]]
        self.dim, rows, self.pivots = reference_rref(diffs)
        self.rows = rows[: self.dim]

    def contains(self, point) -> bool:
        """point - base is left with nothing after eliminating against the rows."""
        v = [x - b for x, b in zip(point, self.base)]
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def witness(self, point) -> Hyperplane:
        """A hyperplane containing the span but not the point.

        The normal comes from the canonical null-space basis of the direction
        rows (free columns in ascending order, each with its own entry one);
        the first basis vector not orthogonal to point - base works.
        """
        field = scalar_field(self.base[0])
        n = len(self.base)
        diff = [x - b for x, b in zip(point, self.base)]
        for free in range(n):
            if free in self.pivots:
                continue
            normal = [field.zero()] * n
            normal[free] = field.one()
            for row, c in zip(self.rows, self.pivots):
                normal[c] = -row[free]
            if sum(a * d for a, d in zip(normal, diff)):
                return Hyperplane(normal, sum(a * b for a, b in zip(normal, self.base)))
        raise ValueError("inseparable: the point lies in the span")


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
def test_echelon_matches_reference_gauss_jordan(matrix):
    p = scalar_field(matrix[0][0]).p
    rows, pivots = echelon((ints(row, p)[0] for row in matrix), p)
    rank, reduced, reference_pivots = reference_rref(matrix)
    assert (len(rows), tuple(pivots)) == (rank, reference_pivots)
    # each int row is proportional to its reduced row: divided by its pivot
    # entry, it is that row
    assert [scalars(row, p, row[c]) for row, c in zip(rows, pivots)] == list(reduced[:rank])


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_idempotent(raw):
    rows, pivots = echelon(raw, None)
    assert echelon(rows, None) == (rows, pivots)


def test_kernel_direction_is_equal_exactly_for_parallel_rows():
    def q(row):
        return direction(row, None)

    def g7(row):
        return direction(row, 7)

    assert q([0, 4, -6]) == q([0, -2, 3]) == q([0, 10, -15]) == (0, 2, -3)
    assert q([-3, 0]) == q([5, 0]) == (1, 0)
    assert q([1, 2]) != q([1, -2])
    assert g7([3, 1]) == g7([6, 2]) == g7([-4, 15]) == (1, 5)
    assert g7([1, 1]) != g7([1, 2])
    # the lead is the first entry nonzero mod p, not the first nonzero int
    assert direction([-3, 1], 3) == (0, 1)


@pytest.mark.parametrize("p", [None, 5, 2**61 - 1])
def test_direction_of_a_zero_row_raises(p):
    for row in ([0, 0, 0], [0], []):
        with pytest.raises(ValueError, match="zero row"):
            direction(row, p)
    if p is not None:
        # zero mod p
        with pytest.raises(ValueError, match="zero row"):
            direction([p, -2 * p], p)


def parallel(r, s, p):
    """Cross-multiplication: every 2x2 minor of the two rows is 0 (mod p)."""
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            minor = r[i] * s[j] - r[j] * s[i]
            if minor % p if p else minor:
                return False
    return True


@st.composite
def row_pairs(draw):
    """(p, r, s, c): two nonzero int rows, often parallel, both 0 at column c."""
    p = draw(st.sampled_from((None, 5, 2**61 - 1)))
    if p is None:
        entry = st.integers(-6, 6)
    elif p == 5:
        entry = st.integers(-7, 12)
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(0, p - 1))
    n = draw(st.integers(2, 5))
    base = draw(st.lists(entry, min_size=n, max_size=n))
    a, b = draw(entry), draw(entry)
    r = [a * x for x in base]
    s = [b * x for x in base]
    if draw(st.booleans()):
        s[draw(st.integers(0, n - 1))] += draw(entry)
    c = draw(st.integers(0, n - 1))
    r[c] = s[c] = 0
    assume(any(x % p if p else x for x in r) and any(x % p if p else x for x in s))
    return p, r, s, c


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_direction_is_sign_free_and_parallelism_survives_a_shared_zero(pair):
    # the two facts the coatom search rests on: one direction per pair of
    # points, and residuals that lose their pivot column
    p, r, s, c = pair
    assert direction(r, p) == direction([-x for x in r], p)
    assert (direction(r, p) == direction(s, p)) is parallel(r, s, p)
    r_cut, s_cut = r[:c] + r[c + 1 :], s[:c] + s[c + 1 :]
    assert parallel(r_cut, s_cut, p) is parallel(r, s, p)
    assert (direction(r_cut, p) == direction(s_cut, p)) is parallel(r, s, p)


def test_content_keeps_signs_and_divides_by_the_gcd():
    # over the rationals: signs kept, gcd divided out, g = 0 for a zero row
    assert content([-4, 6, 0, -10], None) == ([-2, 3, 0, -5], 2)
    assert content([0, 0, 0], None) == ([0, 0, 0], 0)
    assert content([3, -5, 7], None) == ([3, -5, 7], 1)
    # over GF(5): residues, g = 1
    assert content([-4, 6, 0, 10, 13], 5) == ([1, 1, 0, 0, 3], 1)


def test_eliminate_clears_the_column_and_returns_the_content():
    # 3 * [2, 4, 6] - 2 * [3, 1, 0] = [0, 10, 18], content 2
    assert eliminate([2, 4, 6], [3, 1, 0], 0, None) == ([0, 5, 9], 2)
    # a row parallel to the pivot row is eliminated to zero, g = 0
    assert eliminate([-2, 4], [1, -2], 0, None) == ([0, 0], 0)
    # over GF(5): 3 * [2, 4, 6] - 2 * [3, 1, 0] = [0, 10, 18] = [0, 0, 3]
    assert eliminate([2, 4, 6], [3, 1, 0], 0, 5) == ([0, 0, 3], 1)


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
    S = AffineSpan([qpoint(0, 0)])
    assert S.dim == 0
    assert S.contains(qpoint(0, 0))
    assert not S.contains(qpoint(1, 0))


def test_affine_span_collinear():
    S = AffineSpan([qpoint(0, 0), qpoint(1, 1), qpoint(2, 2)])
    assert S.dim == 1
    assert S.rows == ((Fraction(1), Fraction(1)),)
    assert S.contains(qpoint(7, 7))
    assert not S.contains(qpoint(1, 0))


def test_affine_span_plane():
    S = AffineSpan([qpoint(0, 0, 0), qpoint(1, 0, 0), qpoint(0, 1, 0)])
    assert S.dim == 2
    assert S.contains(qpoint(5, -3, 0))
    assert not S.contains(qpoint(0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=1, max_size=5),
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=0, max_size=3),
)
def test_affine_span_monotone(first, extra):
    pts_a = [qpoint(*p) for p in first]
    pts_b = pts_a + [qpoint(*p) for p in extra]
    A = AffineSpan(pts_a)
    B = AffineSpan(pts_b)
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
    with pytest.raises(TypeError, match="rational"):
        H.evaluate((GF(3).scalar(1), QQ.scalar(5)))
    with pytest.raises(TypeError, match="GF"):
        H3.evaluate((Fraction(1, 2), 0))


def test_separating_hyperplane_point_case():
    V = PointSet.from_ints(QQ, [(1, 0), (0, 0)])
    H = realize_trace(V, qpoint(0, 0), (0,))
    assert H == Hyperplane.from_ints(QQ, (1, 0), 1)
    assert H == AffineSpan([qpoint(1, 0)]).witness(qpoint(0, 0))


def test_separating_hyperplane_line_case():
    V = PointSet.from_ints(QQ, [(0, 1), (1, 2), (0, 0)])
    H = realize_trace(V, qpoint(0, 0), (0, 1))
    # x2 - x1 = 1 in canonical form
    assert H == Hyperplane.from_ints(QQ, (1, -1), -1)
    assert H == AffineSpan(V.points[:2]).witness(qpoint(0, 0))
    assert H.contains(qpoint(0, 1))
    assert H.contains(qpoint(1, 2))
    assert not H.contains(qpoint(0, 0))


def test_separating_hyperplane_errors():
    # the point lies in the trace's span: the trace itself, a line through
    # it, or the whole plane
    V = PointSet.from_ints(QQ, [(0, 0), (1, 1), (2, 2), (0, 1)])
    for point, trace in ((V.points[0], (0,)), (V.points[2], (0, 1)), (qpoint(5, 5), (0, 1, 3))):
        with pytest.raises(ValueError, match="inseparable"):
            realize_trace(V, point, trace)
        with pytest.raises(ValueError, match="inseparable"):
            AffineSpan([V.points[j] for j in trace]).witness(point)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(small_entries, small_entries, small_entries), min_size=1, max_size=3),
    st.tuples(small_entries, small_entries, small_entries),
)
def test_separating_hyperplane_property(span_pts, outside):
    pts = [qpoint(*p) for p in dict.fromkeys(span_pts)]
    v = qpoint(*outside)
    S = AffineSpan(pts)
    if S.contains(v):
        return
    H = realize_trace(PointSet(QQ, 3, pts + [v]), v, range(len(pts)))
    assert H == S.witness(v)
    assert all(H.contains(p) for p in pts)
    assert not H.contains(v)


def test_realize_trace_pins_scaled_and_modular_witnesses():
    # the int points are these points times 6, so the int offset must be
    # divided by 6 again
    V = PointSet(QQ, 2, [(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1)])
    assert realize_trace(V, V.points[2], (0, 1)) == Hyperplane.from_ints(QQ, (2, 3), 1)
    assert realize_trace(V, V.points[0], (1, 2)) == Hyperplane.from_ints(QQ, (2, -3), -1)
    assert realize_trace(V, V.points[1], (0,)) == Hyperplane(qpoint(1, 0), Fraction(1, 2))
    # over GF(5) the first null vector, -x1 + 2 x2, has the int product 5
    # with v - base, which is 0 mod 5, so the second one, x3, is the witness
    W = PointSet.from_ints(GF(5), [(0, 0, 0), (2, 1, 0), (1, 3, 1), (1, 2, 3)])
    assert realize_trace(W, W.points[2], (0, 1)) == Hyperplane.from_ints(GF(5), (0, 0, 1), 0)
    assert realize_trace(W, W.points[0], (1, 3)) == Hyperplane.from_ints(GF(5), (1, 1, 0), 3)


def affine_map(field, matrix, translation):
    """The AffineMap whose int matrix and translation are read in the field."""
    return AffineMap(
        [[field.scalar(x) for x in row] for row in matrix], [field.scalar(x) for x in translation]
    )


def test_affine_map():
    F = QQ
    swap = affine_map(F, [[0, 1], [1, 0]], [0, 0])
    assert swap.apply((F.scalar(1), F.scalar(2))) == (F.scalar(2), F.scalar(1))
    with pytest.raises(ValueError):
        affine_map(F, [[1, 1], [1, 1]], [0, 0])
    with pytest.raises(ValueError):
        affine_map(F, [[1, 0], [0, 1]], [0, 0, 0])
    with pytest.raises(ValueError):
        affine_map(F, [[1, 0], [0]], [0, 0])
    # residues nonsingular over the rationals (determinant -3) but singular
    # mod 3: the rank is taken in the map's own field
    affine_map(F, [[1, 2], [2, 1]], [0, 0])
    with pytest.raises(ValueError, match="singular"):
        affine_map(GF(3), [[1, 2], [2, 1]], [0, 0])


def test_affine_map_reads_its_translation_in_the_matrix_field():
    identity = [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]]
    shift = AffineMap(identity, [1, 0])
    assert shift.translation == (Fraction(1), Fraction(0))
    assert all(type(t) is Fraction for t in shift.translation)
    assert shift.apply(qpoint(Fraction(1, 2), 3)) == qpoint(Fraction(3, 2), 3)
    # a translation from another field or from no field is rejected when
    # the map is built, not by orbit_reduce's arithmetic later
    with pytest.raises(TypeError, match="rational"):
        AffineMap(identity, [GF(3).scalar(1), 0])
    with pytest.raises(TypeError, match="rational"):
        AffineMap(identity, ["x", 0])
    gf = affine_map(GF(3), [[1, 0], [0, 1]], [0, 0]).matrix
    with pytest.raises(TypeError, match="GF"):
        AffineMap(gf, [Fraction(1, 2), 0])
