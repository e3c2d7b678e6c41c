import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from almostcover.errors import InvariantError
from almostcover.families import FamilySpec, generate
from almostcover.fields import GF, QQ, scalar_field
from almostcover.linalg import PointSet, int_points
from almostcover import vanishing
from almostcover.polyring import Polynomial, deglex_key, mono_deg
from almostcover.vanishing import buchberger_moller

from test_linalg import reference_rref


def qpoints(rows):
    return PointSet.from_ints(QQ, rows)


def cube(n):
    return qpoints(list(itertools.product((0, 1), repeat=n)))


def vnk(n, k):
    rows = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(n), size):
            rows.append(tuple(1 if i in combo else 0 for i in range(n)))
    return qpoints(rows)


def evaluation_matrix(data):
    one = data.source.field.one()
    rows = []
    for p in data.source.points:
        row = []
        for mono in data.sm:
            v = one
            for x, e in zip(p, mono):
                v = v * x**e
            row.append(v)
        rows.append(row)
    return rows


def divisors_below(m):
    """The divisors of a monomial one degree lower."""
    return [m[:i] + (e - 1,) + m[i + 1 :] for i, e in enumerate(m) if e]


def check_invariants(data):
    """Verify the structural guarantees; raises InvariantError on failure."""
    V = data.source
    one = V.field.one()
    if len(data.sm) != len(V):
        raise InvariantError("standard monomial count differs from point count")
    sm_set = set(data.sm)
    for m in data.sm:
        if not sm_set.issuperset(divisors_below(m)):
            raise InvariantError(f"standard monomials not divisor-closed at {m}")
    for g in data.basis:
        lm = max(g.terms, key=deglex_key)
        if g.terms[lm] != one:
            raise InvariantError("basis element is not monic")
        if lm in sm_set:
            raise InvariantError("leading monomial clashes with a standard monomial")
        # a reduced basis has one element per minimal non-standard monomial
        if not sm_set.issuperset(divisors_below(lm)):
            raise InvariantError(f"leading monomial {lm} is not minimal")
        for m in g.terms:
            if m != lm and m not in sm_set:
                raise InvariantError("basis tail leaves the standard monomials")
        for p in V.points:
            if g.evaluate(p):
                raise InvariantError("basis element does not vanish on the point set")
    if V.is_zero_one():
        if any(e > 1 for m in data.sm for e in m):
            raise InvariantError("non-square-free standard monomial on a 0-1 set")


def test_two_point_line():
    V = qpoints([(0,), (1,)])
    data = buchberger_moller(V)
    assert data.sm == ((0,), (1,))
    assert [g.text() for g in data.basis] == ["x1^2 - x1"]
    # independent oracle: the claimed monomials interpolate every function,
    # i.e. their evaluation matrix has full rank under plain row reduction
    rank, _, _ = reference_rref(evaluation_matrix(data))
    assert rank == len(V)


def test_vnk21_matches_known_structure():
    data = buchberger_moller(vnk(2, 1))
    assert data.sm == ((0, 0), (0, 1), (1, 0))
    assert sorted(g.text() for g in data.basis) == ["x1*x2", "x1^2 - x1", "x2^2 - x2"]
    check_invariants(data)


def test_full_square_all_squarefree():
    data = buchberger_moller(cube(2))
    assert data.sm == ((0, 0), (0, 1), (1, 0), (1, 1))
    rank, _, _ = reference_rref(evaluation_matrix(data))
    assert rank == 4


def test_standard_monomials_vnk31():
    got = buchberger_moller(vnk(3, 1)).sm
    assert got == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_single_point():
    data = buchberger_moller(qpoints([(5, 7)]))
    assert data.sm == ((0, 0),)
    assert reference_indicator_expansions(data) == [{(0, 0): 1}]
    assert data.separating_degree((QQ.scalar(5), QQ.scalar(7))) == 0


def test_vnkt_extra_monomial():
    rows = [p for p in vnk(3, 1).points]
    rows.append(tuple(QQ.scalar(x) for x in (1, 1, 0)))  # indicator of {1, 2}
    data = buchberger_moller(PointSet(QQ, 3, rows))
    assert data.sm == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))


def test_indicator_expansions_cube2():
    data = buchberger_moller(cube(2))
    origin, *_, top = (Polynomial(QQ, 2, chi) for chi in reference_indicator_expansions(data))
    assert top.text() == "x1*x2"
    assert origin.text() == "x1*x2 - x1 - x2 + 1"
    assert [data.separating_degree(p) for p in data.source.points] == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        data.separating_degree((QQ.scalar(2), QQ.scalar(2)))


def test_indicator_expansion_line():
    data = buchberger_moller(qpoints([(0,), (1,)]))
    chis = [Polynomial(QQ, 1, chi).text() for chi in reference_indicator_expansions(data)]
    assert chis == ["-x1 + 1", "x1"]
    assert [data.separating_degree(p) for p in data.source.points] == [1, 1]


def test_normal_form_kills_leading_monomials():
    data = buchberger_moller(vnk(2, 1))
    f = Polynomial(QQ, 2, {(1, 1): QQ.one()})
    assert data.normal_form(f).is_zero()
    g = Polynomial(QQ, 2, {(1, 0): QQ.one(), (0, 1): QQ.scalar(-3)})  # already supported on sm
    assert data.normal_form(g) == g


def test_normal_form_agrees_on_points():
    data = buchberger_moller(cube(2))
    h = Polynomial(QQ, 2, {(1, 0): QQ.one(), (0, 1): QQ.one(), (0, 0): QQ.scalar(-1)})
    f = h * h
    nf = data.normal_form(f)
    assert nf.text() == "2*x1*x2 - x1 - x2 + 1"
    for p in data.source.points:
        assert nf.evaluate(p) == f.evaluate(p)


def test_normal_form_field_mismatch():
    data = buchberger_moller(cube(2))
    with pytest.raises(TypeError):
        data.normal_form(Polynomial.variable(GF(3), 2, 0))


def test_separating_degrees():
    assert buchberger_moller(cube(3)).separating_degree(tuple(QQ.scalar(1) for _ in range(3))) == 3
    assert buchberger_moller(vnk(2, 1)).separating_degree((QQ.scalar(0), QQ.scalar(0))) == 1
    with pytest.raises(ValueError):
        buchberger_moller(cube(2)).separating_degree((QQ.scalar(3), QQ.scalar(3)))


def test_separating_degree_after_adding_vertex():
    base = vnk(4, 1)
    v = tuple(QQ.scalar(x) for x in (1, 1, 0, 0))
    W = PointSet(QQ, 4, list(base.points) + [v])
    assert buchberger_moller(W).separating_degree(v) == 2


def test_partition_of_unity_and_independence():
    for V in (cube(2), vnk(3, 2), qpoints([(0, 0), (1, 2), (3, 1), (2, 2)])):
        data = buchberger_moller(V)
        chis = [Polynomial(QQ, V.dim, chi) for chi in reference_indicator_expansions(data)]
        total = sum(chis, Polynomial.zero(QQ, V.dim))
        for p in V.points:
            assert total.evaluate(p) == 1
        rank, _, _ = reference_rref([[chi.terms.get(m, QQ.zero()) for m in data.sm] for chi in chis])
        assert rank == len(V)
        assert [data.separating_degree(p) for p in V.points] == [chi.degree() for chi in chis]


def test_every_sm_monomial_hit_by_some_expansion():
    for V in (cube(3), vnk(3, 1), qpoints([(0, 0), (1, 2), (3, 1)])):
        data = buchberger_moller(V)
        used = set()
        for chi in reference_indicator_expansions(data):
            used.update(chi)
        assert used == set(data.sm)
        assert max(data.separating_degree(p) for p in V.points) == data.max_sm_degree()


def test_groebner_invariants_on_gf_and_generic_sets():
    F = GF(5)
    sets = [
        PointSet.from_ints(F, [(0, 0), (1, 2), (2, 4), (3, 3)]),
        PointSet.from_ints(F, list(itertools.product(range(3), repeat=2))),
        qpoints([(0, 0, 0), (1, 1, 0), (2, 0, 1), (0, 1, 1), (1, 2, 2)]),
    ]
    for V in sets:
        data = buchberger_moller(V)
        check_invariants(data)
        assert list(data.sm) == sorted(data.sm, key=deglex_key)


def test_random_ideal_members_reduce_to_zero():
    rng = random.Random(7)
    V = qpoints([(0, 0), (1, 0), (2, 1), (1, 2)])
    data = buchberger_moller(V)
    nvars = V.dim
    for _ in range(10):
        member = Polynomial.zero(QQ, nvars)
        for g in data.basis:
            coeff_poly = Polynomial.zero(QQ, nvars)
            for _ in range(3):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                coeff = QQ.scalar(rng.randint(-3, 3))
                coeff_poly = coeff_poly + Polynomial(QQ, nvars, {mono: coeff})
            member = member + coeff_poly * g
        assert data.normal_form(member).is_zero()
        for p in V.points:
            assert member.evaluate(p) == 0


def test_sm_degree_bounded_by_interpolating_degree():
    # |sm| = |V| and divisor closure imply the maximum degree is below |V|
    V = qpoints([(i, i * i) for i in range(5)])
    data = buchberger_moller(V)
    assert data.max_sm_degree() < len(V)
    assert len(data.sm) == len(V)
    assert all(mono_deg(m) <= data.max_sm_degree() for m in data.sm)


# coordinates no named family or benchmark set has: fractions, negatives,
# and residues of a 61-bit prime
FRACTIONAL = (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(3))
MERSENNE = GF(2**61 - 1)
LARGE_RESIDUES = (0, 1, 2, MERSENNE.p - 2, MERSENNE.p - 1, 2**40 + 3, 987654321987654321)


@st.composite
def kernel_point_sets(draw, fields=(QQ, MERSENNE)):
    field = draw(st.sampled_from(fields))
    if field.is_rational:
        coords = FRACTIONAL
    else:
        coords = LARGE_RESIDUES if field == MERSENNE else range(field.p)
    dim = draw(st.integers(1, 3))
    grid = list(itertools.product(coords, repeat=dim))
    rows = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True))
    return PointSet(field, dim, rows)


@settings(max_examples=60, deadline=None)
@given(kernel_point_sets())
def test_basis_and_indicators_on_fractional_and_large_prime_sets(V):
    data = buchberger_moller(V)
    check_invariants(data)
    for p, chi in zip(V.points, reference_indicator_expansions(data)):
        chi = Polynomial(V.field, V.dim, chi)
        assert [chi.evaluate(q) for q in V.points] == [int(q == p) for q in V.points]
        assert data.separating_degree(p) == chi.degree()


def int_value(tag, point, p):
    """The int polynomial ``tag`` at an int point, reduced mod p over GF(p)."""
    total = sum(x * math.prod(c**e for c, e in zip(point, m)) for m, x in tag.items())
    return total if p is None else total % p


@settings(max_examples=60, deadline=None)
@given(kernel_point_sets(fields=(QQ, GF(5), MERSENNE)))
def test_replayed_tags_take_the_scaled_values_of_their_rows(V):
    # the scan keeps values only; the tags replayed from its records must
    # take s times each row's values on the scaled points, and vanish there
    # for each dependent candidate
    data = buchberger_moller(V)
    p = V.field.p
    points, _ = int_points(V.points, p)
    rows, deps = data._replay()
    assert len(rows) == len(data._rows) == len(V)
    for (_, values), (tag, s), lead in zip(data._rows, rows, data.sm):
        assert s != 0 and (p is None or s == 1)
        assert max(tag, key=deglex_key) == lead
        expected = [s * x if p is None else x for x in values]
        assert [int_value(tag, q, p) for q in points] == expected
    assert [m for m, _ in deps] == [max(t, key=deglex_key) for _, t in deps]
    assert all(int_value(tag, q, p) == 0 for _, tag in deps for q in points)


@st.composite
def polynomials_on(draw, V):
    """A polynomial of degree at most 4 in V's variables, over V's field;
    over the rationals its coefficients may be fractions."""
    field, n = V.field, V.dim
    monos = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    coeffs = (
        st.fractions(min_value=-5, max_value=5, max_denominator=6)
        if field.is_rational
        else st.integers(-20, 20)
    )
    terms = draw(st.dictionaries(monos.filter(lambda m: mono_deg(m) <= 4), coeffs, max_size=6))
    return Polynomial(field, n, {m: field.scalar(c) for m, c in terms.items()})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_form_properties(data):
    V = data.draw(kernel_point_sets(fields=(QQ, MERSENNE, GF(5))))
    f = data.draw(polynomials_on(V))
    groebner = buchberger_moller(V)
    nf = groebner.normal_form(f)
    # supported on sm and equal to f on V: as sm is a basis of the
    # functions on V, these two pin the normal form down
    assert set(nf.terms) <= set(groebner.sm)
    assert [nf.evaluate(p) for p in V.points] == [f.evaluate(p) for p in V.points]
    assert all(scalar_field(c) == V.field for c in nf.terms.values())
    assert groebner.normal_form(nf) == nf
    assert nf.degree() <= f.degree()
    assert groebner.normal_form(Polynomial.zero(V.field, V.dim)).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    kernel_point_sets(fields=(QQ,)),
    st.sampled_from((Fraction(-3, 2), Fraction(2, 5), Fraction(7, 3))),
    st.lists(st.sampled_from(FRACTIONAL), min_size=3, max_size=3),
)
def test_groebner_degrees_invariant_under_fractional_affine_map(V, c, shift):
    # an affine change of coordinates keeps every deglex leading monomial,
    # so the standard monomials and separating degrees must not move
    W = PointSet(QQ, V.dim, [tuple(c * x + t for x, t in zip(p, shift)) for p in V.points])
    dv, dw = buchberger_moller(V), buchberger_moller(W)
    assert dv.sm == dw.sm
    assert [dv.separating_degree(p) for p in V.points] == [
        dw.separating_degree(q) for q in W.points
    ]


def reference_indicator_expansions(data):
    """Indicator coefficients over the standard monomials, point by point,
    by plain row reduction of [E | I], E the evaluation matrix on V itself."""
    field, n = data.source.field, len(data.source)
    rows = [
        row + [field.one() if i == j else field.zero() for i in range(n)]
        for j, row in enumerate(evaluation_matrix(data))
    ]
    rank, reduced, _ = reference_rref(rows)
    assert rank == n
    # row i of the inverse holds sm[i]'s coefficient in every indicator
    return [{m: row[n + j] for m, row in zip(data.sm, reduced) if row[n + j]} for j in range(n)]


def assert_indicators_match_reference(V):
    """Each point's separating degree is the degree of its indicator
    expansion from ``reference_indicator_expansions``."""
    data = buchberger_moller(V)
    expected = reference_indicator_expansions(data)
    # in reverse, then the first point again: a query must leave the rows
    # every later query reduces against unchanged
    for j in [*range(len(V) - 1, -1, -1), 0]:
        assert data.separating_degree(V.points[j]) == max(mono_deg(m) for m in expected[j])


def assert_basis_matches_reference(V):
    """Each basis element is c - sum_u c(u) * chi_u, c its leading monomial
    and chi_u from ``reference_indicator_expansions``; the leading monomials
    are the minimal monomials outside the standard ones, in deglex order."""
    data = buchberger_moller(V)
    field, n = V.field, V.dim
    standard = set(data.sm)
    border = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in standard for i in range(n)} - standard
    minimal = [
        c
        for c in border
        if all(c[:i] + (c[i] - 1,) + c[i + 1 :] in standard for i in range(n) if c[i])
    ]
    chis = reference_indicator_expansions(data)
    expected = []
    for c in sorted(minimal, key=deglex_key):
        mono = Polynomial(field, n, {c: field.one()})
        g = mono
        for p, chi in zip(V.points, chis):
            g = g - Polynomial(field, n, {m: mono.evaluate(p) * x for m, x in chi.items()})
        expected.append(g)
    assert list(data.basis) == expected
    assert all(scalar_field(c) == field for g in data.basis for c in g.terms.values())


def test_basis_rewrites_a_non_standard_tail_term(monkeypatch):
    # the README's sample set: the scan's polynomial for x1^2 holds x1*x2,
    # a leading monomial, which the basis rewrites; the other two tails
    # need no rewrite
    V = PointSet(QQ, 2, [(1, Fraction(2, 3)), (0, -1), (2, 0)])
    reduce_tag = vanishing._reduce_tag
    rewritten = []

    def spy(tag, leads, standard, p):
        terms, den = reduce_tag(tag, leads, standard, p)
        rewritten.extend(m for m in tag if m not in standard and m not in terms)
        return terms, den

    monkeypatch.setattr(vanishing, "_reduce_tag", spy)
    data = buchberger_moller(V)
    assert rewritten == []
    assert [g.text() for g in data.basis] == [
        "x2^2 + 10/21*x1 + 1/21*x2 - 20/21",
        "x1*x2 + 2/7*x1 - 4/7*x2 - 4/7",
        "x1^2 - 17/7*x1 + 6/7*x2 + 6/7",
    ]
    assert rewritten == [(1, 1)]
    assert_basis_matches_reference(V)


def test_scan_starts_each_candidate_from_its_parents_row():
    # reducing every candidate against every earlier row took 2,873
    # eliminations on perm:5; starting from the parent's echelon row,
    # which is zero at the pivots before it, takes about 200; the scan
    # records each elimination as one step
    data = buchberger_moller(generate(FamilySpec.parse("perm:5")))
    assert len(data.sm) == 120
    assert 0 < sum(len(steps) for *_, steps in data._records) <= 300


# (field, coordinates, largest dimension): 0-1 grids give the scan's value
# rows many zeros and square-free standard monomials, the others powers of
# each coordinate; sets fill more than half their grid, up to 30 points, so
# that each point's reduction runs through many echelon rows
ORACLE_GRIDS = [
    (QQ, FRACTIONAL, 3),
    (QQ, (0, 1), 5),
    (GF(2), (0, 1), 5),
    (GF(3), (0, 1, 2), 3),
    (GF(5), tuple(range(5)), 3),
    (MERSENNE, LARGE_RESIDUES, 2),
]


def draw_grid_set(data, field, coords, max_dim):
    dim = data.draw(st.integers(1, max_dim))
    grid = list(itertools.product(coords, repeat=dim))
    cap = min(30, len(grid))
    rows = data.draw(st.permutations(grid))[: data.draw(st.integers(cap // 2 + 1, cap))]
    return PointSet(field, dim, rows)


@pytest.mark.parametrize("field, coords, max_dim", ORACLE_GRIDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_indicator_expansions_match_evaluation_matrix_inverse(field, coords, max_dim, data):
    assert_indicators_match_reference(draw_grid_set(data, field, coords, max_dim))


@pytest.mark.parametrize("desc, field", [("cube:4", GF(3)), ("ag:2:5", None)])
def test_indicator_expansions_match_evaluation_matrix_inverse_on_families(desc, field):
    assert_indicators_match_reference(generate(FamilySpec.parse(desc, field)))


@pytest.mark.parametrize("field, coords, max_dim", ORACLE_GRIDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_basis_matches_evaluation_matrix_inverse(field, coords, max_dim, data):
    assert_basis_matches_reference(draw_grid_set(data, field, coords, max_dim))


# planar sets off any grid, like the README's sample: their scan
# polynomials carry leading monomials in their tails
PLANAR = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(PLANAR, PLANAR), min_size=1, max_size=12, unique=True))
def test_basis_matches_evaluation_matrix_inverse_on_fractional_planar_sets(rows):
    assert_basis_matches_reference(PointSet(QQ, 2, rows))
