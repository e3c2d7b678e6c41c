from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from almostcover.fields import GF, QQ, GFElement
from almostcover.linalg import PointSet
from almostcover.polyring import Polynomial, deglex_key, mono_mul
from almostcover.vanishing import buchberger_moller


def poly(terms, nvars=2, field=QQ):
    """The polynomial with the given {exponent tuple: int or Fraction} terms."""
    return Polynomial(field, nvars, terms)


def test_compare_degree_dominates():
    assert deglex_key((1, 0)) < deglex_key((0, 2))  # x1 < x2^2


def test_compare_tie_break_on_first_variable():
    assert deglex_key((1, 1)) > deglex_key((0, 2))  # x1*x2 > x2^2


def test_one_is_minimal():
    assert deglex_key((0, 0)) < deglex_key((1, 0))
    assert deglex_key((0, 0)) < deglex_key((0, 1))


def test_arithmetic_examples():
    assert (poly({(1, 0): 1, (0, 0): 1}) + poly({(1, 0): -1})).text() == "1"
    assert (poly({(1, 0): 1, (0, 0): -1}) * poly({(1, 0): 1, (0, 0): 1})).text() == "x1^2 - 1"
    f = poly({(1, 0): 1, (0, 0): 1}, field=GF(2))
    assert (f * f).text() == "x1^2 + 1"


def test_field_mismatch_rejected():
    with pytest.raises(TypeError):
        poly({(1, 0): 1}) + poly({(1, 0): 1}, field=GF(3))
    with pytest.raises(ValueError):
        poly({(1, 0): 1}, nvars=2) + poly({(1, 0, 0): 1}, nvars=3)


def test_constructor_reads_coefficients_in_the_field_and_checks_monomials():
    # ints are read in the field: 3 is zero mod 3, so it is not stored
    f = Polynomial(QQ, 2, {(1, 0): 2, (0, 0): 0})
    assert f.terms == {(1, 0): Fraction(2)} and type(f.terms[(1, 0)]) is Fraction
    assert Polynomial(GF(3), 1, {(1,): 3, (0,): 4}).terms == {(0,): GFElement(1, 3)}
    for field, coeff in [
        (QQ, 0.5),
        (QQ, GF(3).scalar(1)),
        (GF(3), Fraction(1, 2)),
        (GF(3), GF(5).scalar(1)),
        (GF(3), "1"),
    ]:
        with pytest.raises(TypeError):
            Polynomial(field, 2, {(1, 0): coeff})
    # normal_form would read a monomial of another length as one in two
    # variables
    for mono in [(1, 0, 0), (1,), (-1, 0), (Fraction(1), 0), ("1", 0), 1]:
        with pytest.raises(ValueError, match="not 2 non-negative ints"):
            Polynomial(QQ, 2, {mono: 1})


def test_evaluate():
    f = poly({(2, 1): 1, (0, 1): -2, (0, 0): 1})
    assert f.evaluate((QQ.scalar(2), QQ.scalar(3))) == Fraction(4 * 3 - 6 + 1)
    g = poly({(1, 0): 1, (0, 1): 1}, field=GF(3))
    assert g.evaluate((GF(3).scalar(2), GF(3).scalar(2))) == 1


def test_evaluate_reads_the_point_in_the_polynomial_field():
    x1 = poly({(1, 0): 1})
    assert x1.evaluate((2, 5)) == Fraction(2)
    # every coordinate is read, also one the polynomial does not use
    with pytest.raises(TypeError, match="rational"):
        x1.evaluate((2, "x"))
    with pytest.raises(TypeError, match="rational"):
        x1.evaluate((GF(3).scalar(1), 0))
    with pytest.raises(TypeError, match="GF"):
        poly({(1, 0): 1}, field=GF(3)).evaluate((Fraction(1, 2), 0))


def test_reduce_single_replacement():
    # x1^2 on {0, 1} rewrites to x1, by x1^2 - x1
    line = buchberger_moller(PointSet.from_ints(QQ, [(0,), (1,)]))
    assert line.normal_form(poly({(2,): 1}, nvars=1)).text() == "x1"


def test_reduce_exact_division():
    # x1*x2 vanishes on {0, e1, e2}: it is a basis element and reduces to zero
    data = buchberger_moller(PointSet.from_ints(QQ, [(0, 0), (1, 0), (0, 1)]))
    assert data.normal_form(poly({(1, 1): 1})).is_zero()


def test_reduce_two_steps():
    # x1^2*x2 on the square, by x1^2 - x1 and then x2^2 - x2
    square = buchberger_moller(PointSet.from_ints(QQ, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    assert square.normal_form(poly({(2, 1): 1})).text() == "x1*x2"


def test_render_descending_deglex_and_signs():
    f = poly({(0, 0): 1, (0, 1): -2, (1, 1): 1})
    assert f.text() == "x1*x2 - 2*x2 + 1"
    assert poly({(1, 0): -1, (0, 0): Fraction(1, 2)}).text() == "-x1 + 1/2"
    assert Polynomial.zero(QQ, 2).text() == "0"
    g = poly({(1, 0): 2, (0, 0): 2}, field=GF(3))
    assert g.text() == "2*x1 + 2"


monos = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@given(monos, monos, monos)
def test_order_laws(a, b, c):
    ka, kb = deglex_key(a), deglex_key(b)
    # a total order on monomials: distinct monomials never tie
    assert (ka == kb) == (a == b)
    # multiplicativity
    if ka < kb:
        assert deglex_key(mono_mul(a, c)) < deglex_key(mono_mul(b, c))
    # the constant monomial is minimal
    assert deglex_key((0, 0, 0)) <= ka


coeffs = st.integers(min_value=-5, max_value=5)
small_monos = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
raw_polys = st.dictionaries(small_monos, coeffs, max_size=5)


@settings(max_examples=80, deadline=None)
@given(raw_polys, raw_polys, raw_polys)
def test_ring_axioms(fa, fb, fc):
    a, b, c = poly(fa), poly(fb), poly(fc)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a - a == Polynomial.zero(QQ, 2)

