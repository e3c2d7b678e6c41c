from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from almostcover.fields import GF, QQ
from almostcover.polyring import Polynomial, deglex_key, mono_divides, mono_mul, reduce_poly


def poly(terms, nvars=2, field=QQ):
    """The polynomial with the given {exponent tuple: int or Fraction} terms."""
    return Polynomial(field, nvars, {mono: field.scalar(c) for mono, c in terms.items()})


def test_compare_degree_dominates():
    assert deglex_key((1, 0)) < deglex_key((0, 2))  # x1 < x2^2


def test_compare_tie_break_on_first_variable():
    assert deglex_key((1, 1)) > deglex_key((0, 2))  # x1*x2 > x2^2


def test_one_is_minimal():
    assert deglex_key((0, 0)) < deglex_key((1, 0))
    assert deglex_key((0, 0)) < deglex_key((0, 1))


def test_leading_terms():
    f = poly({(1, 0): 3, (0, 2): 1})
    assert f.leading_term() == ((0, 2), Fraction(1))
    assert poly({(0, 0): 7}).leading_term() == ((0, 0), Fraction(7))
    assert poly({(1, 1): 1, (1, 0): -1}).leading_term() == ((1, 1), Fraction(1))
    with pytest.raises(ValueError):
        Polynomial.zero(QQ, 2).leading_term()


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


def test_evaluate():
    f = poly({(2, 1): 1, (0, 1): -2, (0, 0): 1})
    assert f.evaluate((QQ.scalar(2), QQ.scalar(3))) == Fraction(4 * 3 - 6 + 1)
    g = poly({(1, 0): 1, (0, 1): 1}, field=GF(3))
    assert g.evaluate((GF(3).scalar(2), GF(3).scalar(2))) == 1


def test_reduce_single_replacement():
    # x1^2 modulo x1^2 - x1 rewrites to x1
    assert reduce_poly(poly({(2, 0): 1}), [poly({(2, 0): 1, (1, 0): -1})]).text() == "x1"


def test_reduce_exact_division():
    assert reduce_poly(poly({(1, 1): 1}), [poly({(1, 1): 1})]).is_zero()


def test_reduce_two_steps():
    G = [poly({(2, 0): 1, (1, 0): -1}), poly({(0, 2): 1, (0, 1): -1})]
    assert reduce_poly(poly({(2, 1): 1}), G).text() == "x1*x2"


def test_reduce_rejects_zero_generator():
    with pytest.raises(ValueError):
        reduce_poly(poly({(1, 0): 1}), [Polynomial.zero(QQ, 2)])


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


@settings(max_examples=60, deadline=None)
@given(raw_polys, st.lists(raw_polys, min_size=1, max_size=3))
def test_reduce_properties(raw_f, raw_gens):
    f = poly(raw_f)
    gens = [poly(g) for g in raw_gens if poly(g)]
    if not gens:
        return
    h = reduce_poly(f, gens)
    # projection
    assert reduce_poly(h, gens) == h
    # no term of the result is reducible
    heads = [g.leading_term()[0] for g in gens]
    assert not any(mono_divides(lm, m) for m in h.terms for lm in heads)
    # the difference lies in the ideal: it reduces to zero
    assert reduce_poly(f - h, gens).is_zero()
    # deglex reduction never raises the degree
    assert h.degree() <= f.degree() or f.is_zero()
