import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import almostcover
from almostcover.fields import GF, QQ, Field, GFElement, is_prime, parse_field_name, scalar_field


def test_prime_validation():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(1) and not is_prime(9) and not is_prime(561)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(2**64 + 13)  # beyond the 64-bit limit even if prime


def test_gf_basic_arithmetic():
    F = GF(5)
    a, b = F.scalar(3), F.scalar(4)
    assert a + b == 2
    assert a - b == 4
    assert a * b == 2
    assert (a / b).value == (3 * pow(4, 3, 5)) % 5
    assert -a == 2
    assert a**3 == 2
    assert b.inverse() * b == 1


def test_gf_division_by_zero():
    F = GF(7)
    with pytest.raises(ZeroDivisionError):
        F.scalar(3) / F.scalar(0)


def test_mixed_fields_rejected():
    with pytest.raises(TypeError):
        GF(3).scalar(1) + GF(5).scalar(1)
    with pytest.raises(TypeError):
        GF(3).scalar(1) + Fraction(1, 2)
    with pytest.raises(TypeError):
        QQ.scalar(GF(3).scalar(1))


def test_scalar_coercion_and_contains():
    assert QQ.scalar(3) == Fraction(3)
    assert GF(3).scalar(-1) == 2


def test_parse_and_format():
    assert QQ.parse("3/7") == Fraction(3, 7)
    assert QQ.parse("-4") == Fraction(-4)
    assert QQ.format(Fraction(-3, 7)) == "-3/7"
    with pytest.raises(ValueError):
        QQ.parse("1.5")
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    F = GF(11)
    assert F.parse("13") == 2
    assert F.format(F.scalar(13)) == "2"
    with pytest.raises(ValueError):
        F.parse("1/2")


def test_field_names_round_trip():
    for field in (QQ, GF(2), GF(97)):
        assert parse_field_name(field.name) == field
    with pytest.raises(ValueError):
        parse_field_name("gf:6")
    with pytest.raises(ValueError):
        parse_field_name("complex")


def test_scalar_field_detection():
    assert scalar_field(Fraction(1)) == QQ
    assert scalar_field(GFElement(2, 7)) == GF(7)
    with pytest.raises(TypeError):
        scalar_field(1.5)


rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)
gf_values = st.integers(min_value=0, max_value=12)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


@given(gf_values, gf_values, gf_values)
def test_gf13_field_axioms(x, y, z):
    F = GF(13)
    a, b, c = F.scalar(x), F.scalar(y), F.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    # the reflected operators and negative powers, as a Fraction has them,
    # checked against plain residue arithmetic
    assert (1 - a).value == (1 - x) % 13
    if a:
        assert a * a.inverse() == 1
        assert (1 / a).value == pow(x, -1, 13)
        assert (a**-2).value == pow(x, -2, 13)


@given(gf_values)
def test_gf_hash_consistent_with_int_equality(x):
    a = GF(13).scalar(x)
    assert a == x and hash(a) == hash(x)


# math's exact integer functions, and inf, the uncapped --max-n of the suites
EXACT_MATH = {"comb", "factorial", "floor", "gcd", "lcm", "inf"}


def test_no_float_in_any_module():
    found = []
    for path in sorted(Path(almostcover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{where} float() call")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in EXACT_MATH
            ):
                found.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.extend(f"{where} from math import {a.name}" for a in node.names if a.name not in EXACT_MATH)
    assert not found
