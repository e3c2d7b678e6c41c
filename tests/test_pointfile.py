from fractions import Fraction

import pytest

from almostcover.errors import ParseError
from almostcover.fields import GF, QQ
from almostcover.pointfile import parse_pointset

SAMPLE = """\
# a comment
field rational
dim 2

point 1 2/3
point 0 -1
"""


def test_parse_rational_file():
    V = parse_pointset(SAMPLE)
    assert V.field == QQ and V.dim == 2
    assert V.points[0] == (Fraction(1), Fraction(2, 3))
    assert V.points[1] == (Fraction(0), Fraction(-1))


def test_parse_gf_file():
    V = parse_pointset("field gf:5\ndim 1\npoint 7\npoint 3\n")
    assert V.field == GF(5)
    assert V.points[0][0].value == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("field rational\ndim 2\npoint 1\n", 3),          # wrong arity
        ("field rational\ndim 2\npoint 1 2\npoint 1 2\n", 4),  # duplicate
        ("dim 2\nfield rational\n", 1),                   # dim before field
        ("field rational\ndim 0\n", 2),                   # bad dimension
        ("field rational\ndim ²\n", 2),                   # digit int() rejects
        ("field rational\ndim 2\nvertex 1 2\n", 3),       # unknown directive
        ("field gf:6\ndim 1\npoint 0\n", 1),              # composite modulus
        ("field rational\ndim 1\npoint 1.5\n", 3),        # float literal
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_pointset(text)
        assert err.value.line == line, text


def test_parse_requires_all_sections():
    with pytest.raises(ParseError, match="missing field"):
        parse_pointset("# empty\n")
    with pytest.raises(ParseError, match="missing dim"):
        parse_pointset("field rational\n")
    with pytest.raises(ParseError, match="no points"):
        parse_pointset("field rational\ndim 2\n")
