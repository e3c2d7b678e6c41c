"""Exact Groebner-basis machinery and minimum almost-covers by hyperplanes.

The package computes, in exact arithmetic over the rationals or GF(p):
reduced deglex bases of vanishing ideals of finite point sets, standard
monomials, normal forms and the degree of each point's indicator in normal
form, the counting and certificate lower bounds on almost-cover numbers,
and exact minimum almost covers via branch-and-bound over affinely closed
traces.
"""

from .bounds import (
    BoundReport,
    ball_size,
    certificate_lower_bound,
    check_binomial_inequalities,
    cor_bounds,
    counting_lower_bound,
    cube_counting_lower_bound,
)
from .cover import (
    ACNumbers,
    CoverSolution,
    ac_numbers,
    min_almost_cover,
    orbit_reduce,
    verify_cover,
)
from .errors import InvariantError, ParseError
from .families import (
    FamilySpec,
    generate,
    sharp_cover_vnk,
    symmetry_generators,
    szw_sharp_polynomial,
)
from .fields import GF, QQ, Field, GFElement
from .linalg import AffineMap, Hyperplane, PointSet
from .pointfile import load_pointset, parse_pointset
from .polyring import Polynomial, deglex_key
from .vanishing import GroebnerData, buchberger_moller

__version__ = "0.1.0"

__all__ = [
    "ACNumbers",
    "AffineMap",
    "BoundReport",
    "CoverSolution",
    "Field",
    "FamilySpec",
    "GF",
    "GFElement",
    "GroebnerData",
    "Hyperplane",
    "InvariantError",
    "ParseError",
    "PointSet",
    "Polynomial",
    "QQ",
    "ac_numbers",
    "ball_size",
    "buchberger_moller",
    "certificate_lower_bound",
    "check_binomial_inequalities",
    "cor_bounds",
    "counting_lower_bound",
    "cube_counting_lower_bound",
    "deglex_key",
    "generate",
    "load_pointset",
    "min_almost_cover",
    "orbit_reduce",
    "parse_pointset",
    "sharp_cover_vnk",
    "symmetry_generators",
    "szw_sharp_polynomial",
    "verify_cover",
]
