"""Exact affine linear algebra: point sets, hyperplanes, affine maps, int rows.

Points are plain tuples of field scalars.  All operations are pure and all
results are canonical: row reduction picks the leftmost pivot in the first
eligible row, and hyperplanes are scaled so their first nonzero normal entry
is one, making every representation unique and reproducible.

The hot loops (Buchberger-Moeller in ``vanishing``, and the coatom
enumeration, ranks and witness hyperplanes in ``cover``) run on rows of
plain ints, through the functions below; each takes p, the field's prime,
or None over the rationals.  Over the rationals a row
stands for a rational row up to a nonzero factor, and ``content`` keeps it
primitive; over GF(p) it holds residues, and ``content`` reduces them mod
p.  Rows are combined by cross-multiplication (``eliminate``), which needs
no division in either field, and ``echelon`` is Gauss-Jordan elimination
by those steps.  Zero tests, pivots and parallelism (``direction``, which
the coatom enumeration keeps its rows as) read the same in both fields.
``ints`` and ``int_points`` read field scalars as ints: for the
Buchberger-Moeller scan and normal forms, the coatom enumeration, witness
hyperplanes, the rank check of ``AffineMap`` and the point images of
``cover.orbit_reduce``.  ``scalars`` rebuilds field scalars on the way out,
for evaluation and maps.  The exhaustive hyperplane table and the cover
re-check in ``cover`` read ints without these functions, so they share no
code with the enumeration and witnesses they check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field, GFElement, scalar_field
from .polyring import terms_text

Point = tuple


def _entry_field(entries) -> Field:
    field = None
    for x in entries:
        f = scalar_field(x)
        if field is None:
            field = f
        elif field != f:
            raise TypeError(f"mixed fields: {field!r} vs {f!r}")
    if field is None:
        raise ValueError("cannot infer field from no entries")
    return field


def content(row, p):
    """(row / g, g): an int row divided by its content g, the gcd of its
    entries (0 for a zero row); over GF(p) the row reduced mod p, and g = 1."""
    if p is not None:
        return [x % p for x in row], 1
    g = gcd(*row)
    return ([x // g for x in row] if g > 1 else row), g


def eliminate(row, prow, c, p):
    """(row, g): row with its column c cleared by the nonzero prow[c], over
    the content g that ``content`` takes from the result."""
    pv, f = prow[c], row[c]
    return content([pv * a - f * b for a, b in zip(row, prow)], p)


def echelon(rows, p):
    """(rows, pivots): the int rows in reduced echelon form, zero rows dropped.

    Pivot choice is the leftmost nonzero column, first eligible row, and
    each pivot column is cleared in every other row, as in Gauss-Jordan
    elimination; row i is a nonzero multiple of the reduced row with
    pivot pivots[i].
    """
    rows = [content(list(row), p)[0] for row in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        prow = rows[r]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = eliminate(row, prow, c, p)[0]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def direction(row, p) -> tuple:
    """The multiple of a nonzero row shared by exactly the rows parallel to it.

    Over the rationals it is primitive with a positive first nonzero entry;
    over GF(p) it is reduced mod p with first nonzero entry 1.  So a row and
    its negative share their direction.
    """
    if p is not None:
        row = [x % p for x in row]
    for lead in row:
        if lead:
            break
    else:
        raise ValueError("a zero row has no direction")
    if p is None:
        g = gcd(*row)
        if lead < 0:
            g = -g
        return tuple(row) if g == 1 else tuple([x // g for x in row])
    if lead == 1:
        return tuple(row)
    inv = pow(lead, -1, p)
    return tuple([x * inv % p for x in row])


def ints(values, p):
    """(row, scale): the ints scale * values, scale the lcm of the denominators."""
    if p is not None:
        return [x.value for x in values], 1
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def int_points(points, p):
    """(points, scale): every point times one common scale, as int tuples."""
    dim = len(points[0])
    flat, scale = ints([x for q in points for x in q], p)
    return [tuple(flat[i : i + dim]) for i in range(0, len(flat), dim)], scale


def scalars(row, p, den=1) -> tuple:
    """The field scalars row[i] / den."""
    if p is None:
        return tuple(Fraction(x, den) for x in row)
    inv = pow(den, -1, p)
    return tuple(GFElement(x * inv, p) for x in row)


class PointSet:
    """Ordered, duplicate-free points sharing one field and dimension."""

    __slots__ = ("field", "dim", "points", "_index")

    def __init__(self, field: Field, dim: int, points):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        pts = []
        index = {}
        for p in points:
            p = tuple(field.scalar(x) for x in p)
            if len(p) != dim:
                raise ValueError(f"point {p} has {len(p)} coordinates, expected {dim}")
            if p in index:
                raise ValueError(f"duplicate point at positions {index[p]} and {len(pts)}")
            index[p] = len(pts)
            pts.append(p)
        if not pts:
            raise ValueError("point set must be nonempty")
        self.field = field
        self.dim = dim
        self.points = tuple(pts)
        self._index = index

    @classmethod
    def from_ints(cls, field: Field, rows) -> "PointSet":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("point set must be nonempty")
        return cls(field, len(rows[0]), rows)

    def index_of(self, point) -> int:
        p = tuple(self.field.scalar(x) for x in point)
        i = self._index.get(p)
        if i is None:
            raise ValueError(f"point {self.format_point(p)} is not in the set")
        return i

    def __len__(self):
        return len(self.points)

    def is_zero_one(self) -> bool:
        zero, one = self.field.zero(), self.field.one()
        return all(x == zero or x == one for p in self.points for x in p)

    def format_point(self, point) -> str:
        return "(" + ", ".join(self.field.format(x) for x in point) + ")"

    def __repr__(self):
        return f"PointSet({self.field!r}, dim={self.dim}, n={len(self.points)})"


class Hyperplane:
    """Affine hyperplane given by the form normal . x - offset.

    The representation is canonical: the first nonzero normal entry is
    scaled to one, so equal hyperplanes compare equal.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        normal = tuple(normal)
        field = _entry_field(normal)
        offset = field.scalar(offset)
        lead = None
        for x in normal:
            if x:
                lead = x
                break
        if lead is None:
            raise ValueError("hyperplane normal must be nonzero")
        if lead != 1:
            normal = tuple(x / lead for x in normal)
            offset = offset / lead
        self.normal = normal
        self.offset = offset

    @classmethod
    def from_ints(cls, field: Field, normal, offset) -> "Hyperplane":
        return cls([field.scalar(x) for x in normal], field.scalar(offset))

    def evaluate(self, point):
        """normal . point - offset, the point read in the hyperplane's field; 0 exactly on it."""
        if len(point) != len(self.normal):
            raise ValueError("dimension mismatch")
        scalar = scalar_field(self.offset).scalar
        return sum(a * scalar(x) for a, x in zip(self.normal, point)) - self.offset

    def contains(self, point) -> bool:
        """Library API, and the tests' field-scalar reference for ``cover.verify_cover``."""
        return not self.evaluate(point)

    def as_text(self) -> str:
        field = scalar_field(self.normal[0])
        lhs = terms_text((field.format(a), f"x{i + 1}") for i, a in enumerate(self.normal) if a)
        return f"{lhs} = {field.format(self.offset)}"

    def __eq__(self, other):
        return (
            isinstance(other, Hyperplane)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        return f"Hyperplane({self.as_text()})"


class AffineMap:
    """Invertible affine map x -> matrix . x + translation, in the matrix's field."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix, translation):
        self.matrix = tuple(tuple(row) for row in matrix)
        translation = tuple(translation)
        n = len(translation)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("matrix shape does not match translation length")
        field = _entry_field(x for row in self.matrix for x in row)
        self.translation = tuple(field.scalar(t) for t in translation)
        if len(echelon((ints(row, field.p)[0] for row in self.matrix), field.p)[0]) != n:
            raise ValueError("affine map matrix is singular")

    def apply(self, point):
        if len(point) != len(self.translation):
            raise ValueError("dimension mismatch")
        return tuple(
            sum(a * x for a, x in zip(row, point)) + t
            for row, t in zip(self.matrix, self.translation)
        )

    def __repr__(self):
        return f"AffineMap(n={len(self.translation)})"
