"""Plain-text point set files.

    # optional comments
    field rational        (or: field gf:5)
    dim 2
    point 1 2/3
    point 0 -1

The field line must come before dim, dim before the points.  Rationals are
written as ``a`` or ``a/b``; finite-field coordinates as plain integers,
stored reduced mod p.  Duplicate points are rejected at parse time and all
errors carry the offending line number.
"""

from __future__ import annotations

from .errors import ParseError
from .fields import parse_field_name
from .linalg import PointSet


def parse_pointset(text: str) -> PointSet:
    field = None
    dim = None
    rows = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'field rational' or 'field gf:<p>'", lineno)
            try:
                field = parse_field_name(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif keyword == "dim":
            if field is None:
                raise ParseError("dim line before field line", lineno)
            if dim is not None:
                raise ParseError("duplicate dim line", lineno)
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise ParseError("expected 'dim <n>' with n >= 1", lineno)
            dim = int(parts[1])
        elif keyword == "point":
            if dim is None:
                raise ParseError("point line before dim line", lineno)
            if len(parts) - 1 != dim:
                raise ParseError(
                    f"point has {len(parts) - 1} coordinates, expected {dim}", lineno
                )
            try:
                point = tuple(field.parse(tok) for tok in parts[1:])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if point in seen:
                raise ParseError(
                    f"duplicate point (first seen on line {seen[point]})", lineno
                )
            seen[point] = lineno
            rows.append(point)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if field is None:
        raise ParseError("missing field line")
    if dim is None:
        raise ParseError("missing dim line")
    if not rows:
        raise ParseError("no points")
    return PointSet(field, dim, rows)


def load_pointset(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_pointset(handle.read())
