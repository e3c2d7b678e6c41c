"""Generators for the named point families and their sharpness witnesses.

Family specs are addressable as ``kind:arg:arg`` strings (the same grammar
the CLI accepts):

    cube:n          vertices of the n-cube, 2^n points
    vnk:n:k         0-1 vectors with at most k ones, sum_{i<=k} C(n,i) points
    vnkt:n:k:T      vnk plus the indicator vector of T (comma-separated,
                    1-based, |T| > k)
    jnq:n:q         non-decreasing length-n sequences over {1..q} embedded
                    in the field, C(n+q-1, q-1) points
    inq:n:q         the same sequences as integer points over the rationals
    perm:n          all permutations of (1..n), n! points in dimension n
    ag:n:q          every point of the affine space over GF(q), q^n points

All families default to the rationals except ag, which fixes GF(q); the
0-1 families and jnq may be generated over GF(p) instead (jnq embeds
residues and needs p >= q to stay injective).
"""

from __future__ import annotations

import itertools
import math

from .errors import InvariantError
from .fields import GF, QQ, Field
from .linalg import AffineMap, Hyperplane, PointSet
from .polyring import Polynomial

# kind -> its arguments in spec order; T is a comma-separated index list
FAMILY_ARGS = {
    "cube": ("n",),
    "vnk": ("n", "k"),
    "vnkt": ("n", "k", "T"),
    "jnq": ("n", "q"),
    "inq": ("n", "q"),
    "perm": ("n",),
    "ag": ("n", "q"),
}


class FamilySpec:
    __slots__ = ("kind", "n", "k", "q", "t", "field")

    def __init__(
        self,
        kind: str,
        n: int,
        k: int | None = None,
        q: int | None = None,
        t: tuple | None = None,
        field: Field = QQ,
    ):
        self.kind = kind
        self.n = n
        self.k = k
        self.q = q
        self.t = t
        self.field = field
        if self.kind not in FAMILY_ARGS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.kind in ("vnk", "vnkt"):
            if self.k is None or not 0 <= self.k < self.n:
                raise ValueError(f"need 0 <= k < n, got k={self.k}, n={self.n}")
        if self.kind == "vnkt":
            t = self.t
            if not t or any(not 1 <= i <= self.n for i in t) or len(set(t)) != len(t):
                raise ValueError(f"T must be a set of distinct indices in 1..{self.n}")
            if len(t) <= self.k:
                raise ValueError(f"need |T| > k, got |T|={len(t)}, k={self.k}")
        if self.kind in ("jnq", "inq", "ag"):
            if self.q is None or self.q < 2:
                raise ValueError(f"need q > 1, got {self.q}")
        if self.kind == "inq" and not self.field.is_rational:
            raise ValueError("inq is the plain integer family; use jnq over GF(p)")
        if self.kind == "perm" and not self.field.is_rational:
            raise ValueError("the permutohedron family is generated over the rationals")
        if self.kind == "ag":
            if self.field.is_rational:
                raise ValueError("ag needs a finite field")
            if self.field.p != self.q:
                raise ValueError(f"ag:{self.n}:{self.q} must use GF({self.q})")
        if self.kind == "jnq" and not self.field.is_rational and self.field.p < self.q:
            raise ValueError(
                f"embedding 1..{self.q} into GF({self.field.p}) is not injective"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @classmethod
    def parse(cls, text: str, field: Field | None = None) -> "FamilySpec":
        kind, *args = text.strip().split(":")
        names = FAMILY_ARGS.get(kind)
        if names is None:
            raise ValueError(f"unknown family kind {kind!r}")
        if len(args) > len(names):
            raise ValueError(f"too many arguments in family spec {text.strip()!r}")
        if "T" in names and len(args) < len(names):
            raise ValueError("vnkt needs n, k and T, e.g. vnkt:3:1:1,2")

        def value(i):
            name = names[i]
            if i >= len(args):
                raise ValueError(f"family {kind!r} is missing its {name} argument")
            try:
                if name == "T":
                    return tuple(sorted(int(x) for x in args[i].split(",")))
                return int(args[i])
            except ValueError:
                raise ValueError(f"bad {name} argument {args[i]!r} in family spec") from None

        # T is read first, so a bad T is reported before a bad n or k
        order = sorted(range(len(names)), key=lambda i: names[i] != "T")
        values = {names[i].lower(): value(i) for i in order}
        if kind == "ag":
            n, q = values["n"], values["q"]
            if field is not None and (field.is_rational or field.p != q):
                raise ValueError(f"ag:{n}:{q} must use GF({q})")
            field = GF(q)
        return cls(kind, field=field or QQ, **values)

    def describe(self) -> str:
        def text(name):
            value = getattr(self, name.lower())
            return ",".join(map(str, value)) if name == "T" else str(value)

        return ":".join([self.kind, *map(text, FAMILY_ARGS[self.kind])])


def expected_size(spec: FamilySpec) -> int:
    if spec.kind == "cube":
        return 2**spec.n
    if spec.kind == "vnk":
        return sum(math.comb(spec.n, i) for i in range(spec.k + 1))
    if spec.kind == "vnkt":
        return sum(math.comb(spec.n, i) for i in range(spec.k + 1)) + 1
    if spec.kind in ("jnq", "inq"):
        return math.comb(spec.n + spec.q - 1, spec.q - 1)
    if spec.kind == "perm":
        return math.factorial(spec.n)
    return spec.q**spec.n


def generate(spec: FamilySpec) -> PointSet:
    """The family's point set, in its documented deterministic order."""
    field, n = spec.field, spec.n
    if spec.kind == "cube":
        rows = itertools.product((0, 1), repeat=n)
    elif spec.kind in ("vnk", "vnkt"):
        rows = []
        for size in range(spec.k + 1):
            for combo in itertools.combinations(range(n), size):
                rows.append(tuple(1 if i in combo else 0 for i in range(n)))
        if spec.kind == "vnkt":
            rows.append(tuple(1 if i + 1 in spec.t else 0 for i in range(n)))
    elif spec.kind in ("jnq", "inq"):
        rows = itertools.combinations_with_replacement(range(1, spec.q + 1), n)
    elif spec.kind == "perm":
        rows = itertools.permutations(range(1, n + 1))
    else:
        rows = itertools.product(range(spec.q), repeat=n)
    V = PointSet(field, n, rows)
    if len(V) != expected_size(spec):
        raise InvariantError(f"{spec.describe()} produced {len(V)} points")
    return V


def sharp_cover_vnk(n: int, k: int):
    """The k hyperplanes sum(x) = i, 1 <= i <= k: an almost cover of vnk:n:k
    at the origin."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got ({n}, {k})")
    ones = [QQ.one()] * n
    return [Hyperplane(ones, QQ.scalar(i)) for i in range(1, k + 1)]


def szw_sharp_polynomial(n: int, k: int) -> Polynomial:
    """The degree-(k+1) product prod_{j=0..k} (sum(x) - j) over the rationals.

    Vanishes exactly on the 0-1 points with at most k ones.  Only the degree
    is checked here; ``verify szw`` checks where it vanishes.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got ({n}, {k})")
    total = Polynomial.zero(QQ, n)
    for i in range(n):
        total = total + Polynomial.variable(QQ, n, i)
    f = Polynomial.constant(QQ, n, 1)
    for j in range(k + 1):
        f = f * (total - Polynomial.constant(QQ, n, j))
    if f.degree() != k + 1:
        raise InvariantError("sharp polynomial has the wrong degree")
    return f


def _least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise InvariantError(f"no primitive root found modulo {p}")


def symmetry_generators(spec: FamilySpec):
    """Affine maps generating a transitive symmetry group of the family.

    Only the cube, the permutohedron and the full affine space carry one;
    the asymmetric families raise.
    """
    field, n = spec.field, spec.n
    zero, one = field.zero(), field.one()

    def permutation_matrix(i, j):
        rows = [[one if c == r else zero for c in range(n)] for r in range(n)]
        rows[i], rows[j] = rows[j], rows[i]
        return rows

    identity = [[one if c == r else zero for c in range(n)] for r in range(n)]
    gens = []
    if spec.kind == "cube":
        for i in range(n - 1):
            gens.append(AffineMap(permutation_matrix(i, i + 1), [zero] * n))
        for i in range(n):
            rows = [list(r) for r in identity]
            rows[i][i] = -one
            shift = [one if j == i else zero for j in range(n)]
            gens.append(AffineMap(rows, shift))
        return gens
    if spec.kind == "perm":
        for i in range(n - 1):
            gens.append(AffineMap(permutation_matrix(i, i + 1), [zero] * n))
        return gens
    if spec.kind == "ag":
        for i in range(n):
            shift = [one if j == i else zero for j in range(n)]
            gens.append(AffineMap(identity, shift))
        if spec.q > 2:
            g = field.scalar(_least_primitive_root(spec.q))
            scaled = [[g if c == r else zero for c in range(n)] for r in range(n)]
            gens.append(AffineMap(scaled, [zero] * n))
        return gens
    raise ValueError(f"no declared symmetry for family {spec.describe()!r}")
