"""Vanishing ideals of finite point sets via evaluation-matrix interpolation.

Candidate monomials are scanned in increasing deglex order.  A monomial whose
evaluation vector on the points is independent of those accepted so far
becomes a standard monomial; a dependent one yields a monic basis polynomial
whose tail is supported on earlier standard monomials.  Skipping candidates
divisible by an already-found leading monomial keeps the scan finite and
makes the emitted basis the reduced one: exactly one basis element per
minimal non-standard monomial.

The standard monomials form a basis of the functions on the point set, so
their count always equals the number of points, and the set is closed under
division.  Both facts are relied on downstream and checked in the tests.

The scan runs on integer kernel rows (see ``linalg``): rational points are
scaled once to integers by their common denominator D, which scales a
monomial of degree d by D^d, and that factor is undone when a basis
polynomial or an indicator expansion is built.  Every candidate after 1 is
a standard monomial times one variable, so its values on the points are
that parent's values times one coordinate: one multiplication per point,
on any point set.

A point's indicator expansion comes from the scan's own echelon rows, one
per standard monomial: the point's unit vector, reduced against them in
scan order, leaves minus a multiple of its indicator function over the
standard monomials.  No second elimination is run, and the rows never
change.
"""

from __future__ import annotations

import heapq

from .errors import InvariantError
from .linalg import PointSet, _IntKernel
from .polyring import Polynomial, deglex_key, mono_deg, mono_divides, mono_one, reduce_poly


class GroebnerData:
    """Reduced deglex basis of a vanishing ideal plus its standard monomials.

    Built by ``buchberger_moller``, which hands over its echelon rows and
    the scale of its integer points for the indicator expansions.  Nothing
    is reassigned after construction.
    """

    __slots__ = ("source", "basis", "sm", "_rows", "_scale")

    def __init__(self, source: PointSet, basis, sm, rows, scale):
        self.source = source
        self.basis = tuple(basis)
        self.sm = tuple(sm)
        self._rows = tuple(rows)
        self._scale = scale

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Unique representative of f supported on the standard monomials."""
        if f.field != self.source.field:
            raise TypeError(f"field mismatch: {f.field!r} vs {self.source.field!r}")
        if f.nvars != self.source.dim:
            raise ValueError("variable count does not match the ambient dimension")
        return reduce_poly(f, self.basis)

    def indicator_expansion(self, point) -> Polynomial:
        """Expansion of the function that is 1 at the point, 0 at the others."""
        V = self.source
        idx = V.index_of(point)
        npts = len(V)
        kernel = _IntKernel(V.field)
        # [unit vector of the point | zeros over sm | tracking slot 1]: each
        # scan row is zero at the pivots of the rows before it, so one pass
        # in scan order clears the point values and leaves [0 | -t * chi | t],
        # chi the indicator over sm evaluated on scale * V.  A row shorter
        # than this one has zeros past its end.
        row = [0] * (2 * npts + 1)
        row[idx] = row[-1] = 1
        for pivot, prow in self._rows:
            if row[pivot]:
                row = kernel.eliminate(row, prow, pivot)
        # back on V, the coefficient of a degree-d monomial takes a factor
        # scale^d
        tail = [-c * self._scale ** mono_deg(m) for c, m in zip(row[npts:-1], self.sm)]
        return Polynomial(V.field, V.dim, dict(zip(self.sm, kernel.scalars(tail, row[-1]))))

    def separating_degree(self, point) -> int:
        """Degree of the normal form of the point's indicator function.

        This is the least possible degree of a polynomial vanishing on all
        other points of the set but not at this one.

        It runs the reduction of ``indicator_expansion`` on the point
        columns only, which make every choice of it.  Scan row k is the
        first with a column for sm[k], and its entry there is nonzero, so
        the expansion's last monomial is sm[k] for the last row k used; and
        deglex degrees do not fall in scan order.
        """
        V = self.source
        npts = len(V)
        kernel = _IntKernel(V.field)
        row = [0] * npts
        row[V.index_of(point)] = 1
        last = 0
        for k, (pivot, prow) in enumerate(self._rows):
            if row[pivot]:
                row = kernel.eliminate(row, prow[:npts], pivot)
                last = k
        return mono_deg(self.sm[last])

    def max_sm_degree(self) -> int:
        return max(mono_deg(m) for m in self.sm)

    def check_invariants(self):
        """Verify the structural guarantees; raises InvariantError on failure."""
        V = self.source
        field = V.field
        one = field.one()
        if len(self.sm) != len(V):
            raise InvariantError("standard monomial count differs from point count")
        sm_set = set(self.sm)
        nvars = V.dim
        for m in self.sm:
            for i in range(nvars):
                if m[i]:
                    d = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                    if d not in sm_set:
                        raise InvariantError(f"standard monomials not divisor-closed at {m}")
        for g in self.basis:
            lm, lc = g.leading_term()
            if lc != one:
                raise InvariantError("basis element is not monic")
            if lm in sm_set:
                raise InvariantError("leading monomial clashes with a standard monomial")
            for m in g.terms:
                if m != lm and m not in sm_set:
                    raise InvariantError("basis tail leaves the standard monomials")
            for p in V.points:
                if g.evaluate(p):
                    raise InvariantError("basis element does not vanish on the point set")
        if V.is_zero_one():
            if any(e > 1 for m in self.sm for e in m):
                raise InvariantError("non-square-free standard monomial on a 0-1 set")

    def __repr__(self):
        return f"GroebnerData(points={len(self.source)}, basis={len(self.basis)})"


def buchberger_moller(V: PointSet) -> GroebnerData:
    """Groebner data of the vanishing ideal of a finite point set."""
    field = V.field
    kernel = _IntKernel(field)
    points, scale = kernel.int_points(V.points)
    npts = len(points)
    nvars = V.dim
    sm = []
    basis = []
    lms = []
    # echelon rows (pivot, row): a row holds a combination's values on the
    # points, then its coefficients over the standard monomials found
    # before it and over its own monomial
    rows = []
    # values[k]: sm[k] on the points, as the kernel holds it; the rows are
    # exact, so a candidate gets the same values from any parent
    values = []

    def basis_polynomial(mono, row):
        # the combination vanishes on every point and its coefficient at
        # mono is nonzero; undo the point scaling and make it monic
        terms = [(m, c * scale ** mono_deg(m)) for m, c in zip(sm + [mono], row[npts:]) if c]
        coeffs = kernel.scalars([c for _, c in terms], terms[-1][1])
        return Polynomial(field, nvars, {m: c for (m, _), c in zip(terms, coeffs)})

    start = mono_one(nvars)
    # (key, monomial, index of its parent in sm, the variable it adds)
    heap = [(deglex_key(start), start, None, None)]
    seen = {start}
    while heap:
        _, mono, parent, var = heapq.heappop(heap)
        if any(mono_divides(lm, mono) for lm in lms):
            continue
        if parent is None:
            vals = [1] * npts
        else:
            vals = [a * p[var] for a, p in zip(values[parent], points)]
        row = first = kernel.normalize(vals + [0] * len(sm) + [1])
        for pivot, prow in rows:
            if row[pivot]:
                row = kernel.eliminate(row, prow, pivot)
        pivot = next((i for i in range(npts) if row[i]), None)
        if pivot is None:
            basis.append(basis_polynomial(mono, row))
            lms.append(mono)
        elif len(sm) == npts:
            # once |sm| = |V| the standard monomials span all functions on
            # the set, so every remaining border candidate must be dependent
            raise InvariantError("independent monomial found beyond a spanning set")
        else:
            rows.append((pivot, row))
            values.append(first[:npts])
            sm.append(mono)
            for i in range(nvars):
                child = tuple(e + 1 if j == i else e for j, e in enumerate(mono))
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, (deglex_key(child), child, len(sm) - 1, i))
    if len(sm) != npts:
        raise InvariantError("monomial scan terminated before spanning the point set")
    return GroebnerData(V, basis, sm, rows, scale)
