"""Vanishing ideals of finite point sets via evaluation-matrix interpolation.

Candidate monomials are scanned in increasing deglex order.  A monomial whose
evaluation vector on the points is independent of those accepted so far
becomes a standard monomial; a dependent one gives a basis polynomial.
A candidate with a divisor one degree lower that is not standard is skipped:
that divisor came earlier in deglex order, so it has been decided, and the
skip keeps the scan finite and leaves exactly one basis element per minimal
non-standard monomial: the basis is the reduced one.

The standard monomials form a basis of the functions on the point set, so
their count always equals the number of points, and the set is closed under
division.  Both facts are relied on downstream and checked in the tests.

The scan runs on the int rows of ``linalg``: rational points are scaled
once to integers by their common denominator D, which scales a monomial of
degree d by D^d, and that factor is undone when a basis polynomial or a
normal form is built.  Each standard monomial leaves one echelon row: its
pivot and its values on the points, zero at the pivots of the rows before
it and kept primitive by ``linalg.content`` (reduced mod p over GF(p)).

Every candidate after 1 is a standard monomial sm[k] times one variable, and
it starts from row k times that variable's coordinate.  Those values are
already zero at the pivots of rows 0..k-1, so the candidate is reduced
against rows k onward only.  The dependence test, the pivots and the
separating degrees read these values and nothing else.

The scan keeps no polynomials.  Each candidate leaves a record (mono,
parent, var, g0, steps): g0 is the content taken from the parent's values
times the coordinate, and each step (j, f, g) names the row used, the
candidate's value f at that row's pivot, and the content g taken after
(g = 1 over GF(p)).  On first use of the basis or a normal form, the
records are replayed on tags: one polynomial (a dict from monomial to int)
per candidate, which takes s times the candidate's values and is primitive
together with them (s = 1 over GF(p)).  A tag is led by its candidate and
adds smaller monomials, each a combination of standard monomials found so
far modulo the ideal; it may hold monomials that are not standard, such as
a variable times a leading monomial.

A dependent candidate's tag vanishes on the points.  The reduced basis is
built from these tags, not by the scan: each tail's non-standard
monomials are rewritten modulo the earlier basis elements, largest first,
on the scan's ints.  The normal form is unique, so this is the reduced
basis.  The normal form of a given polynomial goes the same way: its
coefficients are scaled to ints on the scaled points and rewritten by the
same reduction.
"""

from __future__ import annotations

import heapq
from math import gcd

from .errors import InvariantError
from .linalg import PointSet, content, direction, eliminate, int_points, ints, scalars
from .polyring import Polynomial, deglex_key, mono_deg, mono_div, mono_mul, mono_one


def _times(mono, i) -> tuple:
    """mono times the variable x_(i+1)."""
    return mono[:i] + (mono[i] + 1,) + mono[i + 1 :]


def _tag_step(p, tag, a, ptag, b, c):
    """(a * tag - b * ptag, s), divided by their common content over the
    rationals or reduced mod p over GF(p); zero entries are dropped.

    c is the factor that the values taken by the new tag have over the
    candidate's primitive values; s is c after the division (1 over GF(p)).
    """
    out = {m: a * x for m, x in tag.items()}
    for m, x in ptag.items():
        out[m] = out.get(m, 0) - b * x
    if p is not None:
        return {m: x % p for m, x in out.items() if x % p}, 1
    h = gcd(c, *out.values())
    return {m: x // h for m, x in out.items() if x}, c // h


def _divisor(mono, leads, standard):
    """The leading monomial in ``leads`` that divides a non-standard mono,
    or None when none does.

    A non-standard monomial that is not a leading monomial has a
    non-standard divisor one degree lower, so the walk down ends at a
    minimal non-standard monomial.
    """
    while mono not in leads:
        for i, e in enumerate(mono):
            if e:
                low = mono[:i] + (e - 1,) + mono[i + 1 :]
                if low not in standard:
                    mono = low
                    break
        else:
            return None
    return mono


def _largest_first(mono) -> tuple:
    """Heap entry that pops the deglex-largest monomial first."""
    return (-mono_deg(mono), tuple(-e for e in mono)), mono


def _reduce_tag(tag, leads, standard, p):
    """(terms, den): the normal form of tag modulo ``leads`` is terms / den.

    ``leads`` maps each leading monomial to its reduced element, an int
    dict: primitive with a positive leading coefficient over the rationals,
    monic mod p over GF(p).  Every monomial outside ``standard`` that a
    leading monomial divides is rewritten, largest first; a rewrite adds
    only smaller monomials.  Over the rationals the work is scaled by the
    least factor that keeps it integral, and den is the product of those
    factors; over GF(p) den is 1.
    """
    work = dict(tag)
    den = 1
    todo = [_largest_first(m) for m in work if m not in standard]
    heapq.heapify(todo)
    while todo:
        _, u = heapq.heappop(todo)
        c = work.pop(u, 0)
        if p is not None:
            c %= p
        if not c:
            continue
        lm = _divisor(u, leads, standard)
        if lm is None:
            # the tag's own leading monomial
            work[u] = c
            continue
        g = leads[lm]
        common = gcd(g[lm], c)
        k, f = g[lm] // common, c // common
        if k > 1:
            work = {m: x * k for m, x in work.items()}
            den *= k
        q = mono_div(u, lm)
        for v, x in g.items():
            if v != lm:
                w = mono_mul(q, v)
                if w not in work and w not in standard:
                    heapq.heappush(todo, _largest_first(w))
                work[w] = work.get(w, 0) - f * x
    if p is not None:
        work = {m: x % p for m, x in work.items()}
    return {m: x for m, x in work.items() if x}, den


class GroebnerData:
    """Standard monomials and reduced deglex basis of a vanishing ideal.

    Built by ``buchberger_moller``, which hands over its echelon rows
    (pivot, values), one per standard monomial, the record of each
    candidate it tested, and the scale of its integer points.  The
    separating degrees read the rows only; the basis and the normal forms
    replay the tags from the records and keep the reduced elements.
    """

    __slots__ = ("source", "sm", "_rows", "_records", "_scale", "_leads", "_basis")

    def __init__(self, source: PointSet, sm, rows, records, scale):
        self.source = source
        self.sm = tuple(sm)
        self._rows = tuple(rows)
        self._records = tuple(records)
        self._scale = scale
        self._leads = None
        self._basis = None

    def _replay(self) -> tuple:
        """(rows, deps): each echelon row's (tag, s), the tag taking s times
        the row's values, and each dependent candidate's (leading monomial,
        tag), replayed from the scan's records in scan order."""
        p = self.source.field.p
        standard = set(self.sm)
        rows, deps = [], []
        for mono, parent, var, g0, steps in self._records:
            if parent is None:
                tag, s = {mono: 1}, 1
            else:
                # the parent's tag times the variable takes ps * g0 times
                # the candidate's values
                ptag, ps = rows[parent]
                tag = {_times(m, var): x for m, x in ptag.items()}
                tag, s = _tag_step(p, tag, 1, {}, 0, ps * g0)
            for j, f, g in steps:
                (pivot, prow), (jtag, js) = self._rows[j], rows[j]
                tag, s = _tag_step(p, tag, js * prow[pivot], jtag, s * f, js * s * g)
            if mono in standard:
                rows.append((tag, s))
            else:
                deps.append((mono, tag))
        return rows, deps

    def _reduced(self) -> dict:
        """Each leading monomial's reduced element on the scaled points, in
        scan order, as ``_reduce_tag`` takes them."""
        if self._leads is None:
            p = self.source.field.p
            standard = set(self.sm)
            leads = {}
            for lm, tag in self._replay()[1]:
                tail, _ = _reduce_tag(tag, leads, standard, p)
                # leading coefficient first, for its direction
                terms = [lm, *(m for m in tail if m != lm)]
                leads[lm] = dict(zip(terms, direction([tail[m] for m in terms], p)))
            self._leads = leads
        return self._leads

    @property
    def basis(self) -> tuple:
        """The reduced basis in scan order, one monic polynomial per minimal
        non-standard monomial; built on first access."""
        if self._basis is None:
            # monic: divided by the leading coefficient back on V
            self._basis = tuple(
                self._polynomial(g, g[lm] * self._scale ** mono_deg(lm))
                for lm, g in self._reduced().items()
            )
        return self._basis

    def _polynomial(self, terms, den) -> Polynomial:
        """The polynomial on V of the int terms on the scaled points, divided
        by den: back on V a degree-d coefficient takes a factor scale^d."""
        V = self.source
        coeffs = [x * self._scale ** mono_deg(m) for m, x in terms.items()]
        return Polynomial(V.field, V.dim, dict(zip(terms, scalars(coeffs, V.field.p, den))))

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Unique representative of f supported on the standard monomials."""
        V = self.source
        if f.field != V.field:
            raise TypeError(f"field mismatch: {f.field!r} vs {V.field!r}")
        if f.nvars != V.dim:
            raise ValueError("variable count does not match the ambient dimension")
        # on the scaled points f is f(x / scale); times scale^top, a
        # degree-e coefficient takes a factor scale^(top - e), and the
        # int row clears the denominators
        top = max(map(mono_deg, f.terms), default=0)
        row, common = ints(list(f.terms.values()), V.field.p)
        tag = {m: x * self._scale ** (top - mono_deg(m)) for m, x in zip(f.terms, row)}
        terms, den = _reduce_tag(tag, self._reduced(), set(self.sm), V.field.p)
        return self._polynomial(terms, common * den * self._scale**top)

    def separating_degree(self, point) -> int:
        """Degree of the normal form of the point's indicator function.

        This is the least possible degree of a polynomial vanishing on all
        other points of the set but not at this one.

        Reducing the point's unit vector against the echelon rows in scan
        order writes the indicator as a combination of the rows used.  Row k
        takes the values of a polynomial led by sm[k], which its normal form
        keeps, so the indicator's normal form is led by sm[k] for the last
        row k used, and deglex compares degrees first.
        """
        V = self.source
        row = [0] * len(V)
        row[V.index_of(point)] = 1
        last = 0
        for k, (pivot, prow) in enumerate(self._rows):
            if row[pivot]:
                row = eliminate(row, prow, pivot, V.field.p)[0]
                last = k
        return mono_deg(self.sm[last])

    def max_sm_degree(self) -> int:
        return max(mono_deg(m) for m in self.sm)

    def __repr__(self):
        return f"GroebnerData(points={len(self.source)}, basis={len(self._records) - len(self.sm)})"


def buchberger_moller(V: PointSet) -> GroebnerData:
    """Groebner data of the vanishing ideal of a finite point set."""
    p = V.field.p
    points, scale = int_points(V.points, p)
    npts = len(points)
    nvars = V.dim
    sm = []
    standard = set()
    # echelon rows (pivot, values), one per standard monomial
    rows = []
    # (monomial, parent, var, g0, steps) of each candidate tested
    records = []
    start = mono_one(nvars)
    # (key, monomial, index of its parent in sm, the variable it adds)
    heap = [(deglex_key(start), start, None, None)]
    seen = {start}
    while heap:
        _, mono, parent, var = heapq.heappop(heap)
        # a divisor one degree lower came earlier in deglex order, so it
        # has been decided; one outside sm makes the candidate non-standard
        if any(mono[:i] + (e - 1,) + mono[i + 1 :] not in standard for i, e in enumerate(mono) if e):
            continue
        if parent is None:
            row, g0, first = [1] * npts, 1, 0
        else:
            # the parent's echelon row times the coordinate is zero at the
            # pivots of the rows before the parent
            row, g0 = content([a * q[var] for a, q in zip(rows[parent][1], points)], p)
            first = parent
        steps = []
        for j, (pivot, prow) in enumerate(rows[first:], first):
            f = row[pivot]
            if f:
                row, g = eliminate(row, prow, pivot, p)
                steps.append((j, f, g))
        records.append((mono, parent, var, g0, steps))
        pivot = next((i for i in range(npts) if row[i]), None)
        if pivot is None:
            continue
        if len(sm) == npts:
            # once |sm| = |V| the standard monomials span all functions on
            # the set, so every remaining border candidate must be dependent
            raise InvariantError("independent monomial found beyond a spanning set")
        rows.append((pivot, row))
        sm.append(mono)
        standard.add(mono)
        for i in range(nvars):
            child = _times(mono, i)
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (deglex_key(child), child, len(sm) - 1, i))
    if len(sm) != npts:
        raise InvariantError("monomial scan terminated before spanning the point set")
    return GroebnerData(V, sm, rows, records, scale)
