"""Multivariate polynomials with exact coefficients under the deglex order.

Monomials are dense exponent tuples of length n.  The deglex order compares
total degree first and breaks ties lexicographically with x1 most
significant; polynomials render as ``x1^2*x2 - 3/2*x2 + 1``, terms in
descending deglex order.
"""

from __future__ import annotations

from .fields import Field


def mono_one(nvars: int) -> tuple:
    return (0,) * nvars


def mono_deg(mono) -> int:
    return sum(mono)


def mono_mul(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(b, a) -> tuple:
    """b / a, assuming divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_text(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def terms_text(terms) -> str:
    """A sum of (coefficient text, monomial text) pairs, in the given order.

    A coefficient 1 is dropped, -1 becomes a bare minus, the monomial "1"
    shows its coefficient alone, and signs join the terms as " + " and
    " - ".  The empty sum is "0".
    """
    parts = []
    for coeff, body in terms:
        negative = coeff.startswith("-")
        mag = coeff[1:] if negative else coeff
        if body == "1":
            piece = mag
        elif mag == "1":
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{piece}" if negative else piece)
        else:
            parts.append(f" - {piece}" if negative else f" + {piece}")
    return "".join(parts) or "0"


def deglex_key(mono) -> tuple:
    """Sort key of the deglex order: total degree, then lex with x1 first."""
    return sum(mono), mono


class Polynomial:
    """Exact-coefficient polynomial; zero coefficients are never stored.

    ``terms`` maps monomials, tuples of nvars non-negative ints, to
    coefficients coerced into the field; anything else raises.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                ok = isinstance(mono, tuple) and len(mono) == nvars
                if not (ok and all(isinstance(e, int) and e >= 0 for e in mono)):
                    raise ValueError(f"monomial {mono!r} is not {nvars} non-negative ints")
                if coeff := field.scalar(coeff):
                    self.terms[mono] = coeff

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars, value):
        return cls(field, nvars, {mono_one(nvars): value})

    @classmethod
    def variable(cls, field, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {mono: field.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        """False exactly for the zero polynomial: value semantics, as for scalars."""
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(mono_deg, self.terms)) if self.terms else -1

    def _check_compatible(self, other: "Polynomial"):
        if self.field != other.field:
            raise TypeError(f"field mismatch: {self.field!r} vs {other.field!r}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = acc.get(mono)
            c = coeff if c is None else c + coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return Polynomial(self.field, self.nvars, acc)

    def __neg__(self):
        return Polynomial(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = acc.get(m)
                prod = c1 * c2
                c = prod if c is None else c + prod
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return Polynomial(self.field, self.nvars, acc)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        point = [self.field.scalar(x) for x in point]
        total = self.field.zero()
        for mono, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, mono):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def __eq__(self, other):
        """Same field, variable count and terms: value semantics, as for scalars."""
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def text(self) -> str:
        """Canonical rendering, terms in descending deglex order."""
        return terms_text(
            (self.field.format(self.terms[mono]), mono_text(mono))
            for mono in sorted(self.terms, key=deglex_key, reverse=True)
        )

    def __repr__(self):
        return f"Polynomial({self.text()!r})"

