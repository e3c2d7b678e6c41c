"""Exact ground fields: arbitrary-precision rationals and prime fields GF(p).

Rational scalars are plain ``fractions.Fraction`` values, hence always in
lowest terms with positive denominator.  GF(p) scalars are ``GFElement``
residues, always reduced into [0, p).  No floating point appears anywhere;
mixing scalars from different fields raises ``TypeError``.

These are the scalars of the public API and of hyperplane and polynomial
evaluation.  The hot loops, witness realization among them, convert them to
plain ints once and back at the end (the int rows of ``linalg``); the
exhaustive hyperplane table and the cover re-check read them as ints on
their own.
"""

from __future__ import annotations

import re
from fractions import Fraction

MAX_PRIME_BITS = 64

# Witness set sufficient for deterministic Miller-Rabin below 3.3e24,
# comfortably covering 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFElement:
    """Residue modulo a prime p.  Arithmetic wraps; division by zero raises.

    The operators mirror ``Fraction``'s, an int read as its residue: ``-a``,
    ``1 - a``, ``1 / a`` and ``a ** k`` for any int k, which ``Polynomial.evaluate`` takes.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise TypeError(f"field mismatch: GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return GFElement(pow(self.value, exponent, self.p), self.p)

    def inverse(self) -> "GFElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return GFElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        # hash(value) keeps GFElement(v, p) hash-consistent with the int v,
        # which equality treats as the same residue
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"GFElement({self.value}, {self.p})"

    def __str__(self):
        return str(self.value)


class Field:
    """The rational field, or GF(p) for a prime p < 2**64.

    Instances compare equal by kind (and modulus); use the module-level
    ``QQ`` singleton and ``GF(p)`` factory rather than the constructor.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"field modulus must be an integer >= 2, got {p!r}")
            if p.bit_length() > MAX_PRIME_BITS:
                raise ValueError(f"field modulus exceeds {MAX_PRIME_BITS} bits: {p}")
            if not is_prime(p):
                raise ValueError(f"field modulus must be prime, got {p}")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def name(self) -> str:
        return "rational" if self.p is None else f"gf:{self.p}"

    def zero(self):
        return Fraction(0) if self.p is None else GFElement(0, self.p)

    def one(self):
        return Fraction(1) if self.p is None else GFElement(1, self.p)

    def scalar(self, x):
        """Coerce an int, Fraction, or GFElement into this field, or raise."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise TypeError(f"not a rational scalar: {x!r}")
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise TypeError(f"field mismatch: GF({self.p}) vs GF({x.p})")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        raise TypeError(f"not a GF({self.p}) scalar: {x!r}")

    def parse(self, text: str):
        """Parse 'a' or 'a/b' over the rationals; a plain integer over GF(p)."""
        text = text.strip()
        if self.p is None:
            if not _RATIONAL_RE.match(text):
                raise ValueError(f"not a rational literal: {text!r}")
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {text!r}") from None
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer literal: {text!r}")
        return GFElement(int(text), self.p)

    def format(self, x) -> str:
        return str(self.scalar(x))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        """Equal fields hash alike; without it ``__eq__`` leaves them unhashable."""
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()

_GF_CACHE: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field with p elements."""
    field = _GF_CACHE.get(p)
    if field is None:
        field = Field(p)
        _GF_CACHE[p] = field
    return field


def scalar_field(x) -> Field:
    """The field a scalar belongs to; rejects anything else."""
    if isinstance(x, Fraction):
        return QQ
    if isinstance(x, GFElement):
        return GF(x.p)
    raise TypeError(f"not an exact field scalar: {x!r}")


def parse_field_name(name: str) -> Field:
    """Inverse of ``Field.name``: 'rational' or 'gf:<p>'."""
    name = name.strip().lower()
    if name == "rational":
        return QQ
    if name.startswith("gf:"):
        spec = name[3:]
        if not _INT_RE.match(spec):
            raise ValueError(f"bad field modulus: {spec!r}")
        return GF(int(spec))
    raise ValueError(f"unknown field {name!r} (expected 'rational' or 'gf:<p>')")
