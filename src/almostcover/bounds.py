"""Lower bounds on almost-cover numbers.

Two counting bounds (monomial-ball counting for arbitrary point sets and
binomial-sum counting for 0-1 sets), a per-point certificate bound read off
the vanishing ideal's standard monomials, and two informational derived
bounds involving the constant e; ``lower_bounds`` is the one place that
picks which of them hold for a set and the chain they must form.
Everything actionable is an exact integer scan; e only ever enters through
the fixed rational bracket 2.718281828 < e < 2.718281829 with rounding
directions chosen so that every reported verdict and value is conservative.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import PointSet
from .vanishing import GroebnerData, buchberger_moller

E_LOW = Fraction(2_718_281_828, 10**9)
E_HIGH = Fraction(2_718_281_829, 10**9)
# decimal places of the lower root approximation in the e-based bound
ROOT_DIGITS = 12


def ball_size(n: int, k: int) -> int:
    """Number of monomials in n variables of total degree at most k."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got ({n}, {k})")
    return math.comb(n + k, n)


class BoundReport:
    """One lower bound on an almost-cover number, with its provenance."""

    __slots__ = ("method", "value", "certificate_point", "details")

    def __init__(
        self,
        method: str,
        value: int,
        certificate_point: tuple | None = None,
        details: dict | None = None,
    ):
        self.method = method
        self.value = value
        self.certificate_point = certificate_point
        self.details = {} if details is None else details


def counting_lower_bound(n: int, npoints: int) -> BoundReport:
    """Smallest k with C(n+k, n) >= the point count.

    Any point set of that size in dimension n needs at least this many
    hyperplanes in some almost cover.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if npoints < 1:
        raise ValueError(f"point count must be >= 1, got {npoints}")
    k = 0
    while ball_size(n, k) < npoints:
        k += 1
    return BoundReport(
        method="count",
        value=k,
        details={"ball_size": ball_size(n, k), "npoints": npoints},
    )


def cube_counting_lower_bound(n: int, npoints: int) -> BoundReport:
    """Smallest k with sum_{i<=k} C(n, i) >= the point count (0-1 sets only)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 1 <= npoints <= 2**n:
        raise ValueError(f"no 0-1 point set of size {npoints} in dimension {n}")
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k)
        if total >= npoints:
            return BoundReport(
                method="cube_count",
                value=k,
                details={"partial_sum": total, "npoints": npoints},
            )
    raise AssertionError("unreachable: partial sums reach 2**n")


def certificate_lower_bound(
    V: PointSet, point=None, groebner: GroebnerData | None = None
) -> BoundReport:
    """Separating-degree certificate.

    With a point: no almost cover at that point can be smaller than the
    degree of its indicator's normal form.  Without one: the maximum over
    the set, attained at the reported certificate point; this equals the
    largest standard-monomial degree.
    """
    data = groebner if groebner is not None else buchberger_moller(V)
    if point is not None:
        deg = data.separating_degree(point)
        idx = V.index_of(point)
        return BoundReport(
            method="certificate",
            value=deg,
            certificate_point=V.points[idx],
            details={"max_sm_degree": data.max_sm_degree()},
        )
    target = data.max_sm_degree()
    for p in V.points:
        if data.separating_degree(p) == target:
            return BoundReport(
                method="certificate",
                value=target,
                certificate_point=p,
                details={"max_sm_degree": target},
            )
    raise AssertionError("unreachable: some expansion uses a top-degree monomial")


def _iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0 by Newton iteration on integers."""
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0 and n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    guess = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        better = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if better >= guess:
            break
        guess = better
    while guess**n > x:
        guess -= 1
    return guess


def rational_root_lower(x: int, n: int) -> Fraction:
    """A rational lower approximation of x ** (1/n), exact when x is an nth power."""
    scale = 10**ROOT_DIGITS
    return Fraction(_iroot(x * scale**n, n), scale)


def cor_bounds(n: int, npoints: int):
    """The two derived bounds: the 4^n threshold and the e-based formula.

    Returns (threshold_report_or_None, e_report).  The threshold report is
    present exactly when the point count reaches 4^n, asserting more than n
    hyperplanes are needed.  The e-based report carries a certified rational
    lower bound for n * npoints^(1/n) / e - n (outward rounding throughout,
    so the reported value never exceeds the true expression).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if npoints < 1:
        raise ValueError(f"point count must be >= 1, got {npoints}")
    threshold = None
    if npoints >= 4**n:
        threshold = BoundReport(
            method="cor_4n",
            value=n + 1,
            details={"threshold": 4**n, "npoints": npoints},
        )
    root = rational_root_lower(npoints, n)
    rational = n * root / E_HIGH - n
    # an integer exceeding any r' >= rational is at least floor(rational) + 1
    value = max(0, math.floor(rational) + 1)
    e_report = BoundReport(
        method="cor_e",
        value=value,
        details={"rational": rational, "root_lower": root},
    )
    return threshold, e_report


def lower_bounds(V: PointSet, point=None, groebner: GroebnerData | None = None):
    """Every lower bound that holds for V, and the chain they must form.

    Returns (reports, chain).  The reports, in print order: the counting
    bound, the 0-1 counting bound (0-1 sets only), the certificate (at
    ``point`` if one is given), the e-based bound and, once |V| >= 4^n, the
    4^n threshold.  The chain e-based <= counting <= 0-1 counting <=
    certificate must rise.  It bounds AC(V), so it ends at the set's largest
    standard-monomial degree: a given point's degree can sit below the
    counting bounds.
    """
    reports = [counting_lower_bound(V.dim, len(V))]
    if V.is_zero_one():
        reports.append(cube_counting_lower_bound(V.dim, len(V)))
    certificate = certificate_lower_bound(V, point, groebner)
    threshold, e_report = cor_bounds(V.dim, len(V))
    chain = [e_report.value, *(r.value for r in reports), certificate.details["max_sm_degree"]]
    reports += [certificate, e_report]
    if threshold is not None:
        reports.append(threshold)
    return reports, chain


def check_binomial_inequalities(n: int, k: int) -> dict:
    """Certify the two strict binomial upper bounds with conservative rounding.

    Uses the rational lower bracket of e, so a True verdict means the real
    inequality certainly holds.  The (ne/k)^k bound applies for 1 <= k <= n
    and is reported only there; the e^n (1 + k/n)^n bound needs k > -n.
    """
    if n < 1 or k <= -n:
        raise ValueError(f"need n >= 1 and k > -n, got ({n}, {k})")
    verdicts = {}
    num, den = E_LOW.numerator, E_LOW.denominator
    if 1 <= k <= n:
        lhs = math.comb(n, k) * k**k * den**k
        rhs = n**k * num**k
        verdicts["bin_upper"] = lhs < rhs
    lhs = math.comb(n + k, n) * n**n * den**n
    rhs = (n + k) ** n * num**n
    verdicts["bin_upper2"] = lhs < rhs
    return verdicts
