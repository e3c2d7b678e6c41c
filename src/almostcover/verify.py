"""Verification suites tying the solvers to the known exact values.

Each check function returns a list of CheckResult records; ``SUITES``
groups them into the named suites of the CLI's ``verify`` command, and the
acceptance tests run them all.  Every check takes one cap, ``max_n``: it
keeps only its families of dimension at most ``max_n`` (for the binomial
grid, the n of the grid), so ``verify --max-n N`` caps every suite.  Exact
cover computations are memoized per family so that overlapping suites do
not redo the expensive searches.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .bounds import (
    ball_size,
    check_binomial_inequalities,
    counting_lower_bound,
    cube_counting_lower_bound,
    lower_bounds,
)
from .cover import ac_numbers, orbit_reduce, verify_cover
from .families import FamilySpec, generate, sharp_cover_vnk, symmetry_generators, szw_sharp_polynomial
from .fields import QQ
from .linalg import PointSet
from .polyring import deglex_key, mono_deg
from .vanishing import buchberger_moller


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


@lru_cache(maxsize=None)
def _family_points(desc: str) -> PointSet:
    return generate(FamilySpec.parse(desc))


@lru_cache(maxsize=None)
def _family_groebner(desc: str):
    return buchberger_moller(_family_points(desc))


@lru_cache(maxsize=None)
def _family_ac(desc: str):
    """Exact cover numbers of a family at every point, solved once."""
    return ac_numbers(_family_points(desc))


def check_vnk_standard_monomials(max_n: float = math.inf):
    """Standard monomials of vnk:n:k are exactly the square-free ones of
    degree at most k, in increasing deglex order."""
    results = []
    for n in range(1, min(6, max_n) + 1):
        for k in range(n):
            data = _family_groebner(f"vnk:{n}:{k}")
            expected = []
            for size in range(k + 1):
                for combo in itertools.combinations(range(n), size):
                    expected.append(tuple(1 if i in combo else 0 for i in range(n)))
            expected.sort(key=deglex_key)
            ok = list(data.sm) == expected
            results.append(
                _result(
                    f"standard-monomials vnk:{n}:{k}",
                    ok,
                    f"|sm| = {len(data.sm)}",
                )
            )
    return results


def check_separating_degrees(max_n: float = math.inf):
    """Adding one outside cube vertex to vnk:n:k makes its separating degree
    exactly k+1, via one extra standard monomial supported inside the vertex."""
    results = []
    for n in range(1, min(5, max_n) + 1):
        for k in range(n):
            base = _family_points(f"vnk:{n}:{k}")
            base_sm = set(_family_groebner(f"vnk:{n}:{k}").sm)
            failures = []
            cases = 0
            for vertex in itertools.product((0, 1), repeat=n):
                if sum(vertex) <= k:
                    continue
                cases += 1
                point = tuple(QQ.scalar(x) for x in vertex)
                W = PointSet(QQ, n, list(base.points) + [point])
                data = buchberger_moller(W)
                extra = set(data.sm) - base_sm
                reasons = []
                if data.separating_degree(point) != k + 1:
                    reasons.append(f"degree {data.separating_degree(point)}")
                if len(extra) != 1:
                    reasons.append(f"{len(extra)} extra monomials")
                else:
                    mono = next(iter(extra))
                    if mono_deg(mono) != k + 1 or any(e > 1 for e in mono):
                        reasons.append(f"extra monomial {mono}")
                    elif any(e and not v for e, v in zip(mono, vertex)):
                        reasons.append(f"support of {mono} leaves the vertex")
                if reasons:
                    failures.append(f"{vertex}: {', '.join(reasons)}")
            results.append(
                _result(
                    f"separating-degree vnk:{n}:{k}",
                    not failures,
                    f"{cases} vertices" if not failures else "; ".join(failures[:3]),
                )
            )
    return results


def check_vnk_cover_sharpness(max_n: float = math.inf):
    """The level hyperplanes are an optimal almost cover of vnk at the origin
    and the exact maximum cover number is k; the 0-1 counting bound jumps to
    k+1 one point past the family size."""
    results = []
    for n in range(1, min(4, max_n) + 1):
        for k in range(n):
            desc = f"vnk:{n}:{k}"
            V = _family_points(desc)
            origin = V.points[0]
            witness = sharp_cover_vnk(n, k)
            ok_witness = len(witness) == k and verify_cover(V, origin, witness)
            acn = _family_ac(desc)
            ok_exact = acn.optimal and acn.ac_max == k
            ok_bound = cube_counting_lower_bound(n, len(V) + 1).value == k + 1
            results.append(
                _result(
                    f"cover-sharpness {desc}",
                    ok_witness and ok_exact and ok_bound,
                    f"AC = {acn.ac_max}, witness size {len(witness)}",
                )
            )
    return results


def check_cube_alon_furedi(max_n: float = math.inf):
    """Every cube vertex needs exactly n hyperplanes, matching the counting
    bound at full size."""
    results = []
    for n in range(1, min(4, max_n) + 1):
        desc = f"cube:{n}"
        acn = _family_ac(desc)
        ok = acn.optimal and all(v == n for v in acn.per_point)
        ok_bound = cube_counting_lower_bound(n, 2**n).value == n
        results.append(
            _result(
                f"alon-furedi {desc}",
                ok and ok_bound,
                f"per-point values {sorted(set(acn.per_point))}",
            )
        )
    return results


JNQ_GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))


def check_jnq_sharpness(max_n: float = math.inf):
    """The non-decreasing-sequence families have exact cover number q-1 and
    sit exactly on the counting bound's boundary."""
    results = []
    for n, q in JNQ_GRID:
        if n > max_n:
            continue
        desc = f"jnq:{n}:{q}"
        acn = _family_ac(desc)
        ok_exact = acn.optimal and acn.ac_max == q - 1 and acn.ac_min == q - 1
        ok_bound = counting_lower_bound(n, ball_size(n, q - 1)).value == q - 1
        results.append(
            _result(
                f"jnq-sharpness {desc}",
                ok_exact and ok_bound,
                f"AC = {acn.ac_max}, counting bound {counting_lower_bound(n, len(_family_points(desc))).value}",
            )
        )
    return results


AG_GRID = ((2, 2), (2, 3), (3, 2))


def check_ag_jamison(max_n: float = math.inf):
    """Full affine spaces need (q-1)n hyperplanes at every point, and the
    closed-set search agrees with exhaustive hyperplane enumeration."""
    results = []
    for n, q in AG_GRID:
        if n > max_n:
            continue
        desc = f"ag:{n}:{q}"
        V = _family_points(desc)
        expected = (q - 1) * n
        closed = _family_ac(desc).solutions
        exhaustive = ac_numbers(V, mode="hyperplanes").solutions
        details = [
            f"{V.format_point(V.points[j])}: closed {closed[j].size}, "
            f"exhaustive {exhaustive[j].size}"
            for j in range(len(V))
            if not (
                closed[j].optimal
                and exhaustive[j].optimal
                and closed[j].size == exhaustive[j].size == expected
            )
        ]
        ok = not details
        results.append(
            _result(
                f"jamison {desc}",
                ok,
                f"all {len(V)} points at {expected}" if ok else "; ".join(details[:3]),
            )
        )
    return results


def check_permutohedron(max_n: float = math.inf):
    """Permutation-vertex families have the expected constant cover number:
    3 for three coordinates, 6 for four."""
    results = []
    if max_n >= 3:
        acn = _family_ac("perm:3")
        ok = acn.optimal and set(acn.per_point) == {3}
        results.append(
            _result("permutohedron perm:3", ok, f"per-point values {sorted(set(acn.per_point))}")
        )
    if max_n >= 4:
        V = _family_points("perm:4")
        partition = orbit_reduce(V, symmetry_generators(FamilySpec.parse("perm:4")))
        solutions = _family_ac("perm:4").solutions
        first, second = solutions[0], solutions[1]
        ok = (
            partition.is_transitive
            and first.optimal
            and second.optimal
            and first.size == second.size == 6
        )
        results.append(
            _result(
                "permutohedron perm:4",
                ok,
                f"transitive = {partition.is_transitive}, sizes {first.size}, {second.size}",
            )
        )
    return results


def check_orbit_constancy(max_n: float = math.inf):
    """Transitive symmetry makes per-point cover numbers constant; checked by
    solving every point, without the symmetry, on families with a declared
    symmetry group."""
    results = []
    for desc in ("cube:2", "cube:3", "ag:2:3", "perm:3"):
        spec = FamilySpec.parse(desc)
        if spec.n > max_n:
            continue
        partition = orbit_reduce(_family_points(desc), symmetry_generators(spec))
        acn = _family_ac(desc)
        values = set(acn.per_point)
        ok = acn.optimal and partition.is_transitive and len(values) == 1
        results.append(
            _result(
                f"orbit-constancy {desc}",
                ok,
                f"transitive = {partition.is_transitive}, values {sorted(values)}",
            )
        )
    return results


def _chain_instances(max_n):
    specs = []
    for n in range(1, min(4, max_n) + 1):
        specs.extend(f"vnk:{n}:{k}" for k in range(n))
        specs.append(f"cube:{n}")
    specs.extend(f"jnq:{n}:{q}" for n, q in JNQ_GRID if n <= max_n)
    specs.extend(f"ag:{n}:{q}" for n, q in AG_GRID if n <= max_n)
    specs.extend(f"perm:{n}" for n in (3, 4) if n <= max_n)
    return specs


def check_bound_ordering(max_n: float = math.inf):
    """On every verified family the bounds form the expected chain:
    e-based <= counting <= 0-1 counting <= certificate <= exact, with
    certificate equality on the sharp families."""
    results = []
    tight = {"vnk", "cube", "jnq"}
    for desc in _chain_instances(max_n):
        acn = _family_ac(desc)
        exact = acn.ac_max
        chain = lower_bounds(_family_points(desc), groebner=_family_groebner(desc))[1] + [exact]
        ok = all(a <= b for a, b in zip(chain, chain[1:])) and acn.optimal
        kind = desc.split(":")[0]
        if kind in tight and chain[-2] != exact:
            ok = False
        results.append(
            _result(
                f"bound-chain {desc}",
                ok,
                " <= ".join(str(x) for x in chain),
            )
        )
    return results


def check_binomial_grid(max_n: float = math.inf):
    """Both strict binomial inequalities certify for every 1 <= k <= n."""
    max_n = min(30, max_n)
    results = []
    bad = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            verdicts = check_binomial_inequalities(n, k)
            if not all(verdicts.values()):
                bad.append((n, k, verdicts))
    results.append(
        _result(
            f"binomial-inequalities n<={max_n}",
            not bad,
            f"{max_n * (max_n + 1) // 2} pairs" if not bad else f"failures {bad[:3]}",
        )
    )
    degenerate = check_binomial_inequalities(4, -1)
    results.append(
        _result(
            "binomial-inequalities degenerate k=-1",
            degenerate.get("bin_upper2", False),
            "C(3,4) = 0 case",
        )
    )
    return results


def check_szw_polynomials(max_n: float = math.inf):
    """The product of level forms reduces to zero over vnk and is nonzero at
    every other cube vertex."""
    results = []
    for n in range(1, min(5, max_n) + 1):
        for k in range(n):
            f = szw_sharp_polynomial(n, k)
            data = _family_groebner(f"vnk:{n}:{k}")
            nf = data.normal_form(f)
            ok = nf.is_zero()
            nonzero_outside = all(
                f.evaluate(tuple(QQ.scalar(x) for x in vertex))
                for vertex in itertools.product((0, 1), repeat=n)
                if sum(vertex) > k
            )
            results.append(
                _result(
                    f"szw-sharp vnk:{n}:{k}",
                    ok and nonzero_outside,
                    f"degree {f.degree()}",
                )
            )
    return results


# suite -> (description, checks run in order)
SUITES = {
    "main": ("Separating degrees and standard monomial structure of the 0-1 families",
             (check_vnk_standard_monomials, check_separating_degrees)),
    "main2": ("Counting bound sharpness on the non-decreasing-sequence families", (check_jnq_sharpness,)),
    "main3": ("0-1 counting bound sharpness: level covers and the cube",
              (check_vnk_cover_sharpness, check_cube_alon_furedi)),
    "main4": ("Constancy of per-point cover numbers under transitive symmetry",
              (check_orbit_constancy, check_permutohedron)),
    "sharpness": ("Explicit sharp covers match the exact optima",
                  (check_vnk_cover_sharpness, check_jnq_sharpness)),
    "binomial": ("Certified strict binomial upper bounds", (check_binomial_grid,)),
    "szw": ("The sharp vanishing polynomial of the level families", (check_szw_polynomials,)),
    "jamison": ("Full affine spaces: closed-set search against exhaustive hyperplanes", (check_ag_jamison,)),
    "chain": ("The chain of lower bounds up to the exact cover numbers", (check_bound_ordering,)),
}


def run_suite(name: str, max_n: int | None = None):
    """All checks of one suite, each capped at dimension ``max_n`` if given."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    cap = math.inf if max_n is None else max_n
    return [result for check in SUITES[name][1] for result in check(cap)]
