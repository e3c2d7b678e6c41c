"""Answer checks for the benchmark, independent of the package under test.

Every operation's JSON report is checked three ways:

* named fields against golden values recorded at the baseline commit
  (``golden.json``); fields the checks do not name are ignored, so an added
  report field fails nothing;
* against theory where the value is known (cube:n -> n, ag:n:q -> n(q-1),
  perm:4 -> 6);
* for every solve, on any seed: ``optimal`` is true, ``size`` is at least
  ``lower_bound_used``, and each witness cover passes a re-check that parses
  the hyperplane text and evaluates it with plain ``Fraction`` or
  ``int mod p`` arithmetic.  Nothing here imports ``almostcover``.

``crosscheck`` adds the oracle between the closed and hyperplanes modes.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_TERM_RE = re.compile(r"^(-?)(?:([0-9/]+)\*)?x([1-9][0-9]*)$")


class Field:
    """Plain scalars: Fraction over the rationals, int in [0, p) over GF(p)."""

    def __init__(self, name: str):
        self.p = None if name == "rational" else int(name.split(":")[1])

    def parse(self, text: str):
        if self.p is None:
            return Fraction(text)
        if "/" in text:
            num, den = text.split("/")
            return int(num) * pow(int(den), -1, self.p) % self.p
        return int(text) % self.p

    def reduce(self, x):
        return x if self.p is None else x % self.p


@functools.cache
def family_points(spec: str, field_name: str | None = None):
    """The points of a family spec, generated independently of the package."""
    kind, *args = spec.split(":")
    n = int(args[0])
    if kind == "cube":
        rows = itertools.product((0, 1), repeat=n)
    elif kind == "vnk":
        k = int(args[1])
        rows = (r for r in itertools.product((0, 1), repeat=n) if sum(r) <= k)
    elif kind in ("jnq", "inq"):
        rows = itertools.combinations_with_replacement(range(1, int(args[1]) + 1), n)
    elif kind == "perm":
        rows = itertools.permutations(range(1, n + 1))
    elif kind == "ag":
        q = int(args[1])
        field_name = f"gf:{q}"
        rows = itertools.product(range(q), repeat=n)
    else:
        raise ValueError(f"no independent generator for family {spec!r}")
    field = Field(field_name or "rational")
    return frozenset(tuple(field.reduce(field.parse(str(x))) for x in r) for r in rows)


def parse_hyperplane(text: str, field: Field, dim: int):
    """(normal, offset) of a witness written as 'x1 - 2/3*x2 = 5'."""
    lhs, rhs = text.split(" = ")
    normal = [field.parse("0")] * dim
    for term in lhs.replace(" - ", " + -").split(" + "):
        match = _TERM_RE.match(term.strip())
        if not match:
            raise ValueError(f"unparsable hyperplane term {term!r} in {text!r}")
        sign, coef, var = match.groups()
        index = int(var) - 1
        if index >= dim:
            raise ValueError(f"variable x{var} beyond dimension {dim} in {text!r}")
        value = field.parse(coef or "1")
        normal[index] = field.reduce(-value if sign else value)
    return normal, field.parse(rhs.strip())


def witness_errors(cover: dict, field: Field, points: set) -> list:
    """Problems with one reported cover: count, missed point, uncovered points."""
    excluded = tuple(field.parse(x) for x in cover["excluded"])
    if excluded not in points:
        return [f"excluded point {cover['excluded']} is not in the set"]
    dim = len(excluded)
    planes = [parse_hyperplane(t, field, dim) for t in cover["hyperplanes"]]
    errors = []
    if len(planes) != int(cover["size"]):
        errors.append(f"{len(planes)} witness hyperplanes for size {cover['size']}")

    def on(plane, point):
        normal, offset = plane
        return field.reduce(sum(a * x for a, x in zip(normal, point)) - offset) == 0

    for text, plane in zip(cover["hyperplanes"], planes):
        if on(plane, excluded):
            errors.append(f"witness {text!r} passes through the excluded point")
    uncovered = [p for p in points if p != excluded and not any(on(h, p) for h in planes)]
    if uncovered:
        errors.append(f"witness misses {len(uncovered)} points")
    return errors


def _solutions(doc: dict) -> list:
    results = doc["results"]
    return list(results["covers"].values()) if "per_point" in results else [results]


def golden_fields(doc: dict) -> dict:
    """The named fields compared against golden values."""
    results = doc["results"]
    if doc["command"] == "gb":
        return {k: results[k] for k in ("basis", "standard_monomials")}
    if doc["command"] == "bound":
        values = {k: v["value"] for k, v in results.items() if "value" in v}
        if "ordering_chain" in results:
            values["ordering_chain"] = results["ordering_chain"]["values"]
        return values
    named = ("size", "lower_bound_used", "optimal")
    if "per_point" not in results:
        return {k: results[k] for k in named}
    fields = {k: results[k] for k in ("per_point", "ac_max", "ac_min", "optimal")}
    fields["covers"] = {i: {k: c[k] for k in named} for i, c in results["covers"].items()}
    return fields


def theory_errors(doc: dict, theory: int) -> list:
    results = doc["results"]
    if doc["command"] == "bound":
        got = [results["certificate"]["value"]]
    else:
        got = results["per_point"]
    wrong = sorted({v for v in got if int(v) != theory})
    return [f"value {v} differs from the theory value {theory}" for v in wrong]


def invariant_errors(doc: dict, field: Field, points: set | None) -> list:
    """Seed-independent checks of a solve report."""
    errors = []
    for sol in _solutions(doc):
        if sol["optimal"] is not True:
            errors.append(f"solve at {sol['excluded']} is not optimal")
        if int(sol["size"]) < int(sol["lower_bound_used"]):
            errors.append(f"size {sol['size']} below its floor {sol['lower_bound_used']}")
        if points is not None:
            errors.extend(witness_errors(sol, field, points))
    results = doc["results"]
    if "per_point" in results:
        values = [int(v) for v in results["per_point"]]
        if int(results["ac_max"]) != max(values) or int(results["ac_min"]) != min(values):
            errors.append("ac_max/ac_min disagree with per_point")
        for index, cover in results["covers"].items():
            if int(cover["size"]) != values[int(index)]:
                errors.append(f"cover {index} size differs from per_point")
    return errors


def check_op(op, returncode, stdout: str, golden: dict) -> list:
    """All problems with one operation's outcome; empty when it is right."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        errors = []
        if doc["command"] == "solve":
            points = op.points
            if op.family is not None:
                points = family_points(*op.family)
            errors.extend(invariant_errors(doc, Field(doc["field"]), points))
        if op.theory is not None:
            errors.extend(theory_errors(doc, op.theory))
        expected = golden.get(op.golden_key) if op.golden_key else None
        if expected is not None and golden_fields(doc) != expected:
            errors.append("named fields differ from the golden values")
        return errors
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def crosscheck(runs) -> dict:
    """Oracle between modes: {run index: error} where per-point values disagree.

    Runs sharing a ``pair`` key solve the same set in different modes; the
    later run of a disagreeing pair is the one marked failed.
    """
    first = {}
    failures = {}
    for i, run in enumerate(runs):
        pair = run.op.pair
        if pair is None or run.returncode != 0:
            continue
        try:
            values = json.loads(run.stdout)["results"]["per_point"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
        if pair not in first:
            first[pair] = values
        elif first[pair] != values:
            failures[i] = f"per-point values differ between modes on {pair}"
    return failures


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
