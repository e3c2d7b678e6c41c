"""The benchmark's workloads: what each pass runs, built from the seed.

Every operation is one ``almostcover.cli.main(argv)`` call.  The named
families are fixed, so for them the seed only fixes the order of the
operations in a pass.  ``random_bnb`` draws its point sets from the seed
and writes them as point files; each pass solves sets no earlier pass saw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# (points per set, grid side, sets per pass) of the random point-set workloads.
# 24 points, not 25: on 25-point sets 6 of 200 needed 0.6M to 3.1M
# branch-and-bound nodes (8 s to 43 s), which no run length or bound absorbs;
# on 24-point sets the largest of 224 needed 183k.
RANDOM = {"random_bnb": (24, 9, 11), "smoke": (7, 4, 2)}
GOLDEN_SEED = 0


@dataclass(frozen=True)
class Op:
    """One operation and what its answer is checked against."""

    argv: tuple
    golden_key: str | None = None
    theory: int | None = None
    points: frozenset | None = None  # the point set, for the witness re-check
    family: tuple | None = None  # (spec, field) whose points the re-check generates
    pair: str | None = None  # ops sharing it must agree on every per-point value


# Pass length in seconds: a run makes seconds // pass_s passes, so every
# commit does the same work.  The fixed workloads use about one pass at the
# baseline commit; random_bnb makes more, because its runs differ by their
# sets as well as by the machine's speed.  Each fixed workload has an odd
# number of operations, so the median latency falls inside one operation's
# repeats and not in the gap between two, and every run makes either fewer
# than 20 operations or 40 and more, so the tail is a true tail.  Why each
# workload is there is in BENCHMARK.json.
WORKLOADS = {
    "families_all": 10,
    "random_bnb": 5,
    "groebner_bound": 10,
    "gf_crosscheck": 15,
}

_FAMILY_OPS = {
    "families_all": (
        ("solve", "cube:4", ("--all",), 4),
        ("solve", "vnk:4:2", ("--all",), None),
        ("solve", "jnq:3:3", ("--all",), None),
        ("solve", "jnq:2:5", ("--all",), None),
        ("solve", "perm:4", ("--all", "--symmetry"), 6),
    ),
    # `bound --method all` exits 2 on every set that is not 0-1, so jnq:4:5
    # uses `--method cert`
    "groebner_bound": (
        ("bound", "cube:7", ("--method", "all"), 7),
        ("bound", "vnk:7:3", ("--method", "all"), None),
        ("bound", "jnq:4:5", ("--method", "cert"), None),
        ("gb", "perm:5", (), None),
        ("gb", "inq:4:5", (), None),
    ),
    "gf_crosscheck": (
        ("solve", "ag:3:3", ("--all", "--mode", "closed"), 6),
        ("solve", "ag:3:3", ("--all", "--mode", "hyperplanes"), 6),
        ("solve", "ag:2:5", ("--all", "--mode", "closed"), 8),
        ("solve", "ag:2:5", ("--all", "--mode", "hyperplanes"), 8),
        ("solve", "cube:4", ("--field", "gf:3", "--all", "--mode", "closed"), 4),
        ("solve", "cube:4", ("--field", "gf:3", "--all", "--mode", "hyperplanes"), 4),
        ("bound", "ag:3:5", ("--method", "cert"), 12),
    ),
    # tiny instances that reach every layer, for the benchmark's own tests
    "smoke": (
        ("solve", "cube:2", ("--all", "--symmetry"), 2),
        ("solve", "vnk:3:1", ("--all",), None),
        ("solve", "ag:2:2", ("--all", "--mode", "closed"), 2),
        ("solve", "ag:2:2", ("--all", "--mode", "hyperplanes"), 2),
        ("bound", "cube:3", ("--method", "all"), 3),
        ("gb", "jnq:2:3", (), None),
    ),
}


def family_op(command, spec, options, theory) -> Op:
    argv = (command, "--family", spec, *options, "--json")
    field = options[options.index("--field") + 1] if "--field" in options else None
    family = (spec, field) if command == "solve" else None
    pair = f"{spec} {field or ''}".strip() if "--mode" in options else None
    return Op(argv, golden_key=" ".join(argv), theory=theory, family=family, pair=pair)


def random_sets(name: str, seed: int, count: int):
    """``count`` distinct sets of distinct points in a planar grid."""
    npoints, side, _ = RANDOM[name]
    rng = random.Random(f"{name}:{seed}")
    grid = [(x, y) for x in range(side) for y in range(side)]
    seen, sets = set(), []
    while len(sets) < count:
        points = tuple(rng.sample(grid, npoints))
        if frozenset(points) not in seen:
            seen.add(frozenset(points))
            sets.append(points)
    return sets


def point_file_text(points) -> str:
    lines = ["field rational", "dim 2"]
    lines.extend(f"point {x} {y}" for x, y in points)
    return "\n".join(lines) + "\n"


def build(name: str, seed: int, passes: int, workdir: Path):
    """The operations of each pass: a list of ``passes`` lists of Op."""
    batches = [[family_op(*spec) for spec in _FAMILY_OPS.get(name, ())] for _ in range(passes)]
    if name in RANDOM:
        workdir.mkdir(parents=True, exist_ok=True)
        per_pass = RANDOM[name][2]
        for index, points in enumerate(random_sets(name, seed, passes * per_pass)):
            path = workdir / f"set{index:04d}.txt"
            path.write_text(point_file_text(points), encoding="utf-8")
            golden_key = f"{name}:{seed}:{index}" if seed == GOLDEN_SEED else None
            exact = frozenset(tuple(Fraction(x) for x in p) for p in points)
            op = Op(("solve", str(path), "--point", "0", "--json"), golden_key, points=exact)
            batches[index // per_pass].append(op)
    order = random.Random(f"{name}:{seed}:order")
    for batch in batches:
        order.shuffle(batch)
    return batches
