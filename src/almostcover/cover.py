"""Exact minimum almost-covers of finite point sets by affine hyperplanes.

An almost cover for (V, v) is a set of hyperplanes whose union contains
every point of V except v and misses v.  Over an infinite field the
hyperplanes themselves cannot be enumerated, so the search runs over
*traces* instead: the subsets of V minus v that a hyperplane avoiding v
can cut out.  The reduction is lossless, because

  * every hyperplane trace T = meet(H, V) with v not on H is affinely
    closed inside V (T equals the meet of its own span with V) and
    avoids v, while

  * every affinely closed C avoiding v has v outside span(C) - otherwise
    v would lie in meet(span(C), V) = C - so a hyperplane containing
    span(C) and missing v exists.

Minimum covers by hyperplanes therefore coincide with minimum covers by
maximal affinely closed sets avoiding v, and those are enumerated exactly.

Over a finite field an exhaustive-hyperplane mode enumerates every
hyperplane directly and serves as a cross-check of the closed-set mode.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import mul

from .errors import InvariantError
from .linalg import Hyperplane, PointSet, direction, echelon, int_points, ints, scalars
from .vanishing import buchberger_moller

__all__ = [
    "CoverSolution",
    "OrbitPartition",
    "ACNumbers",
    "min_almost_cover",
    "verify_cover",
    "orbit_reduce",
    "ac_numbers",
]


class CoverSolution:
    """A minimum (or best-found) almost cover at one excluded point."""

    __slots__ = ("excluded", "size", "hyperplanes", "lower_bound_used", "optimal", "node_count")

    def __init__(
        self,
        excluded: tuple,
        size: int,
        hyperplanes: tuple,
        lower_bound_used: int,
        optimal: bool,
        node_count: int = 0,
    ):
        self.excluded = excluded
        self.size = size
        self.hyperplanes = hyperplanes
        self.lower_bound_used = lower_bound_used
        self.optimal = optimal
        self.node_count = node_count


class OrbitPartition:
    __slots__ = ("orbits", "is_transitive")

    def __init__(self, orbits: tuple, is_transitive: bool):
        self.orbits = orbits
        self.is_transitive = is_transitive


class ACNumbers:
    """Per-point almost-cover numbers with their max and min."""

    __slots__ = ("per_point", "ac_max", "ac_min", "optimal", "solutions", "orbits")

    def __init__(
        self,
        per_point: tuple,
        ac_max: int,
        ac_min: int,
        optimal: bool,
        solutions: dict | None = None,
        orbits: OrbitPartition | None = None,
    ):
        self.per_point = per_point
        self.ac_max = ac_max
        self.ac_min = ac_min
        self.optimal = optimal
        self.solutions = {} if solutions is None else solutions
        self.orbits = orbits


def _indices(mask):
    """Point indices of a bitmask, ascending."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _sorted_by_indices(masks, width):
    """Masks over ``width`` points, none inside another, by ascending index tuple.

    Where two such masks first differ, the one holding that point comes
    first: the other one holds a later point, or it would lie inside the
    first.  So the order is that of the bit-reversed masks, descending.
    """
    bits = f"0{width}b"
    return tuple(sorted(masks, key=lambda mask: int(format(mask, bits)[::-1], 2), reverse=True))


def _coatom_masks(V: PointSet):
    """The coatoms of V's flat lattice, each once, as bitmasks over the point indices.

    They come sorted by ascending index tuple, so the coatoms avoiding any
    one point are a sorted subsequence.

    A flat is an affinely closed subset of V (it equals the meet of its own
    span with V) and a coatom is a flat whose span is a hyperplane of
    aff(V).  A flat F avoiding v is a maximal closed set avoiding v exactly
    when F is a coatom: by exchange, v in aff(F + u) and v outside aff(F)
    put every other point u in aff(F + v).

    Reverse search (Avis and Fukuda, 1996) from the singletons.  A flat on
    the stack keeps, for every point outside it, the residual of
    (point - base) against its path's echelon rows as a ``direction`` (see
    ``linalg``).  Points share an extension closure exactly when their
    residuals are equal, so one dict pass finds every extension.  A
    direction does not change with the sign of its row, so the singletons
    read their residuals off one table with one direction per pair of
    points.  Extending by a residual with pivot column c clears column c
    in every residual of the child, and c is dropped from each: a flat of
    rank k keeps rows of n - k entries, parallel exactly when the full rows
    are, and residuals propagate in O(|V| (n - k)) per extension.

    The greedy basis of a flat takes, in turn, its lowest point outside the
    closure of the points taken so far.  An extension G | E of a flat G
    whose basis ends at ``last`` has G's basis plus min E as its greedy
    basis exactly when min E > last, and only then is it a child, so every
    flat is reached once, from the closure of its basis minus the last
    point.  Coatoms are recorded and never expanded.
    """
    p = V.field.p
    pts, _ = int_points(V.points, p)
    m = len(pts)
    top = len(echelon(([a - b for a, b in zip(q, pts[0])] for q in pts[1:]), p)[0]) - 1
    if top <= 0:
        # a collinear V has its points as coatoms, a single point has none
        return tuple(1 << j for j in range(m)) if top == 0 else ()
    table = [[None] * m for _ in range(m)]
    for j, base in enumerate(pts):
        for w in range(j + 1, m):
            table[j][w] = table[w][j] = direction([a - b for a, b in zip(pts[w], base)], p)
    coatoms = []
    stack = [(1 << j, j, 0, res) for j, res in enumerate(table)]
    while stack:
        flat, last, rank, res = stack.pop()
        extensions = {}
        for w, rw in enumerate(res):
            if rw is not None:
                extensions[rw] = extensions.get(rw, 0) | 1 << w
        for r, joins in extensions.items():
            if joins & ((2 << last) - 1):
                continue  # flat | joins has another canonical parent
            if rank + 1 == top:
                coatoms.append(flat | joins)
                continue
            c = 0
            while not r[c]:
                c += 1
            rp = r[c]
            # every residual of the child is 0 at c, so c is dropped from each
            new_res = [None] * m
            for w, rw in enumerate(res):
                if rw is None or joins >> w & 1:
                    continue
                lam = rw[c]
                if lam:
                    row = [a * rp - lam * b for a, b in zip(rw, r)]
                    del row[c]
                    new_res[w] = direction(row, p)
                else:
                    new_res[w] = rw[:c] + rw[c + 1 :]
            stack.append((flat | joins, (joins & -joins).bit_length() - 1, rank + 1, new_res))
    return _sorted_by_indices(coatoms, m)


def _hyperplane_traces(V: PointSet):
    """Every distinct nonempty hyperplane trace on V, with its first hyperplane.

    Only available over GF(p); enumerates all (p^n - 1)/(p - 1) * p
    hyperplanes normal . x = offset in canonical order (normals with a
    leading 1, then offsets ascending).  One pass over the points' residues
    per normal puts each point's bit into the mask at offset normal . x mod
    p, which gives the traces of every offset at once.  It reads the
    residues directly and shares no code with the coatom enumeration.
    Returns a dict from trace bitmask to the first hyperplane, in canonical
    order, that cuts it out; a ``Hyperplane`` is built only then.
    """
    field = V.field
    if field.is_rational:
        raise ValueError("exhaustive hyperplane enumeration needs a finite field")
    p, n = field.p, V.dim
    residues = [tuple(x.value for x in pt) for pt in V.points]
    first = {}
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            normal = (0,) * lead + (1,) + tail
            masks = {}
            for j, r in enumerate(residues):
                offset = sum(a * x for a, x in zip(normal, r)) % p
                masks[offset] = masks.get(offset, 0) | 1 << j
            for offset in sorted(masks):
                mask = masks[offset]
                if mask not in first:
                    first[mask] = Hyperplane.from_ints(field, normal, offset)
    return first


def _min_cover_over_masks(masks, target, floor, budget):
    """Exact minimum cover of the bitmask ``target`` by the given masks, by branch and bound.

    Every mask lies inside ``target``: a solve passes the traces avoiding
    v with ``target`` all points of V but v, so the search runs on V's own
    point bits.  A greedy cover is the first upper bound.  When it meets the
    certificate floor it is optimal, and the branching tables are never
    built.  Otherwise the search branches on an uncovered element with the
    fewest owning traces (the lowest such element), tries its traces by
    decreasing size (lowest index on ties), and stops once the floor is
    attained.

    Each node receives ``live``, a dict from the traces still allowed there
    to their masks.  At depth d with best size b, only t = b - d - 1 more
    traces can beat b.  Three exact prunings keep the tree small:

      * depth: a node with t <= 0 is cut before it looks at ``live``;
      * weight bound: give each element e of the node's uncovered set U the
        weight 1/s(e), with s(e) the size of the largest live trace through
        e cut down to U.  Every live trace then carries weight at most 1,
        so no t of them cover U when the weights sum to W > t (weak LP
        duality), nor when an element of U has no live trace.  One pass
        over the live traces by decreasing size weighs each element at the
        first that holds it, in integers scaled by lcm(1..largest trace
        size).  The bound is checked on entry and again after each branch,
        as b falls and ``live`` shrinks.  It cuts wherever the t largest
        live traces cover fewer than |U| elements: with sizes
        s_1 >= s_2 >= ..., W - t >= (|U| - s_1 - ... - s_t) / s_t;
      * sibling exclusion: once a trace's branch is fully searched, the
        trace leaves the node's ``live``, so its later branches never use
        it.  Every cover below the node holds a first trace, in try order,
        covering the branching element, and is searched in that branch.

    A node with t > 0 keeps the live traces that meet U, each cut down to
    U, so "banned" and "adds nothing" are one dict lookup.
    Each pruning cuts only subtrees that hold no cover smaller than the best
    found so far, so the search visits a subset of the unpruned search's
    nodes, in the same order, and the best cover changes at the same nodes:
    the answer is the one the unpruned search gives.  Under a budget it can
    go further in that order within the same number of nodes.  Returns
    (chosen index list, optimal, nodes).
    """
    chosen = []
    cov = 0
    while cov != target:
        best_i, best_gain = None, 0
        for i, mask in enumerate(masks):
            gain = (mask & ~cov).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_i is None:
            raise InvariantError("trace family does not cover the ground set")
        chosen.append(best_i)
        cov |= masks[best_i]
    best = sorted(chosen)
    if len(best) <= floor:
        return best, True, 0

    sizes = [mask.bit_count() for mask in masks]
    cover_lists = {e: [] for e in _indices(target)}
    for i in sorted(range(len(masks)), key=lambda i: -sizes[i]):
        rest = masks[i]
        while rest:
            low = rest & -rest
            cover_lists[low.bit_length() - 1].append(i)
            rest ^= low
    branch_order = sorted(cover_lists, key=lambda e: (len(cover_lists[e]), e))
    scale = lcm(*range(1, max(sizes) + 1))
    nodes = 0
    aborted = False

    def hopeless(uncovered, cuts, depth):
        # cuts: the live traces cut down to uncovered, largest first
        limit = (len(best) - depth - 1) * scale
        weight = seen = 0
        for cut in cuts:
            new = cut & ~seen
            if new:
                weight += new.bit_count() * (scale // cut.bit_count())
                if weight > limit:
                    return True
                seen |= new
                if seen == uncovered:
                    return False
        return True

    def dfs(uncovered, live, stack):
        nonlocal best, nodes, aborted
        nodes += 1
        if budget is not None and nodes > budget:
            aborted = True
            return True
        if not uncovered:
            if len(stack) < len(best):
                best = sorted(stack)
            return len(best) <= floor
        depth = len(stack)
        if depth + 1 >= len(best):
            return False
        live = {i: cut for i, mask in live.items() if (cut := mask & uncovered)}
        cuts = sorted(live.values(), key=int.bit_count, reverse=True)
        if hopeless(uncovered, cuts, depth):
            return False
        pick = next(e for e in branch_order if uncovered >> e & 1)
        for i in cover_lists[pick]:
            if i not in live:
                continue
            cut = live.pop(i)
            stack.append(i)
            done = dfs(uncovered & ~cut, live, stack)
            stack.pop()
            if done:
                return True
            cuts.remove(cut)
            if hopeless(uncovered, cuts, depth):
                break
        return False

    dfs(target, dict(enumerate(masks)), [])
    return best, not aborted or len(best) <= floor, nodes


class _Work:
    """What the solves at the points of one set share, built once per (V, mode).

    The solve mode is decided here and nowhere else.  ``data`` is V's
    Groebner data, and ``witnesses`` maps a trace's mask to its witness
    hyperplane.  In closed mode ``coatoms`` is V's coatom list and
    ``witnesses`` fills as coatoms are first chosen: the span of a coatom T
    is a hyperplane of aff(V), so a hyperplane through it either contains
    aff(V) or meets V in T alone, and the first candidate that misses one
    point outside T misses them all.  In hyperplanes mode ``witnesses`` is
    V's hyperplane trace table, which already holds every trace's first
    hyperplane, and ``coatoms`` is None.
    """

    __slots__ = ("npoints", "coatoms", "data", "witnesses")

    def __init__(self, V: PointSet, mode):
        if mode == "closed":
            self.coatoms = _coatom_masks(V)
            self.witnesses = {}
        elif mode == "hyperplanes":
            self.coatoms = None
            self.witnesses = _hyperplane_traces(V)
        else:
            raise ValueError(f"unknown solve mode {mode!r}")
        self.npoints = len(V)
        self.data = buchberger_moller(V)

    def traces(self, v_idx):
        """The maximal traces avoiding point ``v_idx``, as masks by ascending index tuple.

        In closed mode they are the coatoms avoiding the point.  In
        hyperplanes mode they are read off the hyperplane table alone, so
        they share no code with the coatom enumeration and check it.
        """
        bit = 1 << v_idx
        if self.coatoms is not None:
            return [mask for mask in self.coatoms if not mask & bit]
        # drop traces strictly inside another trace
        candidates = sorted((mask for mask in self.witnesses if not mask & bit), key=int.bit_count, reverse=True)
        kept = []
        for mask in candidates:
            if not any(mask & k == mask for k in kept):
                kept.append(mask)
        return _sorted_by_indices(kept, self.npoints)


def realize_trace(V: PointSet, point, trace) -> Hyperplane:
    """A hyperplane through all the trace's points that avoids the given one.

    The int differences of the trace's points are put in reduced echelon
    form.  For each free column f, ascending, the null vector with f set and
    every other free column 0 is a normal of a hyperplane through the
    trace; the first one not orthogonal to point - base is taken.  Each
    such vector is fixed by the trace's span up to scale, so the result
    depends on the span alone.  For a coatom of V it is one hyperplane at
    every point outside the coatom (see ``_Work``).
    """
    field = V.field
    p = field.p
    pts, scale = int_points([V.points[j] for j in trace] + [tuple(field.scalar(x) for x in point)], p)
    base, v = pts[0], pts[-1]
    rows, pivots = echelon(([a - b for a, b in zip(q, base)] for q in pts[1:-1]), p)
    diff = [a - b for a, b in zip(v, base)]
    # the null vectors times the product of the pivots, so that they are ints
    lead = 1
    for row, c in zip(rows, pivots):
        lead *= row[c]
    for f in range(V.dim):
        if f in pivots:
            continue
        normal = [0] * V.dim
        normal[f] = lead
        for row, c in zip(rows, pivots):
            normal[c] = -row[f] * lead // row[c]
        dot = sum(a * d for a, d in zip(normal, diff))
        if dot % p if p else dot:
            offset = sum(a * b for a, b in zip(normal, base))
            return Hyperplane(scalars(normal, p), scalars([offset], p, scale)[0])
    raise ValueError("inseparable: the point lies in the trace's span")


def min_almost_cover(V: PointSet, point, budget=None, mode="closed", _work=None) -> CoverSolution:
    """Exact smallest almost cover of (V, point), with witness hyperplanes.

    ``_work`` is V's shared work (see ``_Work``) when the caller already
    built it for other points of V; otherwise it is built here, and a bad
    mode is refused there.  A chosen trace's witness comes from the work's
    witness map; only a coatom not chosen before is realized, once per
    ``_work``, and reused at every excluded point outside it.
    """
    v_idx = V.index_of(point)
    v_pt = V.points[v_idx]
    work = _Work(V, mode) if _work is None else _work
    traces = work.traces(v_idx)
    floor = work.data.separating_degree(v_pt)
    others = (1 << len(V)) - 1 & ~(1 << v_idx)
    chosen, optimal, nodes = _min_cover_over_masks(traces, others, floor, budget)
    witnesses = []
    for i in chosen:
        mask = traces[i]
        H = work.witnesses.get(mask)
        if H is None:
            H = work.witnesses[mask] = realize_trace(V, v_pt, _indices(mask))
        witnesses.append(H)
    witnesses = tuple(witnesses)
    if not verify_cover(V, v_pt, witnesses):
        raise InvariantError("solver produced an invalid cover")
    if len(chosen) < floor:
        raise InvariantError("solver undercut the certificate lower bound")
    return CoverSolution(
        excluded=v_pt,
        size=len(chosen),
        hyperplanes=witnesses,
        lower_bound_used=floor,
        optimal=optimal,
        node_count=nodes,
    )


def verify_cover(V: PointSet, point, hyperplanes) -> bool:
    """True when the union covers every point of V except the given one.

    One int pass on its own scaling, not the ``linalg`` int rows that built
    the witnesses.  V's points and the given one are scaled by one common
    denominator d, and each hyperplane normal . x = offset by the lcm of its
    own denominators to N . x = O; over GF(p) scalars are residues, d = 1.
    A point x is on the hyperplane exactly when N . (d x) - d O is 0, mod p
    over GF(p).  Each hyperplane is tested at the given point, then at the
    points not yet covered.
    """
    p = V.field.p

    def ints(values):
        scale = 1 if p else lcm(*(x.denominator for x in values))
        return [x.value if p else x.numerator * (scale // x.denominator) for x in values], scale

    def off(normal, offset, x):
        value = sum(map(mul, normal, x)) - offset
        return value % p if p else value

    flat, d = ints([*map(V.field.scalar, point), *itertools.chain.from_iterable(V.points)])
    if len(flat) != V.dim * (len(V) + 1):
        raise ValueError("dimension mismatch")
    v, *rest = (flat[i : i + V.dim] for i in range(0, len(flat), V.dim))
    rest = [q for q in rest if q != v]
    for H in hyperplanes:
        if len(H.normal) != V.dim:
            raise ValueError("dimension mismatch")
        *normal, offset = ints([*map(V.field.scalar, (*H.normal, H.offset))])[0]
        if not off(normal, d * offset, v):
            return False
        rest = [q for q in rest if off(normal, d * offset, q)]
    return not rest


def orbit_reduce(V: PointSet, generators) -> OrbitPartition:
    """Orbit partition of the points under the group the generators produce.

    Each generator must map the set bijectively onto itself; violations are
    reported with the offending point.  Orbits are listed by smallest
    member, each sorted ascending.  A generator is read through its
    ``matrix``, ``translation`` and ``apply``.  An ``AffineMap`` refuses a
    singular matrix, so it is injective on every set, and the "not
    injective" check guards only a duck-typed generator that is not.

    The images are taken on ints.  V's points are read once as X = d x,
    with d their common denominator, and a generator x -> M x + t as cM
    and ct, with c the common denominator of its entries (read in V's
    field); over GF(p) all are residues and c = d = 1.  The image of x,
    scaled by c d, is then cM X + d ct, and it is a point of V exactly when
    it equals c X' for a point X' of V (mod p over GF(p)).  The field-scalar
    image is computed only to report a point that leaves V.
    """
    p = V.field.p
    pts, d = int_points(V.points, p)
    perms = []
    for g in generators:
        n = len(g.translation)
        if n != V.dim:
            raise ValueError("dimension mismatch")
        flat, c = ints([*map(V.field.scalar, itertools.chain(*g.matrix, g.translation))], p)
        matrix = [flat[i : i + n] for i in range(0, n * n, n)]
        shift = [d * t for t in flat[n * n :]]
        index = {tuple([c * x for x in X]): j for j, X in enumerate(pts)}
        perm = []
        for j, X in enumerate(pts):
            image = [sum(map(mul, row, X)) + t for row, t in zip(matrix, shift)]
            k = index.get(tuple([y % p for y in image]) if p else tuple(image))
            if k is None:
                point = V.points[j]
                raise ValueError(
                    "generator does not preserve the point set: maps "
                    f"{V.format_point(point)} to {V.format_point(g.apply(point))}"
                )
            perm.append(k)
        if len(set(perm)) != len(perm):
            raise ValueError("generator is not injective on the point set")
        perms.append(perm)
    seen = [False] * len(V)
    orbits = []
    for start in range(len(V)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        # the loop also visits the points appended while it runs
        for j in orbit:
            for perm in perms:
                k = perm[j]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        orbits.append(tuple(sorted(orbit)))
    return OrbitPartition(orbits=tuple(orbits), is_transitive=len(orbits) == 1)


def ac_numbers(V: PointSet, budget=None, generators=None, mode="closed") -> ACNumbers:
    """Almost-cover numbers of every point: the per-point table, max and min.

    The coatom list (or, in hyperplanes mode, the hyperplane trace table),
    the Groebner data and each coatom's witness hyperplane are built once
    and shared by every point solved.
    With symmetry generators, one representative per orbit is solved and the
    value shared across the orbit (covers map to covers under any affine
    symmetry of the set).
    """
    partition = orbit_reduce(V, generators) if generators else None
    orbits = partition.orbits if partition is not None else tuple((j,) for j in range(len(V)))
    work = _Work(V, mode)
    solutions = {
        orbit[0]: min_almost_cover(V, V.points[orbit[0]], budget, mode, _work=work) for orbit in orbits
    }
    per_point = [None] * len(V)
    for orbit in orbits:
        for j in orbit:
            per_point[j] = solutions[orbit[0]].size
    return ACNumbers(
        per_point=tuple(per_point),
        ac_max=max(per_point),
        ac_min=min(per_point),
        optimal=all(sol.optimal for sol in solutions.values()),
        solutions=solutions,
        orbits=partition,
    )
