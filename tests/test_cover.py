import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from almostcover import cover, linalg, vanishing
from almostcover.cover import (
    ac_numbers,
    min_almost_cover,
    orbit_reduce,
    realize_trace,
    verify_cover,
)
from almostcover.cover import _min_cover_over_masks
from almostcover.errors import InvariantError
from almostcover.families import FamilySpec, generate, symmetry_generators
from almostcover.fields import GF, QQ, GFElement, scalar_field
from almostcover.linalg import AffineMap, Hyperplane, PointSet
from almostcover.polyring import mono_deg
from almostcover.vanishing import GroebnerData, buchberger_moller

from test_linalg import AffineSpan, affine_map, reference_rref
from test_vanishing import reference_indicator_expansions


def qpoints(rows):
    return PointSet.from_ints(QQ, rows)


def cube(n):
    return qpoints(list(itertools.product((0, 1), repeat=n)))


def as_points(V, trace):
    return [V.points[j] for j in trace]


def traces_avoiding(V, v, mode="closed"):
    """The maximal traces avoiding v that the solve at v searches, as index tuples."""
    return tuple(cover._indices(mask) for mask in cover._Work(V, mode).traces(V.index_of(v)))


def brute_force_size(V, v):
    """Independent oracle: smallest subfamily of traces covering V minus v."""
    v_idx = V.index_of(v)
    others = [j for j in range(len(V)) if j != v_idx]
    if not others:
        return 0
    pos = {j: i for i, j in enumerate(others)}
    masks = [sum(1 << pos[j] for j in t) for t in traces_avoiding(V, v)]
    return combinations_minimum(masks, len(others))


def combinations_minimum(masks, nelements):
    """Fewest masks whose union is every element, by trying all combinations."""
    full = (1 << nelements) - 1
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            union = 0
            for mask in combo:
                union |= mask
            if union == full:
                return size
    raise AssertionError("masks do not cover")


def test_traces_avoiding_cube2_origin():
    V = cube(2)
    traces = traces_avoiding(V, (QQ.scalar(0), QQ.scalar(0)))
    got = [tuple(tuple(x) for x in as_points(V, t)) for t in traces]
    assert len(traces) == 3
    expected_sets = {
        frozenset({(0, 1), (1, 1)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 0)}),
    }
    as_ints = {
        frozenset(tuple(int(c) for c in p) for p in trace_pts) for trace_pts in got
    }
    assert as_ints == expected_sets


def test_traces_avoiding_collinear_middle():
    V = qpoints([(0, 0), (1, 1), (2, 2)])
    assert traces_avoiding(V, (QQ.scalar(1), QQ.scalar(1))) == ((0,), (2,))


def test_traces_avoiding_single_point():
    V = qpoints([(3, 4)])
    assert traces_avoiding(V, (QQ.scalar(3), QQ.scalar(4))) == ()


def test_traces_avoiding_are_closed_realizable_and_cover():
    sets = [
        cube(3),
        qpoints([(0, 0), (1, 0), (0, 1), (2, 2), (1, 1)]),
        PointSet.from_ints(GF(3), list(itertools.product(range(3), repeat=2))),
    ]
    for V in sets:
        for v in (V.points[0], V.points[-1]):
            traces = traces_avoiding(V, v)
            v_idx = V.index_of(v)
            covered = set()
            for trace in traces:
                assert v_idx not in trace
                covered.update(trace)
                pts = as_points(V, trace)
                span = AffineSpan(pts)
                # affinely closed: the span catches no other set point
                inside = {
                    j for j, p in enumerate(V.points) if span.contains(p)
                }
                assert inside == set(trace)
                # realizable by a hyperplane avoiding v
                H = span.witness(v)
                assert all(H.contains(p) for p in pts)
                assert not H.contains(v)
            assert covered == set(range(len(V))) - {v_idx}
            # pairwise incomparable
            for a in traces:
                for b in traces:
                    if a != b:
                        assert not set(a) <= set(b)


def test_verify_cover_examples():
    V = cube(2)
    origin = (QQ.scalar(0), QQ.scalar(0))
    assert not verify_cover(V, origin, [Hyperplane.from_ints(QQ, (1, 0), 1)])
    assert not verify_cover(V, origin, [Hyperplane.from_ints(QQ, (1, 1), 0)])
    good = [Hyperplane.from_ints(QQ, (1, 0), 1), Hyperplane.from_ints(QQ, (0, 1), 1)]
    assert verify_cover(V, origin, good)


def test_verify_cover_pins_the_point_scale_and_the_residues():
    # x1 = 1/2 scales to 2 x1 = 1 and the points by d = 2: (1/2, 0) gives
    # 2 * 1 - 2 * 1 = 0, which N . (d x) - O would read as 1
    V = PointSet(QQ, 2, [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 1)])
    half = Hyperplane([Fraction(1), Fraction(0)], Fraction(1, 2))
    assert verify_cover(V, V.points[0], [half])
    assert not verify_cover(V, V.points[1], [half])
    # x1 + x2 = 0 over GF(5) takes the int value 5 at (2, 3) and (1, 4)
    W = PointSet.from_ints(GF(5), [(0, 1), (2, 3), (1, 4)])
    line = Hyperplane.from_ints(GF(5), (1, 1), 0)
    assert verify_cover(W, W.points[0], [line])
    assert not verify_cover(W, W.points[1], [line])


INT_ROW_FUNCTIONS = ("content", "eliminate", "echelon", "direction", "ints", "int_points", "scalars")


def refuse_int_rows(monkeypatch, oracle):
    """Make every ``linalg`` int-row function raise, under any name a module binds it."""

    def refuse(*args):
        raise AssertionError(f"{oracle} reached the linalg int rows")

    functions = {getattr(linalg, name) for name in INT_ROW_FUNCTIONS}
    for module in (linalg, cover, vanishing):
        for name, value in list(vars(module).items()):
            if callable(value) and value in functions:
                monkeypatch.setattr(module, name, refuse)


def test_verify_cover_uses_no_int_kernel(monkeypatch):
    # the re-check must stay independent of the code that built the witnesses
    fractional = PointSet(QQ, 2, [(0, 0), (Fraction(1, 3), 1), (Fraction(-1, 2), 2), (3, Fraction(1, 3))])
    cases = []
    for V in (fractional, gf3_plane_part()):
        for v in V.points:
            witnesses = min_almost_cover(V, v).hyperplanes
            cases.append((V, v, witnesses, True))
            cases.append((V, v, witnesses[1:], False))
            # the cover at v holds V's first point unless v is that point
            cases.append((V, V.points[0], witnesses, v == V.points[0]))
    refuse_int_rows(monkeypatch, "verify_cover")
    for V, v, witnesses, verdict in cases:
        assert verify_cover(V, v, witnesses) is verdict


def test_hyperplane_table_uses_no_int_kernel(monkeypatch):
    # the table checks the coatom enumeration, so it must share no code with it
    V = gf3_plane_part()
    table = list(cover._hyperplane_traces(V).items())
    refuse_int_rows(monkeypatch, "_hyperplane_traces")
    assert list(cover._hyperplane_traces(V).items()) == table


def test_verify_cover_checks_its_inputs():
    V = cube(2)
    origin = V.points[0]
    with pytest.raises(TypeError, match="rational"):
        verify_cover(V, origin, [Hyperplane.from_ints(GF(3), (1, 0), 1)])
    with pytest.raises(ValueError, match="dimension"):
        verify_cover(V, origin, [Hyperplane.from_ints(QQ, (1, 0, 0), 1)])
    # a wrong-length point is refused even with no hyperplanes to test
    for point in ((0,), (0, 0, 0)):
        for hyperplanes in ([], [Hyperplane.from_ints(QQ, (1, 0), 1)]):
            with pytest.raises(ValueError, match="dimension"):
                verify_cover(V, point, hyperplanes)


def test_min_cover_cube3():
    V = cube(3)
    sol = min_almost_cover(V, tuple(QQ.scalar(0) for _ in range(3)))
    assert sol.size == 3 and sol.optimal
    assert verify_cover(V, sol.excluded, sol.hyperplanes)
    assert sol.lower_bound_used == 3


def test_min_cover_vnk21():
    V = qpoints([(0, 0), (1, 0), (0, 1)])
    sol = min_almost_cover(V, (QQ.scalar(0), QQ.scalar(0)))
    assert sol.size == 1
    assert sol.hyperplanes == (Hyperplane.from_ints(QQ, (1, 1), 1),)


def test_min_cover_single_point():
    V = qpoints([(2, 2)])
    sol = min_almost_cover(V, (QQ.scalar(2), QQ.scalar(2)))
    assert sol.size == 0 and sol.optimal and sol.hyperplanes == ()
    W = PointSet.from_ints(GF(3), [(1, 2)])
    for mode in ("closed", "hyperplanes"):
        sol = min_almost_cover(W, W.points[0], mode=mode)
        assert sol.size == 0 and sol.optimal and sol.hyperplanes == ()
        assert ac_numbers(W, mode=mode).per_point == (0,)


def test_single_point_meets_the_mode_checks():
    V = qpoints([(2, 2)])
    with pytest.raises(ValueError, match="finite field"):
        min_almost_cover(V, V.points[0], mode="hyperplanes")
    for W in (V, cube(2)):
        with pytest.raises(ValueError, match="unknown solve mode"):
            min_almost_cover(W, W.points[0], mode="bogus")
        with pytest.raises(ValueError, match="unknown solve mode"):
            ac_numbers(W, mode="bogus")


def through_the_point(V, point, trace):
    """A wrong witness: the hyperplane x1 = v1, which holds the excluded point."""
    return Hyperplane((V.field.one(),) + (V.field.zero(),) * (V.dim - 1), point[0])


def test_a_witness_through_the_excluded_point_is_caught(monkeypatch):
    monkeypatch.setattr(cover, "realize_trace", through_the_point)
    V = cube(3)
    with pytest.raises(InvariantError, match="solver produced an invalid cover"):
        min_almost_cover(V, V.points[0])


def test_a_cover_below_the_certificate_is_caught(monkeypatch):
    # a floor above every greedy size: greedy stops at once and the
    # undercut check is what refuses its cover
    monkeypatch.setattr(GroebnerData, "separating_degree", lambda self, point: 99)
    V = generate(FamilySpec.parse("cube:3", GF(3)))
    for mode in ("closed", "hyperplanes"):
        with pytest.raises(InvariantError, match="solver undercut the certificate lower bound"):
            min_almost_cover(V, V.points[0], mode=mode)


def test_hyperplanes_mode_takes_every_witness_from_the_table(monkeypatch):
    def never(*args):
        raise AssertionError("realize_trace called in hyperplanes mode")

    monkeypatch.setattr(cover, "realize_trace", never)
    for V in (generate(FamilySpec.parse("ag:2:3")), generate(FamilySpec.parse("cube:3", GF(5)))):
        table = cover._hyperplane_traces(V)
        numbers = ac_numbers(V, mode="hyperplanes")
        witnesses = [H for sol in numbers.solutions.values() for H in sol.hyperplanes]
        assert witnesses
        for H in witnesses:
            mask = sum(1 << j for j, p in enumerate(V.points) if H.contains(p))
            assert table[mask] == H


@pytest.mark.parametrize("module", ["almostcover", "almostcover.cover"])
def test_every_exported_name_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = __import__(module, fromlist=["__all__"]).__all__
    assert len(set(exported)) == len(exported)
    assert all(name in namespace for name in exported)


def test_min_cover_rejects_outside_point():
    with pytest.raises(ValueError):
        min_almost_cover(cube(2), (QQ.scalar(5), QQ.scalar(5)))


def test_exhaustive_mode_matches_closed_mode():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        F = GF(p)
        V = PointSet.from_ints(F, list(itertools.product(range(p), repeat=n)))
        for v in V.points:
            a = min_almost_cover(V, v, mode="closed")
            b = min_almost_cover(V, v, mode="hyperplanes")
            assert a.size == b.size == (p - 1) * n
            assert a.optimal and b.optimal


def test_exhaustive_mode_needs_finite_field():
    with pytest.raises(ValueError):
        traces_avoiding(cube(2), (QQ.scalar(0), QQ.scalar(0)), "hyperplanes")


def reference_min_cover(masks, nelements, floor, budget):
    """Branch and bound pruned by the largest-trace ratio alone, the oracle
    for ``_min_cover_over_masks``.

    Same greedy seed, branching element and try order, but no weight bound
    and no sibling exclusion, so it must find the same cover in no fewer
    nodes.
    """
    full = (1 << nelements) - 1
    sizes = [mask.bit_count() for mask in masks]
    cover_lists = []
    for e in range(nelements):
        owners = [i for i, mask in enumerate(masks) if mask >> e & 1]
        owners.sort(key=lambda i: (-sizes[i], i))
        cover_lists.append(owners)

    chosen = []
    cov = 0
    while cov != full:
        best_i, best_gain = None, 0
        for i, mask in enumerate(masks):
            gain = (mask & ~cov).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        cov |= masks[best_i]
    best = sorted(chosen)
    best_size = len(best)
    if best_size <= floor:
        return best, True, 0

    state = {"nodes": 0, "aborted": False, "best": best, "best_size": best_size}

    def dfs(cov, stack):
        state["nodes"] += 1
        if budget is not None and state["nodes"] > budget:
            state["aborted"] = True
            return True
        if cov == full:
            if len(stack) < state["best_size"]:
                state["best"] = sorted(stack)
                state["best_size"] = len(stack)
            return state["best_size"] <= floor
        depth = len(stack)
        if depth + 1 >= state["best_size"]:
            return False
        rem_mask = full & ~cov
        rem = rem_mask.bit_count()
        maxcov = 0
        for mask in masks:
            c = (mask & rem_mask).bit_count()
            if c > maxcov:
                maxcov = c
        if maxcov == 0 or depth + -(-rem // maxcov) >= state["best_size"]:
            return False
        pick, pick_freq = None, None
        scan = rem_mask
        while scan:
            e = (scan & -scan).bit_length() - 1
            freq = len(cover_lists[e])
            if pick_freq is None or freq < pick_freq:
                pick, pick_freq = e, freq
            scan &= scan - 1
        for i in cover_lists[pick]:
            if masks[i] & cov == masks[i]:
                continue
            stack.append(i)
            done = dfs(cov | masks[i], stack)
            stack.pop()
            if done:
                return True
            if depth + 1 >= state["best_size"]:
                break
        return False

    dfs(0, [])
    optimal = not state["aborted"] or state["best_size"] <= floor
    return state["best"], optimal, state["nodes"]


@st.composite
def covering_masks(draw):
    nelements = draw(st.integers(3, 14))
    full = (1 << nelements) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=2, max_size=24))
    union = 0
    for mask in masks:
        union |= mask
    # the last mask takes whatever the others miss, so the family covers
    masks[-1] |= full & ~union
    return masks, nelements


@st.composite
def small_covering_masks(draw):
    """Masks of 2 to 4 elements out of up to 20, like the lines through the
    points of a planar set, so that the search's bounds cut."""
    nelements = draw(st.integers(4, 20))
    mask = st.lists(st.integers(0, nelements - 1), min_size=2, max_size=4, unique=True).map(
        lambda elements: sum(1 << e for e in elements)
    )
    masks = draw(st.lists(mask, min_size=1, max_size=12))
    union = 0
    for m in masks:
        union |= m
    missed = [e for e in range(nelements) if not union >> e & 1]
    # masks of up to 4 missed elements take the rest, so the family covers;
    # a lone one goes with element 0, or with 1 if it is 0
    while missed:
        group, missed = missed[:4], missed[4:]
        if len(group) == 1:
            group.append(1 if group[0] == 0 else 0)
        masks.append(sum(1 << e for e in group))
    return masks, nelements


@settings(max_examples=300, deadline=None)
@given(st.one_of(covering_masks(), small_covering_masks()), st.data())
def test_search_matches_reference_and_brute_force(family, data):
    masks, nelements = family
    minimum = combinations_minimum(masks, nelements)
    floor = data.draw(st.integers(0, minimum), label="floor")
    chosen, optimal, nodes = _min_cover_over_masks(masks, (1 << nelements) - 1, floor, None)
    ref_chosen, ref_optimal, ref_nodes = reference_min_cover(masks, nelements, floor, None)
    assert (chosen, optimal) == (ref_chosen, ref_optimal)
    assert nodes <= ref_nodes
    assert optimal and len(chosen) == minimum


def insert_hole(mask, h):
    """The mask with a 0 bit inserted at position h."""
    low = (1 << h) - 1
    return mask & low | (mask & ~low) << 1


@settings(max_examples=200, deadline=None)
@given(covering_masks(), st.data())
def test_search_ignores_a_hole_in_the_target(family, data):
    # a solve covers V's points but v, so its target has a 0 bit at v's index
    masks, nelements = family
    target = (1 << nelements) - 1
    floor = data.draw(st.integers(0, 3), label="floor")
    budget = data.draw(st.sampled_from((None, 1, 3)), label="budget")
    h = data.draw(st.integers(0, nelements), label="hole")
    holed = [insert_hole(mask, h) for mask in masks]
    expected = _min_cover_over_masks(masks, target, floor, budget)
    assert _min_cover_over_masks(holed, insert_hole(target, h), floor, budget) == expected


@settings(max_examples=150, deadline=None)
@given(small_covering_masks(), st.data())
def test_budgeted_search_returns_a_cover_no_smaller_than_the_minimum(family, data):
    masks, nelements = family
    target = (1 << nelements) - 1
    minimum = combinations_minimum(masks, nelements)
    floor = data.draw(st.integers(0, minimum), label="floor")
    for budget in (1, 2, 5, 50):
        chosen, optimal, _ = _min_cover_over_masks(masks, target, floor, budget)
        union = 0
        for i in chosen:
            union |= masks[i]
        assert union == target
        assert len(chosen) >= minimum
        assert not optimal or len(chosen) == minimum


def test_top_t_bound_proves_greedy_optimal_at_the_root():
    # greedy needs all three; the two largest cover only 5 of 6 elements, so
    # the root's weight bound (3 > 2) cuts, and the largest-trace ratio does not
    masks = [0b001111, 0b010000, 0b100000]
    assert reference_min_cover(masks, 6, 0, None)[2] > 1
    for budget in (None, 1):
        assert _min_cover_over_masks(masks, 0b111111, 0, budget) == ([0, 1, 2], True, 1)


def test_weight_bound_proves_greedy_optimal_at_the_root():
    # greedy takes traces 0, 1 and 3.  The two largest hold 3 + 3 >= 5
    # elements, but elements 0 to 3 lie in traces of at most 3 and element 4
    # in traces of 1, so the weights sum to 4/3 + 1 > 2 and no two cover
    masks = [0b01001, 0b10000, 0b10000, 0b00111, 0b01011, 0b00101]
    assert reference_min_cover(masks, 5, 0, None)[2] == 3
    for budget in (None, 1):
        assert _min_cover_over_masks(masks, 0b11111, 0, budget) == ([0, 1, 3], True, 1)


def test_sibling_exclusion_skips_searched_traces():
    # the root branches on element 0 over traces 2, then 4.  Below trace 4
    # the search branches on element 3, whose traces are 2 and 3; trace 2's
    # branch is already searched, so only trace 3 is tried: 4 nodes, not 5
    masks = [0b00110, 0b10100, 0b01101, 0b11100, 0b00111]
    assert _min_cover_over_masks(masks, 0b11111, 0, None) == ([3, 4], True, 4)


def test_branch_and_bound_beats_greedy():
    # greedy takes the 4-element distractor and needs 3 sets; the optimum is 2
    masks = [
        0b011110,
        0b000111,
        0b111000,
    ]
    chosen, optimal, nodes = _min_cover_over_masks(masks, 0b111111, 0, None)
    assert optimal and len(chosen) == 2 and nodes > 0
    # with a one-node budget only the greedy answer survives, honestly flagged
    chosen, optimal, nodes = _min_cover_over_masks(masks, 0b111111, 0, 1)
    assert not optimal and len(chosen) == 3


def test_greedy_rejects_masks_that_miss_an_element():
    with pytest.raises(InvariantError):
        _min_cover_over_masks([0b001, 0b011], 0b111, 0, None)


def test_solver_agrees_with_brute_force_randomized():
    rng = random.Random(20260808)
    grid_q = [
        tuple(c) for c in itertools.product(range(-2, 3), repeat=2)
    ]
    for trial in range(30):
        if trial % 2 == 0:
            n = rng.choice((1, 2, 3))
            field = QQ
            grid = list(itertools.product(range(-2, 3), repeat=n))
        else:
            n = rng.choice((1, 2))
            field = GF(3)
            grid = list(itertools.product(range(3), repeat=n))
        size = rng.randint(1, min(8, len(grid)))
        rows = rng.sample(grid, size)
        V = PointSet.from_ints(field, rows)
        v = V.points[rng.randrange(size)]
        sol = min_almost_cover(V, v)
        assert sol.optimal
        assert sol.size == brute_force_size(V, v)
        assert verify_cover(V, v, sol.hyperplanes)
        assert sol.lower_bound_used <= sol.size


def naive_traces_avoiding(V, v):
    """Literal oracle: close every subset of size <= dim, then prune.

    Exponential, so only used on tiny instances to validate the incremental
    enumeration."""
    v_idx = V.index_of(v)
    others = [j for j in range(len(V)) if j != v_idx]
    closures = set()
    for size in range(1, V.dim + 1):
        for subset in itertools.combinations(others, size):
            span = AffineSpan([V.points[j] for j in subset])
            closure = frozenset(
                j for j, p in enumerate(V.points) if span.contains(p)
            )
            if v_idx not in closure:
                closures.add(closure)
    maximal = [
        c for c in closures if not any(c < other for other in closures)
    ]
    return tuple(sorted(tuple(sorted(c)) for c in maximal))


def test_traces_avoiding_match_naive_enumeration():
    rng = random.Random(424242)
    for trial in range(40):
        if trial % 3 == 2:
            field, n = GF(3), rng.choice((1, 2))
            grid = list(itertools.product(range(3), repeat=n))
        else:
            field, n = QQ, rng.choice((1, 2, 3))
            grid = list(itertools.product(range(-2, 3), repeat=n))
        size = rng.randint(1, min(7, len(grid)))
        V = PointSet.from_ints(field, rng.sample(grid, size))
        for v in V.points:
            assert traces_avoiding(V, v) == naive_traces_avoiding(V, v)


# coordinates no named family or benchmark set has: fractions, negatives,
# and residues of a 61-bit prime
FRACTIONAL = (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(3))
MERSENNE = GF(2**61 - 1)
LARGE_RESIDUES = (0, 1, 2, MERSENNE.p - 2, MERSENNE.p - 1, 2**40 + 3, 987654321987654321)


@st.composite
def kernel_point_sets(draw, fields=(QQ, MERSENNE)):
    field = draw(st.sampled_from(fields))
    coords = FRACTIONAL if field.is_rational else LARGE_RESIDUES
    dim = draw(st.integers(1, 3))
    grid = list(itertools.product(coords, repeat=dim))
    rows = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=7, unique=True))
    return PointSet(field, dim, rows)


@settings(max_examples=60, deadline=None)
@given(kernel_point_sets())
def test_traces_avoiding_match_naive_on_fractional_and_large_prime_sets(V):
    for v in V.points:
        assert traces_avoiding(V, v) == naive_traces_avoiding(V, v)


@settings(max_examples=40, deadline=None)
@given(
    kernel_point_sets(fields=(QQ,)),
    st.sampled_from((Fraction(-3, 2), Fraction(2, 5), Fraction(7, 3))),
    st.lists(st.sampled_from(FRACTIONAL), min_size=3, max_size=3),
)
def test_traces_avoiding_invariant_under_fractional_affine_map(V, c, shift):
    W = PointSet(QQ, V.dim, [tuple(c * x + t for x, t in zip(p, shift)) for p in V.points])
    for v, w in zip(V.points, W.points):
        assert traces_avoiding(W, w) == traces_avoiding(V, v)


gf3_grids = {n: list(itertools.product(range(3), repeat=n)) for n in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda n: st.lists(st.sampled_from(gf3_grids[n]), min_size=1, max_size=3**n, unique=True)
))
def test_closed_traces_match_hyperplane_traces_gf3(rows):
    # the flat lattice and the hyperplane enumeration share no code, so
    # agreement at every excluded point checks one against the other
    V = PointSet.from_ints(GF(3), rows)
    for v in V.points:
        assert traces_avoiding(V, v) == traces_avoiding(V, v, "hyperplanes")


def reference_hyperplane_traces(V):
    """Every canonical hyperplane tested on every point with ``contains``."""
    field, n = V.field, V.dim
    elements = [field.scalar(v) for v in range(field.p)]
    first = {}
    for lead in range(n):
        for tail in itertools.product(elements, repeat=n - lead - 1):
            normal = (field.zero(),) * lead + (field.one(),) + tail
            for offset in elements:
                H = Hyperplane(normal, offset)
                mask = sum(1 << j for j, p in enumerate(V.points) if H.contains(p))
                if mask and mask not in first:
                    first[mask] = H
    return first


def assert_table_matches_reference(V):
    # the first hyperplane of each trace is the hyperplanes-mode witness, so
    # the order and the hyperplanes count, not only the keys
    got = list(cover._hyperplane_traces(V).items())
    assert got == list(reference_hyperplane_traces(V).items())


@pytest.mark.parametrize(
    "desc, field",
    [
        ("cube:3", GF(2)),
        ("cube:3", GF(5)),
        ("cube:4", GF(3)),
        ("ag:2:5", None),
        ("ag:3:3", None),
        ("jnq:3:3", GF(5)),
    ],
)
def test_hyperplane_table_matches_contains_on_families(desc, field):
    assert_table_matches_reference(generate(FamilySpec.parse(desc, field)))


@st.composite
def small_gf_point_sets(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3 if p < 5 else 2))
    grid = list(itertools.product(range(p), repeat=n))
    rows = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=12, unique=True))
    return PointSet.from_ints(GF(p), rows)


@settings(max_examples=40, deadline=None)
@given(small_gf_point_sets())
def test_hyperplane_table_matches_contains_on_random_sets(V):
    assert_table_matches_reference(V)


@st.composite
def oracle_point_sets(draw):
    field = draw(st.sampled_from((QQ, GF(5), MERSENNE)))
    coords = {QQ: FRACTIONAL, MERSENNE: LARGE_RESIDUES}.get(field, range(5))
    dim = draw(st.integers(2, 3))
    grid = list(itertools.product(coords, repeat=dim))
    # 16 points in dim 3 can have thousands of traces, too slow to check
    size = 16 if dim == 2 else 10
    rows = draw(st.lists(st.sampled_from(grid), min_size=2, max_size=size, unique=True))
    return PointSet(field, dim, rows)


@settings(max_examples=15, deadline=None)
@given(oracle_point_sets())
def test_every_trace_is_a_maximal_hyperplane_trace(V):
    # checked through spans and hyperplanes on field scalars, which share no
    # code with the lattice, on sets past the naive oracle's reach
    for v in V.points:
        for trace in traces_avoiding(V, v):
            H = realize_trace(V, v, trace)
            assert not H.contains(v)
            assert tuple(j for j, p in enumerate(V.points) if H.contains(p)) == trace
            # maximal: v lies in the span of T and any other point u.  As
            # neither u nor v is in span(T), that holds exactly when u lies
            # in span(T + v), which takes one span per trace
            span = AffineSpan(as_points(V, trace) + [v])
            assert all(span.contains(p) for p in V.points)


@settings(max_examples=30, deadline=None)
@given(oracle_point_sets())
def test_separating_degree_is_the_indicator_degree(V):
    data = buchberger_moller(V)
    for v, chi in zip(V.points, reference_indicator_expansions(data)):
        assert data.separating_degree(v) == max(map(mono_deg, chi))


def span_coatoms(V):
    """The coatoms from spans on field scalars, as index tuples.

    With d = dim aff(V), they are the sets meet(aff(S), V) over the d-point
    subsets S whose span has dimension d - 1.
    """
    d = AffineSpan(V.points).dim
    coatoms = set()
    for S in itertools.combinations(V.points, d):
        span = AffineSpan(S)
        if span.dim == d - 1:
            coatoms.add(tuple(j for j, p in enumerate(V.points) if span.contains(p)))
    return coatoms


@settings(max_examples=15, deadline=None)
@given(oracle_point_sets())
def test_traces_are_every_coatom_avoiding_the_point_once(V):
    coatoms = span_coatoms(V)
    for v_idx, v in enumerate(V.points):
        traces = traces_avoiding(V, v)
        assert len(set(traces)) == len(traces)
        assert set(traces) == {c for c in coatoms if v_idx not in c}
        assert traces == tuple(sorted(traces))


@pytest.mark.parametrize(
    "desc, field, count",
    [
        ("cube:4", None, 140),
        ("perm:4", None, 679),
        ("vnk:4:2", None, 49),
        ("ag:3:3", None, 39),
        ("cube:4", GF(3), 76),
    ],
)
def test_coatoms_in_dimension_four_match_the_span_oracle(desc, field, count):
    # oracle_point_sets stops at dimension 3, where the residuals lose at
    # most one column before a coatom; in dimension 4 they lose two
    V = generate(FamilySpec.parse(desc, field))
    coatoms = tuple(map(cover._indices, cover._coatom_masks(V)))
    assert len(coatoms) == count
    assert coatoms == tuple(sorted(span_coatoms(V)))


def reference_verdict(V, v, hyperplanes):
    """verify_cover's meaning, on the field-scalar ``Hyperplane.contains``."""
    return not any(H.contains(v) for H in hyperplanes) and all(
        any(H.contains(q) for H in hyperplanes) for q in V.points if q != v
    )


@settings(max_examples=40, deadline=None)
@given(oracle_point_sets(), st.data())
def test_verify_cover_matches_the_field_scalar_reference(V, data):
    field = V.field
    v = data.draw(st.sampled_from(V.points))
    if data.draw(st.booleans()):
        # a shifted point, which may or may not be in V
        shift = data.draw(st.lists(st.integers(-2, 2), min_size=V.dim, max_size=V.dim))
        v = tuple(x + field.scalar(k) for x, k in zip(v, shift))
    # the coatom witnesses that miss v, some left out, which cover V minus v
    # or nearly so; a coatom has one witness at every point of V outside it
    witnesses = []
    for mask in cover._coatom_masks(V):
        outside = next(u for j, u in enumerate(V.points) if not mask >> j & 1)
        witnesses.append(realize_trace(V, outside, cover._indices(mask)))
    missing = [H for H in witnesses if not H.contains(v)]
    dropped = data.draw(st.sets(st.sampled_from(range(len(missing))), max_size=2)) if missing else set()
    hyperplanes = [H for i, H in enumerate(missing) if i not in dropped]
    # and hyperplanes through two points of V, which may hold v
    pairs = st.tuples(st.sampled_from(V.points), st.sampled_from(V.points), st.integers(0, V.dim - 1))
    for a, b, j in data.draw(st.lists(pairs, max_size=2)):
        diff = [x - y for x, y in zip(a, b)]
        i = next((i for i, x in enumerate(diff) if x), None)
        if i is None or i == j:
            continue
        normal = [field.zero()] * V.dim
        normal[j], normal[i] = diff[i], -diff[j]
        hyperplanes.append(Hyperplane(normal, sum(c * x for c, x in zip(normal, a))))
    hyperplanes = data.draw(st.permutations(hyperplanes))
    assert verify_cover(V, v, hyperplanes) is reference_verdict(V, v, hyperplanes)


def test_hyperplane_enumeration_counts():
    # (p^n - 1)/(p - 1) canonical normals, p offsets each
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        F = GF(p)
        V = PointSet.from_ints(F, list(itertools.product(range(p), repeat=n)))
        traces = traces_avoiding(V, V.points[0], "hyperplanes")
        # every trace of the full space is a hyperplane with p^(n-1) points
        assert all(len(t) == p ** (n - 1) for t in traces)
        total = (p**n - 1) // (p - 1) * p
        through_v = (p**n - 1) // (p - 1)
        assert len(traces) == total - through_v


def test_orbit_reduce_cube_transitive():
    spec = FamilySpec.parse("cube:3")
    V = generate(spec)
    partition = orbit_reduce(V, symmetry_generators(spec))
    assert partition.is_transitive


def test_orbit_reduce_vnk_fixed_origin():
    V = qpoints([(0, 0), (1, 0), (0, 1)])
    swap = affine_map(QQ, [[0, 1], [1, 0]], [0, 0])
    partition = orbit_reduce(V, [swap])
    assert partition.orbits == ((0,), (1, 2))
    assert not partition.is_transitive


def test_orbit_reduce_rejects_bad_generator():
    V = cube(2)
    shift = affine_map(QQ, [[1, 0], [0, 1]], [1, 0])
    with pytest.raises(ValueError, match="does not preserve"):
        orbit_reduce(V, [shift])


def reference_orbits(V, generators):
    """``orbit_reduce``'s orbits on field scalars: images by ``AffineMap.apply``, found by ``index_of``."""
    perms = []
    for g in generators:
        perm = []
        for q in V.points:
            image = g.apply(q)
            try:
                perm.append(V.index_of(image))
            except ValueError:
                raise ValueError(
                    "generator does not preserve the point set: maps "
                    f"{V.format_point(q)} to {V.format_point(image)}"
                ) from None
        perms.append(perm)
    orbits, seen = [], set()
    for start in range(len(V)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            for perm in perms:
                if perm[j] not in orbit:
                    orbit.add(perm[j])
                    frontier.append(perm[j])
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def orbits_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return str(err)


def matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


@st.composite
def conjugated_symmetries(draw):
    """(V, generators): a set closed under signed coordinate permutations,
    moved by a random invertible affine map h, with each symmetry s given
    as h s h^-1; fractional over the rationals, so both the points and the
    maps have denominators.  A generator is sometimes shifted off V."""
    field = draw(st.sampled_from((QQ, GF(5), MERSENNE)))
    n = draw(st.integers(1, 3))
    if field.is_rational:
        coords = FRACTIONAL
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        coords = range(5) if field.p == 5 else LARGE_RESIDUES
        entry = st.sampled_from(coords).map(field.scalar)
    zero, one = field.zero(), field.one()
    symmetries = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)))
        sign = draw(st.sampled_from((one, -one)))
        symmetries.append([[sign if c == perm[r] else zero for c in range(n)] for r in range(n)])
    # close the seed points under the symmetries
    grid = list(itertools.product(map(field.scalar, coords), repeat=n))
    W = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3, unique=True))
    for w in W:
        for S in symmetries:
            image = tuple(sum(a * x for a, x in zip(row, w)) for row in S)
            if image not in W:
                W.append(image)
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    identity = [[one if c == r else zero for c in range(n)] for r in range(n)]
    rank, reduced, _ = reference_rref([row + e for row, e in zip(A, identity)])
    assume(rank == n and all(reduced[i][i] == 1 for i in range(n)))
    inverse = [list(row[n:]) for row in reduced]
    b = draw(st.lists(entry, min_size=n, max_size=n))
    V = PointSet(field, n, [tuple(sum(a * x for a, x in zip(row, w)) + t for row, t in zip(A, b)) for w in W])
    generators = []
    for S in symmetries:
        G = matmul(matmul(A, S), inverse)
        translation = [t - sum(a * x for a, x in zip(row, b)) for row, t in zip(G, b)]
        if draw(st.booleans()):
            translation[draw(st.integers(0, n - 1))] += draw(entry)
        generators.append(AffineMap(G, translation))
    return V, generators


@settings(max_examples=80, deadline=None)
@given(conjugated_symmetries())
def test_orbit_reduce_matches_the_field_scalar_reference(case):
    V, generators = case
    expected = orbits_or_error(reference_orbits, V, generators)
    assert orbits_or_error(lambda: orbit_reduce(V, generators).orbits) == expected


@pytest.mark.parametrize(
    "desc, field",
    [
        ("cube:1", None),
        ("cube:3", None),
        ("cube:4", None),
        ("cube:3", GF(2)),
        ("cube:3", GF(5)),
        ("perm:2", None),
        ("perm:4", None),
        ("ag:1:7", None),
        ("ag:2:2", None),
        ("ag:2:5", None),
        ("ag:3:3", None),
    ],
)
def test_orbit_reduce_matches_the_reference_on_the_symmetric_families(desc, field):
    spec = FamilySpec.parse(desc, field)
    V, generators = generate(spec), symmetry_generators(spec)
    partition = orbit_reduce(V, generators)
    assert partition.orbits == reference_orbits(V, generators)
    assert partition.is_transitive


def test_orbit_reduce_error_paths():
    V = cube(2)
    # (1, 0) goes to (1/2, 0): the map's scale c = 2 does not clear it
    half = affine_map(QQ, [[Fraction(1, 2), 0], [0, 1]], [0, 0])
    with pytest.raises(ValueError) as err:
        orbit_reduce(V, [half])
    assert str(err.value) == "generator does not preserve the point set: maps (1, 0) to (1/2, 0)"
    # a projection, which the AffineMap constructor refuses as singular
    projection = object.__new__(AffineMap)
    projection.matrix = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    projection.translation = (Fraction(0), Fraction(0))
    with pytest.raises(ValueError, match="not injective"):
        orbit_reduce(V, [projection])
    with pytest.raises(ValueError, match="dimension mismatch"):
        orbit_reduce(V, [affine_map(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])])
    gf3 = PointSet.from_ints(GF(3), [(0, 0), (1, 0), (0, 1), (1, 1)])
    for W, field in [(V, GF(3)), (gf3, GF(5)), (gf3, QQ)]:
        with pytest.raises(TypeError):
            orbit_reduce(W, [affine_map(field, [[0, 1], [1, 0]], [0, 0])])


def test_ac_numbers_jnq23():
    V = qpoints([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    numbers = ac_numbers(V)
    assert numbers.ac_max == numbers.ac_min == 2
    assert numbers.optimal
    assert all(sol.size == 2 for sol in numbers.solutions.values())


def test_ac_numbers_with_symmetry_matches_direct():
    spec = FamilySpec.parse("cube:3")
    V = generate(spec)
    direct = ac_numbers(V)
    reduced = ac_numbers(V, generators=symmetry_generators(spec))
    assert direct.per_point == reduced.per_point
    assert reduced.orbits is not None and reduced.orbits.is_transitive
    assert len(reduced.solutions) == 1


def gf3_plane_part():
    """7 points of the plane x3 = x1 + x2 + 1 over GF(3), two left out."""
    return PointSet.from_ints(
        GF(3),
        [
            (x, y, (x + y + 1) % 3)
            for x, y in itertools.product(range(3), repeat=2)
            if (x, y) not in ((1, 2), (2, 2))
        ],
    )


def test_ac_numbers_matches_standalone_solves():
    for V in (
        qpoints([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]),
        generate(FamilySpec.parse("vnk:3:1")),
        PointSet.from_ints(GF(3), [(0, 0), (1, 0), (2, 1), (1, 2), (0, 2)]),
        # aff(V) a proper subspace, so each trace has several candidate
        # hyperplanes: the plane x1 + x2 + x3 = 0 and, over GF(3), the plane
        # x3 = x1 + x2 + 1
        generate(FamilySpec.parse("perm:3")),
        gf3_plane_part(),
    ):
        numbers = ac_numbers(V)
        for idx, sol in numbers.solutions.items():
            alone = min_almost_cover(V, V.points[idx])
            assert (sol.size, sol.hyperplanes) == (alone.size, alone.hyperplanes)
            assert numbers.per_point[idx] == alone.size


def test_ac_numbers_realizes_each_witness_trace_once(monkeypatch):
    realize = cover.realize_trace
    calls = []

    def counting(V, point, trace):
        calls.append(trace)
        return realize(V, point, trace)

    monkeypatch.setattr(cover, "realize_trace", counting)
    for spec in ("cube:4", "perm:3", "perm:4", "vnk:5:2"):
        calls.clear()
        V = generate(FamilySpec.parse(spec))
        numbers = ac_numbers(V)
        traces = {
            tuple(j for j, p in enumerate(V.points) if H.contains(p))
            for sol in numbers.solutions.values()
            for H in sol.hyperplanes
        }
        # one realization per distinct witness trace, and no other
        assert len(calls) == len(traces), spec


def assert_is_the_reference_witness(H, span, v):
    """H is the field-scalar witness of the span and v, with exact scalars.

    Fraction and GFElement compare equal to plain ints, so the equality
    alone would not see an int or a float that slipped out of the int code.
    """
    assert H == span.witness(v)
    exact = Fraction if scalar_field(v[0]).is_rational else GFElement
    assert all(type(x) is exact for x in (*H.normal, H.offset))


@settings(max_examples=15, deadline=None)
@given(oracle_point_sets())
@example(generate(FamilySpec.parse("perm:3")))
@example(gf3_plane_part())
def test_a_coatom_has_one_witness_at_every_point_outside_it(V):
    # what lets a solve realize each coatom once: a hyperplane through the
    # span of a coatom T contains aff(V) or meets it in span(T), so the
    # first candidate missing one point outside T misses them all
    for mask in cover._coatom_masks(V):
        trace = cover._indices(mask)
        outside = [v for j, v in enumerate(V.points) if not mask >> j & 1]
        witnesses = [realize_trace(V, v, trace) for v in outside]
        assert len(set(witnesses)) == 1
        span = AffineSpan(as_points(V, trace))
        for v, H in zip(outside, witnesses):
            assert_is_the_reference_witness(H, span, v)


def test_a_trace_that_is_no_coatom_needs_a_witness_per_point():
    # the span of one vertex of the cube has three candidate planes x_i = 0,
    # and which one misses the point depends on the point, so witnesses are
    # kept per coatom only
    V = cube(3)
    chosen = set()
    for v in V.points[1:]:
        H = realize_trace(V, v, (0,))
        assert_is_the_reference_witness(H, AffineSpan([V.points[0]]), v)
        chosen.add(H)
    assert len(chosen) == 3


def test_ac_numbers_solves_each_point_through_min_almost_cover(monkeypatch):
    # the per-point solve is the public one, so wrapping it sees every solve
    solve = cover.min_almost_cover
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cover, "min_almost_cover", counting)
    spec = FamilySpec.parse("cube:3")
    V = generate(spec)
    ac_numbers(V)
    assert calls == list(V.points)
    calls.clear()
    ac_numbers(V, generators=symmetry_generators(spec))
    assert calls == [V.points[0]]


def test_solution_witnesses_are_deterministic():
    V = cube(3)
    v = tuple(QQ.scalar(x) for x in (1, 0, 1))
    first = min_almost_cover(V, v)
    second = min_almost_cover(V, v)
    assert first.hyperplanes == second.hyperplanes
    assert first.size == second.size == 3
