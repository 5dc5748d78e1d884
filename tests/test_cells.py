"""Cell geometry: level-1 teeth, pullback cells, location, endpoint sets.

The independent oracle for every affine datum is the iterate itself:
``eval_fk`` computes values by plain iteration of the base map with no cell
machinery, so agreement between a cell's slope/intercept and sampled
``eval_fk`` values is a genuine dual-route check.  Frozen interval tables
were computed by hand from the pullback definition before implementation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawcascade.cells import (
    ROOT,
    Cell,
    _endpoints,
    _walk,
    cell,
    child_cell,
    child_map,
    children,
    e_points,
    MAX_CELLS,
    first_level_of,
    iter_cells,
    level1_cell,
    level1_ids_at,
    level1_ids_of,
    locate,
    tooth,
)
from sawcascade.construction import DomainError, eval_f1, eval_fk, f1_step, orbit
from sawcascade.suites import tapered_endpoints

F = Fraction

addresses = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=1, max_size=5
).map(tuple)


# ---------------------------------------------------------------------------
# level-1 cells
# ---------------------------------------------------------------------------


FROZEN_LEVEL1 = [
    # id, lo, hi, slope, intercept
    (0, F(-1, 2), F(1, 2), F(2), F(0)),
    (1, F(1, 2), F(2, 3), F(-12), F(7)),
    (2, F(2, 3), F(3, 4), F(24), F(-17)),
    (3, F(3, 4), F(4, 5), F(-40), F(31)),
    (-1, F(-2, 3), F(-1, 2), F(-12), F(-7)),
    (-2, F(-3, 4), F(-2, 3), F(24), F(17)),
]


@pytest.mark.parametrize("j, lo, hi, slope, intercept", FROZEN_LEVEL1)
def test_level1_frozen_table(j, lo, hi, slope, intercept):
    c = level1_cell(j)
    assert (c.lo, c.hi, c.slope, c.intercept) == (lo, hi, slope, intercept)
    assert c.address == (j,)


@given(st.integers(min_value=-60, max_value=60))
def test_level1_matches_base_map_at_endpoints_and_inside(j):
    c = level1_cell(j)
    probe = c.lo + c.length / 3
    assert c.value_at(c.lo) == eval_f1(c.lo)
    assert c.value_at(c.hi) == eval_f1(c.hi)
    assert c.value_at(probe) == eval_f1(probe)
    assert {abs(c.value_at(c.lo)), abs(c.value_at(c.hi))} == {1}
    assert c.value_at(c.lo) == -c.value_at(c.hi)


def test_tooth_is_the_level1_cells_map_and_the_fused_step():
    for j in range(-60, 61):
        c = level1_cell(j)
        assert tooth(j) == (c.slope, c.intercept), j
        s, intercept = tooth(j)
        # f1_step gives the numerator over q of f_1 and the leftmost tooth's
        # slope; the midpoint and a third of the way in lie on tooth j alone
        for x in (c.midpoint, c.lo + c.length / 3):
            p, q = x.numerator, x.denominator
            assert f1_step(p, q) == (s * p + intercept * q, s), (j, x)


def test_level1_adjacent_cells_tile():
    for j in range(-25, 25):
        assert level1_cell(j).hi == level1_cell(j + 1).lo


def test_level1_rejects_non_ints():
    with pytest.raises(DomainError):
        level1_cell(True)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# id lookup
# ---------------------------------------------------------------------------


FROZEN_IDS = [
    (F(0), [0]),
    (F(3, 5), [1]),
    (F(7, 10), [2]),
    (F(1, 2), [0, 1]),
    (F(-1, 2), [-1, 0]),
    (F(2, 3), [1, 2]),
    (F(-3, 4), [-3, -2]),
    (F(1), []),
    (F(-1), []),
]


@pytest.mark.parametrize("x, ids", FROZEN_IDS)
def test_level1_ids_frozen(x, ids):
    assert level1_ids_at(x) == ids


@given(st.fractions(min_value=F(-1), max_value=F(1), max_denominator=300))
def test_level1_ids_are_exactly_the_containing_cells(x):
    ids = level1_ids_at(x)
    for j in ids:
        assert level1_cell(j).contains(x)
    # completeness within a sweep: no unlisted neighbor contains x
    for j in range(-50, 51):
        if level1_cell(j).contains(x):
            assert j in ids


def reference_level1_ids_of(p: int, q: int) -> list[int]:
    """level1_ids_of as first written: a negative numerator mirrored by
    recursing on -p."""
    if p < 0:
        return [-j for j in reversed(reference_level1_ids_of(-p, q))]
    ids = [0] if 2 * p <= q else []
    if q <= 2 * p < 2 * q:
        n = q // (q - p)
        if n >= 3 and n * p == (n - 1) * q:
            ids.append(n - 2)
        ids.append(n - 1)
    return ids


def test_level1_ids_of_equal_the_recursive_definition_up_to_q_400():
    for q in range(1, 401):
        for p in range(-q, q + 1):
            assert level1_ids_of(p, q) == reference_level1_ids_of(p, q), (p, q)


@given(st.integers(min_value=1, max_value=10**12).flatmap(
    lambda q: st.tuples(st.integers(min_value=-q, max_value=q), st.just(q))
))
@settings(max_examples=300)
def test_level1_ids_of_equal_the_recursive_definition(pq):
    assert level1_ids_of(*pq) == reference_level1_ids_of(*pq)


def test_level1_ids_of_list_both_teeth_at_a_shared_endpoint():
    # (n - 1)/n is shared by teeth n - 1 and n (ids n - 2 and n - 1), 1/2 by
    # the middle ramp and tooth 2, in any terms p/q; the mirrors negated
    for n in range(3, 200):
        for scale in (1, 7):
            p, q = (n - 1) * scale, n * scale
            assert level1_ids_of(p, q) == [n - 2, n - 1] == reference_level1_ids_of(p, q)
            assert level1_ids_of(-p, q) == [1 - n, 2 - n] == reference_level1_ids_of(-p, q)
    for q in (2, 4, 10**12):
        assert level1_ids_of(q // 2, q) == [0, 1] and level1_ids_of(-(q // 2), q) == [-1, 0]
    assert level1_ids_of(5, 5) == level1_ids_of(-5, 5) == []


# ---------------------------------------------------------------------------
# pullback cells
# ---------------------------------------------------------------------------


FROZEN_CELLS = [
    # address, lo, hi, slope, intercept
    ((0, 0), F(-1, 4), F(1, 4), F(4), F(0)),
    ((0, 1), F(1, 4), F(1, 3), F(-24), F(7)),
    ((1, 0), F(13, 24), F(5, 8), F(-24), F(14)),
    ((1, 1), F(19, 36), F(13, 24), F(144), F(-77)),
    ((0, 0, 0), F(-1, 8), F(1, 8), F(8), F(0)),
]


@pytest.mark.parametrize("address, lo, hi, slope, intercept", FROZEN_CELLS)
def test_cell_frozen_table(address, lo, hi, slope, intercept):
    c = cell(address)
    assert (c.lo, c.hi) == (lo, hi)
    assert (c.slope, c.intercept) == (slope, intercept)


def test_middle_chain_interval_law():
    for k in range(1, 21):
        c = cell((0,) * k)
        assert (c.lo, c.hi) == (-F(1, 2**k), F(1, 2**k))
        assert c.slope == 2**k and c.intercept == 0


@given(addresses)
@settings(max_examples=150)
def test_cell_affine_data_matches_iterate(address):
    c = cell(address)
    k = len(address)
    for t in (F(1, 4), F(1, 2), F(3, 4)):
        x = c.lo + c.length * t
        assert c.value_at(x) == eval_fk(x, k)


@given(addresses)
@settings(max_examples=150)
def test_cell_invariants(address):
    c = cell(address)
    k = len(address)
    endpoint_values = {c.value_at(c.lo), c.value_at(c.hi)}
    assert endpoint_values == {F(-1), F(1)}
    assert c.length <= F(2) ** (1 - k)
    assert -1 <= c.lo < c.hi <= 1


@given(addresses, st.integers(min_value=-5, max_value=5))
def test_child_cell_agrees_with_extended_address(address, j):
    assert child_cell(cell(address), j) == cell(address + (j,))


def reference_level1(j: int) -> Cell:
    """The level-1 cell in Fractions, from the tooth ends and the value
    (-1)^n at the left end of tooth n = |j| + 1."""
    if j == 0:
        return Cell((0,), F(-1, 2), F(1, 2), F(2), F(0))
    n = abs(j) + 1
    slope = F((-1) ** (n + 1) * 2 * n * (n + 1))
    lo, hi = 1 - F(1, n), 1 - F(1, n + 1)
    intercept = F((-1) ** n) - slope * lo
    if j > 0:
        return Cell((j,), lo, hi, slope, intercept)
    return Cell((j,), -hi, -lo, slope, -intercept)


def reference_child_cell(parent: Cell, j: int) -> Cell:
    """The Fraction pullback: the preimage of tooth j under the parent's map."""
    tooth = reference_level1(j)
    a = (tooth.lo - parent.intercept) / parent.slope
    b = (tooth.hi - parent.intercept) / parent.slope
    lo, hi = min(a, b), max(a, b)
    return Cell(
        address=parent.address + (j,),
        lo=lo,
        hi=hi,
        slope=tooth.slope * parent.slope,
        intercept=tooth.slope * parent.intercept + tooth.intercept,
    )


def reference_locate(x: Fraction, k: int) -> list[tuple[int, ...]]:
    """Every level-k address at x, by descending through the Fraction
    iterates and branching at every shared tooth endpoint."""
    results = []

    def descend(prefix, y, remaining):
        if remaining == 0:
            results.append(prefix)
            return
        for j in level1_ids_at(y):
            descend(prefix + (j,), reference_level1(j).value_at(y), remaining - 1)

    descend((), x, k)
    return sorted(results)


deep_addresses = st.lists(
    st.integers(min_value=-60, max_value=60), min_size=1, max_size=5
).map(tuple)


@given(deep_addresses)
@settings(max_examples=300)
def test_integer_cells_match_the_fraction_pullback(address):
    expected = Cell((), F(-1), F(1), F(1), F(0))
    for j in address:
        expected = reference_child_cell(expected, j)
    got = cell(address)
    assert (got.lo, got.hi, got.slope, got.intercept) == (
        expected.lo, expected.hi, expected.slope, expected.intercept
    )
    assert type(got.slope) is int and type(got.intercept) is int
    assert got.length == expected.hi - expected.lo
    assert got.midpoint == (expected.lo + expected.hi) / 2


@given(
    st.fractions(min_value=F(-1), max_value=F(1), max_denominator=10**4),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300)
def test_locate_matches_the_recursive_descent(x, k):
    assert locate(x, k) == reference_locate(x, k)


def test_locate_matches_the_recursive_descent_at_endpoints():
    points = [s * (1 - F(1, n)) for n in range(2, 61) for s in (1, -1)]
    points += [x for c in iter_cells(4, 2) for x in (c.lo, c.hi)]
    branched = 0
    for x in points:
        for k in range(1, 6):
            found = locate(x, k)
            assert found == reference_locate(x, k)
            branched += len(found) == 2
    assert branched > 100  # the walk really branches at these points


def test_locate_at_tooth_endpoints_the_domain_ends_and_inside_cells():
    # a shared tooth endpoint lies in two level-1 cells and, its image being
    # +-1, in no deeper one; +-1 lie in none; a cell's midpoint in it alone
    for n in range(2, 60):
        for x in (1 - F(1, n), F(1, n) - 1):
            assert len(locate(x, 1)) == 2 and locate(x, 1) == reference_locate(x, 1)
            assert locate(x, 2) == reference_locate(x, 2) == []
    for x in (F(1), F(-1)):
        for k in range(1, 5):
            assert locate(x, k) == reference_locate(x, k) == []
    for c in iter_cells(3, 3):
        assert locate(c.midpoint, c.level) == reference_locate(c.midpoint, c.level) == [c.address]


def test_children_frozen_fan():
    kids = children((0,), 1)
    assert [(c.lo, c.hi) for c in kids] == [
        (F(-1, 3), F(-1, 4)),
        (F(-1, 4), F(1, 4)),
        (F(1, 4), F(1, 3)),
    ]
    assert [c.address for c in kids] == [(0, -1), (0, 0), (0, 1)]


def test_children_spatial_order_flips_with_negative_slope():
    # parent (1,) has slope -12, so child ids run right to left
    kids = children((1,), 1)
    assert [c.address[-1] for c in kids] == [1, 0, -1]
    for a, b in zip(kids, kids[1:]):
        assert a.hi == b.lo


@given(addresses, st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_children_tile_and_leave_symmetric_shortfall(address, budget):
    parent = cell(address)
    kids = children(address, budget)
    assert len(kids) == 2 * budget + 1
    for a, b in zip(kids, kids[1:]):
        assert a.hi == b.lo
    assert parent.lo < kids[0].lo and kids[-1].hi < parent.hi
    covered = kids[-1].hi - kids[0].lo
    assert parent.length - covered == parent.length / (budget + 2)


def test_child_map_frozen():
    for parent in (level1_cell(0), level1_cell(1), ROOT):
        h = child_map(parent)
        assert (h(-1), h(1)) == (parent.lo, parent.hi)


@given(addresses)
@settings(max_examples=80)
def test_child_map_conjugates_level1_family_onto_children(address):
    parent = cell(address)
    h = child_map(parent)
    for j in range(-4, 5):
        tooth = level1_cell(j)
        image = tuple(sorted((h(tooth.lo), h(tooth.hi))))
        kid = child_cell(parent, j if parent.slope > 0 else -j)
        assert (kid.lo, kid.hi) == image


# ---------------------------------------------------------------------------
# locate
# ---------------------------------------------------------------------------


FROZEN_LOCATE = [
    (F(7, 10), 1, [(2,)]),
    (F(1, 2), 1, [(0,), (1,)]),
    (F(1, 2), 2, []),
    (F(1), 1, []),
    (F(0), 3, [(0, 0, 0)]),
    (F(7, 10), 3, [(2, 0, 0)]),
    # f_3(7/10) = -4/5 is a shared tooth endpoint, so two level-4 cells meet here
    (F(7, 10), 4, [(2, 0, 0, -4), (2, 0, 0, -3)]),
]


@pytest.mark.parametrize("x, k, expected", FROZEN_LOCATE)
def test_locate_frozen(x, k, expected):
    assert locate(x, k) == expected


@given(
    st.fractions(min_value=F(-1), max_value=F(1), max_denominator=200),
    st.integers(min_value=1, max_value=6),
)
def test_locate_addresses_contain_the_point(x, k):
    found = locate(x, k)
    assert len(found) <= 2
    for address in found:
        assert cell(address).contains(x)
    if not found:
        info = orbit(x, k)
        hit_one = abs(x) == 1 or any(
            abs(v) == 1 for v in info.values[: k - 1]
        )
        assert hit_one


@given(st.fractions(min_value=F(-1), max_value=F(1), max_denominator=200))
def test_locate_two_results_only_at_shared_endpoints(x):
    found = locate(x, 3)
    if len(found) == 2:
        # address order need not be spatial order: negative slopes flip it
        a, b = sorted((cell(found[0]), cell(found[1])), key=lambda c: c.lo)
        assert a.hi == b.lo == x


# ---------------------------------------------------------------------------
# endpoint enumeration
# ---------------------------------------------------------------------------


def test_e_points_level_one_is_just_the_domain_ends():
    assert e_points(1, (F(-1), F(1)), 10) == [(F(-1), 1), (F(1), 1)]


def test_e_points_level_two_positive_window():
    pts = e_points(2, (F(0), F(1)), 3)
    xs = dict(pts)
    assert xs[F(1)] == 1
    for endpoint in (F(1, 2), F(2, 3), F(3, 4), F(4, 5)):
        assert xs[endpoint] == 2
    assert F(-1, 2) not in xs


def test_e_points_first_levels_match_orbit_based_classification():
    pts = e_points(4, (F(-1), F(1)), 4)
    assert pts == sorted(pts, key=lambda p: p[0])
    for x, first_level in pts:
        assert first_level_of(x, 10) == first_level
        if first_level >= 2:
            assert abs(eval_fk(x, first_level - 1)) == 1
        for later in range(first_level, first_level + 3):
            assert eval_fk(x, later) == 0


def test_e_points_respects_window_and_budget():
    pts = e_points(3, (F(-1, 2), F(1, 2)), 2)
    for x, _first_level in pts:
        assert F(-1, 2) <= x <= F(1, 2)
    assert (F(1, 2), 2) in pts
    assert (F(-1, 2), 2) in pts


def test_iter_cells_walks_depth_first_in_spatial_order():
    got = [c.address for c in iter_cells(2, 1)]
    ids = (-1, 0, 1)
    assert set(got) == set([(j,) for j in ids] + [(i, j) for i in ids for j in ids])
    # teeth +-1 have slope -12, so their fans run ids descending
    assert got == [(-1,), (-1, 1), (-1, 0), (-1, -1), (0,), (0, -1), (0, 0), (0, 1),
                   (1,), (1, 1), (1, 0), (1, -1)]
    walked = list(iter_cells(3, 2))
    ids = range(-2, 3)
    assert set(c.address for c in walked) == set(
        [(i,) for i in ids] + [(i, j) for i in ids for j in ids]
        + [(i, j, m) for i in ids for j in ids for m in ids]
    )
    position = {c.address: n for n, c in enumerate(walked)}
    for c in walked:
        assert c == cell(c.address)
        if c.level > 1:
            assert position[c.address[:-1]] < position[c.address]  # parent first
    for level in (1, 2, 3):
        row = [c for c in walked if c.level == level]
        for left, right in zip(row, row[1:]):
            assert left.hi <= right.lo  # meet or ascend


def reference_cell_walk(budgets, lo, hi):
    """The walk of the cell tree on Cells built with ``child_cell``, as
    ``_walk`` ran before it walked integer nodes: (cell, fan) on entering
    and (cell, None) on leaving each cell, depth first in spatial order."""
    stack = [(ROOT, 0)]  # a cell and the largest |id| of its address, None to leave
    while stack:
        parent, top = stack.pop()
        fan = None
        if top is not None:
            stack.append((parent, None))
            m, fan = parent.level, []
            if m < len(budgets) and top <= budgets[m]:
                ids = range(-budgets[m], budgets[m] + 1)
                fan = [child_cell(parent, j) for j in (ids if parent.slope > 0 else reversed(ids))]
                if lo > ROOT.lo or hi < ROOT.hi:
                    fan = [c for c in fan if c.hi >= lo and c.lo <= hi]
                stack.extend((c, max(top, abs(c.address[-1]))) for c in reversed(fan))
        yield parent, fan


def test_walk_hands_over_each_fan_on_entering_its_parent():
    # (cell, fan) on entering, the fan being the cell's children in spatial
    # order and [] at the last level; (cell, None) on leaving
    fans = {
        (): [(-1,), (0,), (1,)],
        (-1,): [(-1, 1), (-1, 0), (-1, -1)],  # slope -12: ids descend
        (0,): [(0, -1), (0, 0), (0, 1)],
        (1,): [(1, 1), (1, 0), (1, -1)],
    }

    def expected(address):
        yield address, fans.get(address, [])
        for child in fans.get(address, []):
            yield from expected(child)
        yield address, None

    nodes = [(node[0], fan if fan is None else [f[0] for f in fan])
             for node, fan in _walk((1, 1), ROOT.lo, ROOT.hi)]
    assert nodes == list(expected(()))
    events = list(reference_cell_walk((1, 1), ROOT.lo, ROOT.hi))
    got = [(c.address, fan if fan is None else [f.address for f in fan]) for c, fan in events]
    assert got == list(expected(()))
    for parent, fan in events:
        if fan:
            assert fan == [child_cell(parent, f.address[-1]) for f in fan]
            assert all(a.hi == b.lo for a, b in zip(fan, fan[1:]))  # left to right


def _negative_fan_windows() -> list[tuple[tuple[int, ...], Fraction, Fraction]]:
    """Windows that cut the fan of a negative-slope parent: from inside one
    child to inside another, from one child's end to another's, and from
    inside a child to past the parent."""
    windows = []
    for j in (-3, -1, 1):  # teeth of slope -40, -12, -12
        fan = children((j,), 3)
        assert level1_cell(j).slope < 0
        windows += [
            ((3, 3), fan[1].midpoint, fan[-2].midpoint),
            ((3, 3), fan[0].lo, fan[2].hi),
            ((3, 3, 2), fan[2].midpoint, level1_cell(j + 1).midpoint),
        ]
    deep = children((1, 2), 2)  # under the level-2 cell (1, 2) of slope -288
    windows.append(((3, 3, 2), deep[1].midpoint, deep[3].hi))
    return windows


@pytest.mark.parametrize("budgets, lo, hi", _negative_fan_windows())
def test_endpoints_are_the_distinct_ends_of_the_cells_the_walk_enters(budgets, lo, hi):
    walk = list(reference_cell_walk(budgets, lo, hi))
    entered = [c for c, fan in walk if fan is not None]
    expected = sorted({(x, c.level + 1) for c in entered for x in (c.lo, c.hi)})
    got = list(_endpoints(budgets, lo, hi))
    assert got == expected
    assert len({x for x, _ in got}) == len(got)
    # the window cut a fan under a negative-slope parent
    assert any(
        parent.slope < 0 and fan and len(fan) < 2 * budgets[parent.level] + 1
        for parent, fan in walk
    )


def endpoints_off_the_cell_walk(budgets, lo, hi):
    """(x, first_level) read off the reference walk's Cells, as
    ``_endpoints`` listed them before it walked integer nodes: a cell's lo
    on entering it, its hi on leaving it, and an end equal to the one
    before it dropped."""
    last, ends = None, []
    for c, fan in reference_cell_walk(budgets, lo, hi):
        x = c.lo if fan is not None else c.hi
        if x != last:
            ends.append((x, c.level + 1))
        last = x
    return ends


#: Windows for the endpoint listing: the whole domain, a cut through the
#: level-2 fans of two teeth and a tooth's negative mirror, windows whose
#: edges are cell endpoints (shared by two children, or a tooth's own), and
#: the one point 2/3 that two level-1 cells and their subtrees touch.
ENDPOINT_WINDOWS = [
    (ROOT.lo, ROOT.hi),
    (F(1, 4), F(1, 3)),
    (F(-7, 8), F(-3, 5)),
    (cell((1, 2)).hi, cell((1, 0)).hi),
    (level1_cell(1).lo, level1_cell(2).hi),
    (F(-1), cell((0, -2)).lo),
    (F(2, 3), F(2, 3)),
]

#: Per-level budgets of the endpoint listing, from ROOT alone to the
#: tapered budgets of the oscillation suite's default six levels.
ENDPOINT_BUDGETS = [(), (0,), (3,), (2, 2), (3, 2, 1), (50, 7, 3, 2, 2)]


def as_cell_data(node):
    """A node's address, S, C and its bounds as Fractions over |S|."""
    address, S, C, lo, hi = node
    return address, S, C, F(lo, abs(S)), F(hi, abs(S))


@pytest.mark.parametrize("budgets", ENDPOINT_BUDGETS)
@pytest.mark.parametrize("lo, hi", ENDPOINT_WINDOWS)
def test_the_node_walk_equals_the_cell_walk(budgets, lo, hi):
    def data(c):
        return c.address, c.slope, c.intercept, c.lo, c.hi

    got = [(as_cell_data(node), fan if fan is None else [as_cell_data(f) for f in fan])
           for node, fan in _walk(budgets, lo, hi)]
    expected = [(data(c), fan if fan is None else [data(f) for f in fan])
                for c, fan in reference_cell_walk(budgets, lo, hi)]
    assert got == expected
    assert all(type(x) is int for node, _ in _walk(budgets, lo, hi) for x in node[1:])


@pytest.mark.parametrize("lo, hi", ENDPOINT_WINDOWS)
def test_the_cell_listings_equal_the_cell_walk(lo, hi):
    for k, budget in [(1, 0), (1, 6), (2, 3), (3, 2)]:
        expected = [c for c, fan in reference_cell_walk((budget,) * k, lo, hi)
                    if c.level and fan is not None]
        assert list(iter_cells(k, budget, (lo, hi))) == expected
        ends = endpoints_off_the_cell_walk((budget,) * k, lo, hi)
        assert e_points(k + 1, (lo, hi), budget) == [(x, m) for x, m in ends if lo <= x <= hi]
    assert list(tapered_endpoints(6, 50)) == endpoints_off_the_cell_walk(
        ENDPOINT_BUDGETS[-1], ROOT.lo, ROOT.hi
    )


@pytest.mark.parametrize("budgets", ENDPOINT_BUDGETS)
@pytest.mark.parametrize("lo, hi", ENDPOINT_WINDOWS)
def test_integer_endpoint_walk_equals_the_cell_walk(budgets, lo, hi):
    got = list(_endpoints(budgets, lo, hi))
    assert got == endpoints_off_the_cell_walk(budgets, lo, hi)
    xs = [x for x, _ in got]
    assert xs == sorted(set(xs))
    # the window is closed: an endpoint on its edge is kept with its subtree
    listed = dict(_endpoints(budgets))
    for edge in (lo, hi):
        if edge in listed:
            assert (edge, listed[edge]) in got


def test_the_endpoint_windows_have_listed_edges():
    listed = dict(_endpoints((3, 2, 1)))
    edges = [x for window in ENDPOINT_WINDOWS[3:] for x in window]
    assert [listed[x] for x in edges] == [3, 3, 2, 2, 1, 3, 2, 2]


def test_iter_cells_prunes_outside_the_closed_window():
    window = (F(1, 4), F(1, 3))
    kept = list(iter_cells(3, 4, window))
    full = list(iter_cells(3, 4))
    assert kept == [c for c in full if c.hi >= window[0] and c.lo <= window[1]]
    assert 0 < len(kept) < len(full)


def test_iter_cells_refuses_too_large_family_before_building():
    assert 3**11 <= MAX_CELLS < 3**12
    list(iter_cells(11, 1, (F(0), F(0))))
    with pytest.raises(DomainError, match="too large"):
        next(iter_cells(12, 1))
    with pytest.raises(DomainError):
        next(iter_cells(0, 1))
    with pytest.raises(DomainError):
        next(iter_cells(1, -1))


@pytest.mark.parametrize(
    "window", [(F(1), F(0)), (F(2), F(3)), (F(-3, 2), F(0)), (F(0), F(5, 4))]
)
def test_iter_cells_refuses_a_bad_window_before_building(window):
    with pytest.raises(DomainError, match="window"):
        next(iter_cells(1, 0, window))


def test_first_level_of_classifies():
    assert first_level_of(F(1), 5) == 1
    assert first_level_of(F(1, 2), 5) == 2
    assert first_level_of(F(7, 10), 10) == 5
    assert first_level_of(F(0), 5) is None  # absorbed at 0: not an endpoint
    assert first_level_of(F(1, 7), 50) is None  # cycles forever


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_cell_rejects_empty_address():
    with pytest.raises(DomainError):
        cell(())


def test_cell_rejects_a_non_int_id():
    with pytest.raises(DomainError, match=r"address entries must be ints, got \(0, True\)"):
        cell((0, True))


def test_locate_rejects_bad_level():
    with pytest.raises(DomainError):
        locate(F(1, 3), 0)


def test_children_rejects_negative_budget():
    with pytest.raises(DomainError):
        children((0,), -1)
