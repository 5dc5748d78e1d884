"""Linearity cells of the iterated sawtooth, addressed by signed tooth ids.

The k-th iterate of the base map is affine exactly on a countable family of
closed cells.  A level-1 cell is a tooth of the base map: id 0 is the middle
ramp [-1/2, 1/2], id j >= 1 is the tooth [1 - 1/(j+1), 1 - 1/(j+2)] on the
positive side, and id -j is its mirror image.  A level-k cell is addressed
by a sequence (j_1, ..., j_k): it is the preimage, inside the level-1 cell
j_1, of the level-(k-1) cell (j_2, ..., j_k) under the base map.  On each
cell the k-th iterate is affine and maps the cell onto [-1, 1], hitting -1
and +1 at the two endpoints.

Every tooth's intercept is an integer, so a cell stores its iterate as
S x + C with integers S and C: a child is two integer multiply-adds away
from its parent, and its bounds (-+1 - C)/S are the only rationals built.
``locate`` follows every cell holding x on integer numerators; the leftmost
chain (the first id ``level1_ids_of`` lists at each step) is the one a
``construction.orbit`` record keeps, as its tooth slopes.

Every bulk listing reads one walk of the cell tree, ``_walk``, depth first
in spatial order: a cell with its fan of children, then each child left to
right, followed by its subtree; so the structure scan checks each fan as the
walk builds it.  The walk is on integers: a node is (address, S, C, lo, hi),
the cell [lo/|S|, hi/|S|], and it builds no Cell and no Fraction.  A cell's
endpoints enclose its subtree's, so the same walk also gives the cell
endpoints in ascending x (``_endpoints``, one Fraction per endpoint), and
``iter_cells`` builds a Cell only for a node it yields; a caller that keeps
some of those cells filters ``_cell_nodes`` first and builds only its own.

Everything here is exact: endpoints are rationals, and all geometric
predicates (containment, adjacency, tiling) are exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from sawcascade.construction import (
    DomainError,
    Rat,
    RatLike,
    as_rational,
    orbit,
    require_at_least,
    require_layer_index,
    require_unit_interval,
)

#: Signed index of a level-1 cell; 0 is the middle ramp, +-j are the teeth.
Level1Id = int

#: Non-empty sequence of signed level-1 ids, leftmost applied first.
Address = tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """A maximal closed interval on which a given iterate is affine.

    The iterate is S x + C on it, with integers S = ``slope`` (a product of
    ``level`` tooth slopes, so the length 2/|S| is at most 2^(1-level)) and
    C = ``intercept``; the bounds lo < hi are (-1 - C)/S and (1 - C)/S.
    """

    address: Address
    lo: Rat
    hi: Rat
    slope: int
    intercept: int

    @property
    def level(self) -> int:
        return len(self.address)

    @property
    def length(self) -> Rat:
        return Fraction(2, abs(self.slope))

    @property
    def midpoint(self) -> Rat:
        return Fraction(-self.intercept, self.slope)

    def value_at(self, x: RatLike) -> Rat:
        """The iterate's value at x, valid for x inside the cell."""
        return self.slope * as_rational(x) + self.intercept

    def contains(self, x: RatLike) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi


#: Level-0 pseudo-cell: the identity on the whole domain.  Used as the parent
#: of the level-1 family and as the one-sided fan anchor at the endpoints +-1.
ROOT = Cell(address=(), lo=Fraction(-1), hi=Fraction(1), slope=1, intercept=0)


# ---------------------------------------------------------------------------
# level-1 cells
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def tooth(j: Level1Id) -> tuple[int, int]:
    """Slope and intercept of the base map on the level-1 cell with signed id j.

    2 and 0 on the middle ramp (id 0).  On tooth n = |j| + 1 the slope is
    s = (-1)^(n+1) 2n(n+1), the same for both mirror images because the map
    is odd, and the intercept (-1)^n - s (n-1)/n = (-1)^n (2n^2 - 1) (value
    (-1)^n at 1 - 1/n), negated on the mirror -j.
    """
    if j == 0:
        return 2, 0
    n = abs(j) + 1
    s, c = (2 * n * (n + 1), 1 - 2 * n * n) if n % 2 else (-2 * n * (n + 1), 2 * n * n - 1)
    return s, (c if j > 0 else -c)


@lru_cache(maxsize=4096)
def level1_cell(j: Level1Id) -> Cell:
    """The level-1 cell with signed id j, carrying the base map's affine data.

    id 0: [-1/2, 1/2], slope 2, intercept 0.  id j >= 1 is tooth n = j + 1:
    [1 - 1/n, 1 - 1/(n+1)] with slope (-1)^(n+1) * 2n(n+1) and value (-1)^n
    at the left endpoint.  Negative ids mirror: interval reflected, same
    slope, negated intercept.
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise DomainError(f"level-1 id must be an int, got {j!r}")
    return child_cell(ROOT, j)


def level1_ids_of(p: int, q: int) -> list[Level1Id]:
    """Ids of every level-1 cell containing p/q, for q >= 1 and |p| <= q, in
    ascending order: level1_ids_at on integers, p/q not necessarily in lowest
    terms.  Two ids exactly at a shared tooth endpoint (n-1)/n, none at +-1.
    """
    r = -p if p < 0 else p  # the ids at -r/q mirror those at r/q
    ids = [0] if 2 * r <= q else []
    if q <= 2 * r < 2 * q:
        n = q // (q - r)  # tooth n holds [1 - 1/n, 1 - 1/(n+1))
        if n >= 3 and n * r == (n - 1) * q:
            ids.append(n - 2)
        ids.append(n - 1)
    return ids if p >= 0 else [-j for j in reversed(ids)]


def level1_ids_at(x: RatLike) -> list[Level1Id]:
    """Ids of every level-1 cell containing x (closed cells: 0, 1 or 2 ids).

    Two ids exactly at a shared tooth endpoint; none at x = +-1, where the
    teeth only accumulate.
    """
    x = require_unit_interval(as_rational(x))
    return level1_ids_of(x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# deeper cells via exact pullback
# ---------------------------------------------------------------------------


def child_cell(parent: Cell, j: Level1Id) -> Cell:
    """The sub-cell of ``parent`` on which the next iterate stays affine.

    Geometrically: the preimage, under the parent's affine map S x + C, of
    the level-1 cell with id j.  The next iterate there is the tooth map
    s y + c composed with the parent's map: (s S) x + (s C + c), whose
    solutions of -+1 are the child's bounds.
    """
    s, c = tooth(j)
    slope, intercept = s * parent.slope, s * parent.intercept + c
    u = -intercept if slope > 0 else intercept
    return _cell((parent.address + (j,), slope, intercept, u - 1, u + 1))


#: A cell of the walk on integers: (address, S, C, lo, hi), the iterate S x + C
#: on [lo/n, hi/n], n = |S|, with lo, hi = u -+ 1 for u = -C sign(S).
Node = tuple[Address, int, int, int, int]


def _cell(node: Node) -> Cell:
    """The Cell of a node, its two bounds the only rationals built."""
    address, S, C, lo, hi = node
    n = S if S > 0 else -S
    return Cell(address, Fraction(lo, n), Fraction(hi, n), S, C)


def cell(address: Sequence[int]) -> Cell:
    """The cell for an address, built by composing pullbacks left to right."""
    if len(address) == 0:
        raise DomainError("address must be a non-empty sequence of ids")
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in address):
        raise DomainError(f"address entries must be ints, got {tuple(address)!r}")
    current = ROOT
    for j in address:
        current = child_cell(current, j)
    return current


#: Largest level-k family (2 * index_budget + 1)^k that iter_cells enumerates.
MAX_CELLS = 500_000


def _checked_window(window: tuple[RatLike, RatLike]) -> tuple[Rat, Rat]:
    """The window as exact rationals, checked to be a sub-interval of [-1, 1]."""
    lo = require_unit_interval(as_rational(window[0]), "window lo")
    hi = require_unit_interval(as_rational(window[1]), "window hi")
    if lo > hi:
        raise DomainError(f"window must satisfy lo <= hi, got [{lo}, {hi}]")
    return lo, hi


def require_family_size(k: int, index_budget: int) -> None:
    """Refuse a level k above MAX_LAYER_INDEX, and a level-k cell family
    with ids |j| <= index_budget that holds more than MAX_CELLS cells.

    The family's size is multiplied up level by level and the count stops
    at the first level past MAX_CELLS, so no large power is formed.
    """
    require_layer_index("level k", k)
    size = 1
    for _ in range(k):
        size *= 2 * index_budget + 1
        if size > MAX_CELLS:
            raise DomainError(
                f"enumerating (2*{index_budget}+1)^{k} cells is too large "
                f"(limit {MAX_CELLS}); narrow the budget or the level"
            )


def iter_cells(
    k: int,
    index_budget: int,
    window: Optional[tuple[Rat, Rat]] = None,
) -> Iterator[Cell]:
    """Every cell of levels 1..k with all ids |j| <= index_budget, depth
    first in spatial order, so each level's cells come in ascending x.

    Cells disjoint from the closed window are pruned with their subtree,
    since children stay inside their parent.  Refuses at the call, before
    building any cell, a window that is not a sub-interval lo <= hi of
    [-1, 1], a level k above MAX_LAYER_INDEX and a level-k family larger
    than MAX_CELLS.
    """
    return (_cell(node) for node in _cell_nodes(k, index_budget, window))


def _cell_nodes(
    k: int, index_budget: int, window: Optional[tuple[Rat, Rat]] = None
) -> Iterator[Node]:
    """The node of each cell ``iter_cells`` lists, in its order, refused at
    the call as it refuses; a caller that keeps some cells builds only those."""
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 0, "index budget")
    lo, hi = _checked_window(window or (ROOT.lo, ROOT.hi))
    require_family_size(k, index_budget)
    nodes = _walk((index_budget,) * k, lo, hi)
    return (node for node, fan in nodes if fan is not None and node[0])


def _walk(
    budgets: tuple[int, ...], lo: Rat, hi: Rat
) -> Iterator[tuple[Node, Optional[list[Node]]]]:
    """(node, fan) on entering and (node, None) on leaving each cell, depth
    first in spatial order from ROOT, of the level-m cells whose ids are all
    within budgets[m - 1] (non-increasing in m) and that meet [lo, hi]; fan
    lists the children the walk then enters, left to right (ids ascending
    under S > 0, descending under S < 0), [] at the last level.  A child is
    (s S, s C + t) for tooth(j) = (s, t), the window is tested by
    cross-multiplying, and no Cell and no Fraction is built.  A loop over a
    stack that holds at most one fan per level."""
    windowed = lo > ROOT.lo or hi < ROOT.hi  # else every cell meets [lo, hi]
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    stack = [(((), 1, 0, -1, 1), 0)]  # ROOT, and the largest |id| of an address, None to leave
    while stack:
        node, top = stack.pop()
        fan = None
        if top is not None:
            stack.append((node, None))
            address, S, C, _lo, _hi = node
            m, fan = len(address), []
            if m < len(budgets) and top <= budgets[m]:
                b_m = budgets[m]  # the fan, built and pushed right to left
                for j in range(b_m, -b_m - 1, -1) if S > 0 else range(-b_m, b_m + 1):
                    s, t = tooth(j)
                    S_j, C_j = s * S, s * C + t
                    n, u = (S_j, -C_j) if S_j > 0 else (-S_j, C_j)
                    if windowed and ((u + 1) * b < a * n or (u - 1) * d > c * n):
                        continue  # hi < lo or lo > hi
                    child = (address + (j,), S_j, C_j, u - 1, u + 1)
                    fan.append(child)
                    stack.append((child, max(top, j, -j)))
                fan.reverse()
        yield node, fan


def _endpoints(
    budgets: tuple[int, ...], lo: Rat = ROOT.lo, hi: Rat = ROOT.hi
) -> Iterator[tuple[Rat, int]]:
    """(x, first_level) for the endpoints of the cells ``_walk`` yields, in
    ascending x, each once; a level-m cell's carry m + 1, ROOT's (+-1) 1.

    A cell's lo comes on entering it, its hi on leaving, after its subtree's
    (strictly inside it); the previous child's hi is the next child's lo,
    told apart by cross-multiplying, so one Fraction per endpoint is built."""
    last, last_n = 1, 0  # the previous endpoint, last / last_n
    for (address, S, _C, u_lo, u_hi), fan in _walk(budgets, lo, hi):
        n = S if S > 0 else -S
        u = u_hi if fan is None else u_lo
        if u * last_n != last * n:
            yield Fraction(u, n), len(address) + 1
        last, last_n = u, n


def children(address: Sequence[int], index_budget: int) -> list[Cell]:
    """All children of a cell with child id magnitude <= index_budget.

    Returned in spatial (left to right) order.  The fan accumulates at both
    parent endpoints and covers all of the parent except two shortfalls of
    exact total length parent.length / (index_budget + 2).
    """
    require_at_least(index_budget, 0, "index budget")
    parent, ids = cell(address), range(-index_budget, index_budget + 1)
    return [child_cell(parent, j) for j in (ids if parent.slope > 0 else reversed(ids))]


def child_map(parent: Cell) -> Callable[[RatLike], Rat]:
    """The orientation-preserving affine bijection [-1, 1] -> parent interval,
    x -> x / |S| + midpoint, as a function of x.

    Conjugating by these maps sends the level-1 family onto any cell's child
    family: the cascade is self-similar, cell by cell.
    """
    scale, offset = Fraction(1, abs(parent.slope)), parent.midpoint
    return lambda x: scale * as_rational(x) + offset


# ---------------------------------------------------------------------------
# locating points
# ---------------------------------------------------------------------------


def locate(x: RatLike, k: int) -> list[Address]:
    """Addresses of every level-k cell containing x (0, 1 or 2 of them).

    Empty exactly when some earlier iterate of x hits +-1 (the teeth only
    accumulate there) or |x| = 1.  Two addresses exactly when x is a shared
    endpoint of adjacent level-k cells.
    """
    x = require_unit_interval(as_rational(x))
    require_at_least(k, 1, "level k")
    q = x.denominator
    # each branch walks the numerator p of its iterate over q: p -> s p + c q
    branches: list[tuple[Address, int]] = [((), x.numerator)]
    for _ in range(k):
        grown = []
        for prefix, p in branches:
            for j in level1_ids_of(p, q):
                s, c = tooth(j)
                grown.append((prefix + (j,), s * p + c * q))
        branches = grown
    return sorted(prefix for prefix, _ in branches)


# ---------------------------------------------------------------------------
# endpoint enumeration
# ---------------------------------------------------------------------------


def e_points(
    k: int, window: tuple[RatLike, RatLike], index_budget: int
) -> list[tuple[Rat, int]]:
    """All enumerable points of first_level <= k inside the closed window,
    as (x, first_level) pairs in ascending x.

    first_level is 1 + the first step whose iterate of x is +-1: m + 1
    marks endpoints of level-m cells, and the domain endpoints +-1 carry 1.
    At such a point every deeper iterate vanishes, so the series value is
    exactly the (first_level - 1)-term partial sum.

    Enumerates endpoints of cells of level < k whose per-coordinate ids stay
    within index_budget, plus +-1.  Cells disjoint from the window are pruned
    (children stay inside their parent, so nothing is missed).
    """
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 0, "index budget")
    wlo, whi = _checked_window(window)
    require_family_size(k - 1, index_budget)
    ends = _endpoints((index_budget,) * (k - 1), wlo, whi)
    return [(x, first_level) for x, first_level in ends if wlo <= x <= whi]


def first_level_of(x: RatLike, depth: int) -> Optional[int]:
    """The first_level of x if x is an enumerable endpoint, else None.

    Equals 1 + (first step whose iterate is +-1).  Capped by ``depth``:
    None also covers orbits that neither hit +-1 nor settle within depth,
    but denominators never grow along an orbit, so for x = p/q a depth of
    q + 1 steps is always conclusive.
    """
    return orbit(x, depth).first_level
