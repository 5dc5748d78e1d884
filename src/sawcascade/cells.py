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

Everything here is exact: endpoints are rationals, and all geometric
predicates (containment, adjacency, tiling) are exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from sawcascade.construction import (
    DomainError,
    Rat,
    RatLike,
    as_rational,
    orbit,
    require_at_least,
    require_unit_interval,
)

#: Signed index of a level-1 cell; 0 is the middle ramp, +-j are the teeth.
Level1Id = int

#: Non-empty sequence of signed level-1 ids, leftmost applied first.
Address = tuple[int, ...]


@dataclass(frozen=True)
class AffineMap:
    """Exact affine map x -> scale * x + offset."""

    scale: Rat
    offset: Rat

    def __call__(self, x: RatLike) -> Rat:
        return self.scale * as_rational(x) + self.offset


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


def validate_address(address: Sequence[int]) -> Address:
    if len(address) == 0:
        raise DomainError("address must be a non-empty sequence of ids")
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in address):
        raise DomainError(f"address entries must be ints, got {tuple(address)!r}")
    return tuple(address)


# ---------------------------------------------------------------------------
# level-1 cells
# ---------------------------------------------------------------------------


def tooth_slope(j: Level1Id) -> int:
    """Slope of the base map on the level-1 cell with signed id j.

    2 on the middle ramp (id 0); (-1)^(n+1) 2n(n+1) on tooth n = |j| + 1,
    the same for both mirror images because the map is odd.
    """
    if j == 0:
        return 2
    n = abs(j) + 1
    return 2 * n * (n + 1) if n % 2 else -2 * n * (n + 1)


def tooth_intercept(j: Level1Id) -> int:
    """Intercept of the base map on the level-1 cell with signed id j: 0 on
    the middle ramp, (-1)^n - s (n-1)/n = (-1)^n (2n^2 - 1) on tooth n = j + 1
    (value (-1)^n at 1 - 1/n, slope s), negated on its mirror -j."""
    if j == 0:
        return 0
    n = abs(j) + 1
    c = 2 * n * n - 1 if n % 2 == 0 else 1 - 2 * n * n
    return c if j > 0 else -c


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
    if p < 0:
        return [-j for j in reversed(level1_ids_of(-p, q))]
    ids = [0] if 2 * p <= q else []
    if q <= 2 * p < 2 * q:
        n = q // (q - p)  # tooth n holds [1 - 1/n, 1 - 1/(n+1))
        if n >= 3 and n * p == (n - 1) * q:
            ids.append(n - 2)
        ids.append(n - 1)
    return ids


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
    s = tooth_slope(j)
    slope, intercept = s * parent.slope, s * parent.intercept + tooth_intercept(j)
    size, c = (slope, intercept) if slope > 0 else (-slope, -intercept)
    lo, hi = Fraction(-1 - c, size), Fraction(1 - c, size)
    return Cell(parent.address + (j,), lo, hi, slope, intercept)


def cell(address: Sequence[int]) -> Cell:
    """The cell for an address, built by composing pullbacks left to right."""
    address = validate_address(address)
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
    """Refuse a level-k cell family with ids |j| <= index_budget that holds
    more than MAX_CELLS cells."""
    if (2 * index_budget + 1) ** k > MAX_CELLS:
        raise DomainError(
            f"enumerating (2*{index_budget}+1)^{k} cells is too large "
            f"(limit {MAX_CELLS}); narrow the budget or the level"
        )


def iter_cells(
    k: int,
    index_budget: int,
    window: Optional[tuple[Rat, Rat]] = None,
) -> Iterator[Cell]:
    """Every cell of levels 1..k with all ids |j| <= index_budget.

    Yields level by level; within a level, cells come in address order
    (parent first, then child id ascending).  Cells disjoint from the closed
    window are pruned with their whole subtree, since children stay inside
    their parent.  Refuses, before building any cell, a window that is not
    a sub-interval lo <= hi of [-1, 1] and a level-k family larger than
    MAX_CELLS.
    """
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 0, "index budget")
    if window is not None:
        lo, hi = _checked_window(window)
    require_family_size(k, index_budget)
    ids = range(-index_budget, index_budget + 1)
    level = [ROOT]
    for _ in range(k):
        level = [child_cell(parent, j) for parent in level for j in ids]
        if window is not None:
            level = [c for c in level if c.hi >= lo and c.lo <= hi]
        yield from level


def children(address: Sequence[int], index_budget: int) -> list[Cell]:
    """All children of a cell with child id magnitude <= index_budget.

    Returned in spatial (left to right) order.  The fan accumulates at both
    parent endpoints and covers all of the parent except two shortfalls of
    exact total length parent.length / (index_budget + 2).
    """
    require_at_least(index_budget, 0, "index budget")
    parent = cell(address)
    kids = [child_cell(parent, j) for j in range(-index_budget, index_budget + 1)]
    kids.sort(key=lambda c: c.lo)
    return kids


def child_map(parent: Cell) -> AffineMap:
    """The orientation-preserving affine bijection [-1, 1] -> parent interval.

    Conjugating by these maps sends the level-1 family onto any cell's child
    family: the cascade is self-similar, cell by cell.
    """
    return AffineMap(scale=Fraction(1, abs(parent.slope)), offset=parent.midpoint)


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
        branches = [
            (prefix + (j,), tooth_slope(j) * p + tooth_intercept(j) * q)
            for prefix, p in branches
            for j in level1_ids_of(p, q)
        ]
    return sorted(prefix for prefix, _ in branches)


# ---------------------------------------------------------------------------
# endpoint enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EPoint:
    """A cell endpoint together with the first level whose iterate hits +-1.

    first_level m + 1 marks endpoints of level-m cells; the domain endpoints
    +-1 carry first_level 1.  At such a point every deeper iterate vanishes,
    so the series value is exactly the (first_level - 1)-term partial sum.
    """

    x: Rat
    first_level: int


def e_points(
    k: int, window: tuple[RatLike, RatLike], index_budget: int
) -> list[EPoint]:
    """All enumerable points of first_level <= k inside the closed window.

    Enumerates endpoints of cells of level < k whose per-coordinate ids stay
    within index_budget, plus +-1.  Cells disjoint from the window are pruned
    (children stay inside their parent, so nothing is missed).
    """
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 0, "index budget")
    wlo, whi = _checked_window(window)

    found = {x: 1 for x in (Fraction(-1), Fraction(1)) if wlo <= x <= whi}
    if k >= 2:
        for c in iter_cells(k - 1, index_budget, (wlo, whi)):
            for x in (c.lo, c.hi):
                if wlo <= x <= whi and x not in found:
                    found[x] = c.level + 1

    return [EPoint(x, fl) for x, fl in sorted(found.items())]


def first_level_of(x: RatLike, depth: int) -> Optional[int]:
    """The first_level of x if x is an enumerable endpoint, else None.

    Equals 1 + (first step whose iterate is +-1).  Capped by ``depth``:
    None also covers orbits that neither hit +-1 nor settle within depth,
    but denominators never grow along an orbit, so for x = p/q a depth of
    q + 1 steps is always conclusive.
    """
    return orbit(x, depth).first_level
