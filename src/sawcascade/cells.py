"""Linearity cells of the iterated sawtooth, addressed by signed tooth ids.

The k-th iterate of the base map is affine exactly on a countable family of
closed cells.  A level-1 cell is a tooth of the base map: id 0 is the middle
ramp [-1/2, 1/2], id j >= 1 is the tooth [1 - 1/(j+1), 1 - 1/(j+2)] on the
positive side, and id -j is its mirror image.  A level-k cell is addressed
by a sequence (j_1, ..., j_k): it is the preimage, inside the level-1 cell
j_1, of the level-(k-1) cell (j_2, ..., j_k) under the base map.  On each
cell the k-th iterate is affine and maps the cell onto [-1, 1], hitting -1
and +1 at the two endpoints.

Everything here is exact: endpoints, slopes and intercepts are rationals,
and all geometric predicates (containment, adjacency, tiling) are decided
with exact comparisons.
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
    require_unit_interval,
    tooth_index,
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

    def preimage(self, y: RatLike) -> Rat:
        if self.scale == 0:
            raise ZeroDivisionError("constant map has no well-defined preimage")
        return (as_rational(y) - self.offset) / self.scale


@dataclass(frozen=True)
class Cell:
    """A maximal closed interval on which a given iterate is affine.

    Invariants (all exact): lo < hi, the affine map slope*x + intercept
    sends {lo, hi} onto {-1, +1}, and the length is at most 2^(1-level).
    """

    address: Address
    lo: Rat
    hi: Rat
    slope: Rat
    intercept: Rat

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"degenerate cell bounds [{self.lo}, {self.hi}]")

    @property
    def level(self) -> int:
        return len(self.address)

    @property
    def length(self) -> Rat:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2

    def value_at(self, x: RatLike) -> Rat:
        """The iterate's value at x, valid for x inside the cell."""
        return self.slope * as_rational(x) + self.intercept

    def contains(self, x: RatLike) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi

    def strictly_inside(self, lo: RatLike, hi: RatLike) -> bool:
        return as_rational(lo) < self.lo and self.hi < as_rational(hi)


#: Level-0 pseudo-cell: the identity on the whole domain.  Used as the parent
#: of the level-1 family and as the one-sided fan anchor at the endpoints +-1.
ROOT = Cell(address=(), lo=Fraction(-1), hi=Fraction(1), slope=Fraction(1), intercept=Fraction(0))


def validate_address(address: Sequence[int]) -> Address:
    if len(address) == 0:
        raise DomainError("address must be a non-empty sequence of ids")
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in address):
        raise DomainError(f"address entries must be ints, got {tuple(address)!r}")
    return tuple(address)


# ---------------------------------------------------------------------------
# level-1 cells
# ---------------------------------------------------------------------------


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
    if j == 0:
        return Cell((0,), Fraction(-1, 2), Fraction(1, 2), Fraction(2), Fraction(0))
    n = abs(j) + 1
    lo = 1 - Fraction(1, n)
    hi = 1 - Fraction(1, n + 1)
    slope = Fraction(2 * n * (n + 1))
    if n % 2 == 0:
        slope = -slope
    intercept = Fraction((-1) ** n) - slope * lo
    if j > 0:
        return Cell((j,), lo, hi, slope, intercept)
    return Cell((j,), -hi, -lo, slope, -intercept)


def level1_ids_at(x: RatLike) -> list[Level1Id]:
    """Ids of every level-1 cell containing x (closed cells: 0, 1 or 2 ids).

    Two ids exactly at a shared tooth endpoint; none at x = +-1, where the
    teeth only accumulate.
    """
    x = require_unit_interval(as_rational(x))
    if x < 0:
        return sorted(-j for j in level1_ids_at(-x))
    ids: set[int] = set()
    if x <= Fraction(1, 2):
        ids.add(0)
    if Fraction(1, 2) <= x < 1:
        n = tooth_index(x)
        ids.add(n - 1)
        if n >= 3 and x == 1 - Fraction(1, n):
            ids.add(n - 2)
    return sorted(ids)


# ---------------------------------------------------------------------------
# deeper cells via exact pullback
# ---------------------------------------------------------------------------


def child_cell(parent: Cell, j: Level1Id) -> Cell:
    """The sub-cell of ``parent`` on which the next iterate stays affine.

    Geometrically: the preimage, under the parent's affine map, of the
    level-1 cell with id j.  The next iterate there is the base map's tooth
    map composed with the parent's map, which is again affine.
    """
    tooth = level1_cell(j)
    a = (tooth.lo - parent.intercept) / parent.slope
    b = (tooth.hi - parent.intercept) / parent.slope
    lo, hi = (a, b) if a <= b else (b, a)
    return Cell(
        address=parent.address + (j,),
        lo=lo,
        hi=hi,
        slope=tooth.slope * parent.slope,
        intercept=tooth.slope * parent.intercept + tooth.intercept,
    )


def cell(address: Sequence[int]) -> Cell:
    """The cell for an address, built by composing pullbacks left to right."""
    address = validate_address(address)
    current = ROOT
    for j in address:
        current = child_cell(current, j)
    return current


#: Largest level-k family (2 * index_budget + 1)^k that iter_cells enumerates.
MAX_CELLS = 500_000


def iter_cells(
    k: int,
    index_budget: int,
    window: Optional[tuple[Rat, Rat]] = None,
) -> Iterator[Cell]:
    """Every cell of levels 1..k with all ids |j| <= index_budget.

    Yields level by level; within a level, cells come in address order
    (parent first, then child id ascending).  Cells disjoint from the closed
    window are pruned with their whole subtree, since children stay inside
    their parent.  Refuses, before building any cell, a level-k family
    larger than MAX_CELLS.
    """
    if k < 1:
        raise DomainError(f"level k must be >= 1, got {k}")
    if index_budget < 0:
        raise DomainError(f"index budget must be >= 0, got {index_budget}")
    if (2 * index_budget + 1) ** k > MAX_CELLS:
        raise DomainError(
            f"enumerating (2*{index_budget}+1)^{k} cells is too large "
            f"(limit {MAX_CELLS}); narrow the budget or the level"
        )
    lo, hi = (Fraction(-1), Fraction(1)) if window is None else window
    ids = range(-index_budget, index_budget + 1)
    level = [ROOT]
    for _ in range(k):
        level = [
            c
            for parent in level
            for c in (child_cell(parent, j) for j in ids)
            if c.hi >= lo and c.lo <= hi
        ]
        yield from level


def children(address: Sequence[int], index_budget: int) -> list[Cell]:
    """All children of a cell with child id magnitude <= index_budget.

    Returned in spatial (left to right) order.  The fan accumulates at both
    parent endpoints and covers all of the parent except two shortfalls of
    exact total length parent.length / (index_budget + 2).
    """
    if index_budget < 0:
        raise DomainError(f"index budget must be >= 0, got {index_budget}")
    parent = cell(address)
    kids = [child_cell(parent, j) for j in range(-index_budget, index_budget + 1)]
    kids.sort(key=lambda c: c.lo)
    return kids


def child_map(parent: Cell) -> AffineMap:
    """The orientation-preserving affine bijection [-1, 1] -> parent interval.

    Conjugating by these maps sends the level-1 family onto any cell's child
    family: the cascade is self-similar, cell by cell.
    """
    return AffineMap(scale=(parent.hi - parent.lo) / 2, offset=(parent.hi + parent.lo) / 2)


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
    if k < 1:
        raise DomainError(f"level k must be >= 1, got {k}")
    results: list[Address] = []

    def descend(prefix: tuple[int, ...], y: Rat, remaining: int) -> None:
        if remaining == 0:
            results.append(prefix)
            return
        for j in level1_ids_at(y):
            branch = level1_cell(j)
            descend(prefix + (j,), branch.value_at(y), remaining - 1)

    descend((), x, k)
    return sorted(results)


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
    if k < 1:
        raise DomainError(f"level k must be >= 1, got {k}")
    if index_budget < 0:
        raise DomainError(f"index budget must be >= 0, got {index_budget}")
    wlo = require_unit_interval(as_rational(window[0]), "window lo")
    whi = require_unit_interval(as_rational(window[1]), "window hi")
    if wlo > whi:
        raise DomainError(f"window must satisfy lo <= hi, got [{wlo}, {whi}]")

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
