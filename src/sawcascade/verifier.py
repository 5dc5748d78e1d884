"""Constructive witnesses for the pathologies of the cascade series.

Every routine here *finds* concrete rational points and then *certifies*
the claimed behavior with exact comparisons only.  The searches exploit the
cell structure: endpoints of level-k cells have exactly known series values
(their orbits absorb), and around any such endpoint the level-(k+1) cell
fan supplies points whose series values overshoot and undershoot by almost
the full weight 2^-k of the k-th layer, beating the margin 2^-(k+1).

For points whose deeper layers coincide (equal (k+1)-th iterates), series
differences collapse to differences of k-term partial sums, which is what
makes the interior non-extremum certificate exact despite the series being
infinite.

A search that runs out of budget or depth returns a failure report with the
reason attached; it never silently passes and never weakens a margin.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Optional, Sequence

from sawcascade.antiderivative import enclose_integral, eval_Fk
from sawcascade.cells import (
    ROOT,
    Cell,
    cell,
    child_cell,
    child_map,
    iter_cells,
    level1_cell,
    level1_ids_at,
    locate,
)
from sawcascade.construction import (
    DomainError,
    OrbitInfo,
    Rat,
    RatLike,
    as_rational,
    eval_fk,
    orbit,
    partial_sum,
    require_unit_interval,
)
from sawcascade.reports import Check, WitnessReport, check, make_report

ZERO = Fraction(0)

DEFAULT_DEPTH = 40
DEFAULT_FAN_BUDGET = 64


class NotAnEPointError(DomainError):
    """The point is not an enumerable cell endpoint, so the oscillation
    certificate (which needs an exactly known center value) does not apply."""


def _require_positive_delta(delta: Rat) -> Rat:
    if delta <= 0:
        raise DomainError(f"window radius delta must be > 0, got {delta}")
    return delta


# ---------------------------------------------------------------------------
# fan scan around an exactly-known endpoint
# ---------------------------------------------------------------------------


def _side_cells(x0: Rat, first_level: int) -> list[Cell]:
    """The cells of level first_level - 1 that have x0 as an endpoint.

    For first_level 1 (x0 = +-1) the level-0 root stands in: the fan of
    level-1 teeth accumulates at both domain ends.  Otherwise locate at
    level first_level - 1 returns exactly the one or two abutting cells.
    """
    if first_level == 1:
        return [ROOT]
    return [cell(a) for a in locate(x0, first_level - 1)]


def _fan_scan(
    side: Cell, x0: Rat, fx0: Rat, delta: Rat, fan_budget: int
) -> tuple[Optional[tuple[Rat, Rat]], Optional[tuple[Rat, Rat]]]:
    """Scan the child fan of ``side`` accumulating at its endpoint x0.

    Children are preimages of the level-1 teeth; the teeth with ids of the
    sign of the endpoint's value accumulate at x0.  Scanning starts at the
    first index whose child can fit in the delta window (computed from the
    side's slope) and walks at most ``fan_budget`` children.  Each child
    endpoint y carries the exact series value partial_sum(y, k) where
    k = side.level + 1; given fx0 = f(x0), the scan returns the first
    endpoint whose value exceeds fx0 + 2^-(k+1) and the first below fx0 - 2^-(k+1).

    Returns (above, below); either witness slot may be None if the budget
    ran out first.
    """
    k = side.level + 1
    margin = Fraction(1, 2 ** (k + 1))
    v0 = side.value_at(x0)
    if abs(v0) != 1:
        raise DomainError(f"{x0} is not an endpoint of the given level-{side.level} cell")
    toward = 1 if v0 == 1 else -1
    entry = Fraction(1) / (delta * abs(side.slope))
    m = max(1, floor(entry))
    above: Optional[tuple[Rat, Rat]] = None
    below: Optional[tuple[Rat, Rat]] = None
    for _ in range(fan_budget):
        kid = child_cell(side, toward * m)
        for y in (kid.lo, kid.hi):
            if y == x0 or abs(y - x0) >= delta:
                continue
            fy = partial_sum(y, k)
            if above is None and fy - fx0 > margin:
                above = (y, fy)
            if below is None and fx0 - fy > margin:
                below = (y, fy)
        if above is not None and below is not None:
            break
        m += 1
    return above, below


def _witness_checks(
    tag: str, x0: Rat, point: tuple[Rat, Rat], fx0: Rat, margin: Rat,
    delta: Rat, k: int, above: bool,
) -> list[Check]:
    y, fy = point
    rel = (">", fy, fx0 + margin) if above else ("<", fy, fx0 - margin)
    return [
        check(f"{tag}_beats_margin", rel[0], rel[1], rel[2]),
        check(f"{tag}_inside_window", "<", abs(y - x0), delta),
        check(f"{tag}_distinct", ">", abs(y - x0), 0),
        check(f"{tag}_hits_unit", "==", abs(eval_fk(y, k)), 1),
    ]


def _endpoint_fan_report(
    kind: str, info: OrbitInfo, delta: Rat, fan_budget: int, inputs: dict
) -> WitnessReport:
    """Report of the fan scan around the enumerable endpoint x0 = info.start.

    Scans the fans of the cells abutting x0 until one point above
    f(x0) + 2^-(k+1) and one below f(x0) - 2^-(k+1) turn up, and certifies
    both together with why f(x0) is exactly known, read off the orbit record.
    If the budget runs out first, the failure report lists whichever witness
    was found.
    """
    x0 = info.start
    k = info.first_level
    fx0 = info.partial_sum(k - 1)
    above = below = None
    for side in _side_cells(x0, k):
        a, b = _fan_scan(side, x0, fx0, delta, fan_budget)
        above = above or a
        below = below or b
        if above and below:
            break
    points = [(x0, fx0)]
    if above is None or below is None:
        points += [hit for hit in (above, below) if hit is not None]
        return make_report(
            kind, inputs, points, [],
            error="fan budget exhausted before both witnesses appeared",
        )
    margin = Fraction(1, 2 ** (k + 1))
    if k == 1:
        certificate = [check("center_is_domain_end", "==", abs(x0), 1)]
    else:
        certificate = [
            check("center_hits_unit", "==", abs(info.iterate(k - 1)), 1),
            check("center_absorbed", "==", info.iterate(k), 0),
        ]
    certificate += _witness_checks("upper", x0, above, fx0, margin, delta, k, above=True)
    certificate += _witness_checks("lower", x0, below, fx0, margin, delta, k, above=False)
    return make_report(kind, inputs, points + [above, below], certificate)


# ---------------------------------------------------------------------------
# oscillation at enumerable endpoints
# ---------------------------------------------------------------------------


def oscillation_witness(
    x0: RatLike,
    delta: RatLike,
    depth: int = DEFAULT_DEPTH,
    fan_budget: int = DEFAULT_FAN_BUDGET,
) -> WitnessReport:
    """Witness that the series oscillates by more than its local weight at x0.

    x0 must be an enumerable cell endpoint (its orbit hits +-1; raises
    NotAnEPointError otherwise, in particular at x0 = 0).  With k the first
    level whose iterate hits +-1, the certificate exhibits x1, x2 within the
    punctured delta window with exact series values
    f(x1) > f(x0) + 2^-(k+1) and f(x2) < f(x0) - 2^-(k+1).
    Both one-sided (x0 = +-1) and two-sided endpoints are handled; witnesses
    may come from either side.
    """
    x0 = require_unit_interval(as_rational(x0), "x0")
    delta = _require_positive_delta(as_rational(delta))
    info = orbit(x0, depth)
    fl = info.first_level
    if fl is None:
        raise NotAnEPointError(
            f"orbit of {x0} does not hit +-1 within {depth} steps; "
            "the oscillation certificate needs an enumerable endpoint"
        )
    inputs = {"x0": x0, "delta": delta, "first_level": fl,
              "depth": depth, "fan_budget": fan_budget}
    return _endpoint_fan_report("oscillation", info, delta, fan_budget, inputs)


# ---------------------------------------------------------------------------
# no local extrema
# ---------------------------------------------------------------------------


def _walk_chain(
    info: OrbitInfo, window_lo: Rat, window_hi: Rat
) -> tuple[Optional[Cell], Rat, Optional[str]]:
    """Descend the cell chain of the non-endpoint info.start along its orbit
    record until the cell fits strictly inside the window and the truncated
    series has nonzero slope on it.  Returns (cell, that slope, error)."""
    depth = info.depth_limit
    y = info.start
    current = ROOT
    slope_sum = ZERO
    for k in range(1, depth):
        current = child_cell(current, level1_ids_at(y)[0])
        slope_sum += Fraction(current.slope) / 2**k
        if current.strictly_inside(window_lo, window_hi) and slope_sum != 0:
            return current, slope_sum, None
        y = info.iterate(k)
    return None, ZERO, (
        f"depth {depth} exhausted at level {depth - 1} before the cell chain "
        "fit the window"
    )


def non_extremum_witness(
    x0: RatLike,
    delta: RatLike,
    depth: int = DEFAULT_DEPTH,
    fan_budget: int = DEFAULT_FAN_BUDGET,
) -> WitnessReport:
    """Witness that x0 is not a local extremum within the delta window.

    Enumerable endpoints delegate to the oscillation fan (values strictly
    above and below f(x0) appear arbitrarily close).  Interior points use
    the cell chain: inside the deepest cell fitting the window, points x1
    and x2 in the two neighboring child cells are chosen with the same
    (k+1)-th iterate as x0, so every deeper layer agrees too and series
    differences reduce to exact k-term differences, which alternate around
    x0 because the truncation is affine with nonzero slope there.
    """
    x0 = require_unit_interval(as_rational(x0), "x0")
    delta = _require_positive_delta(as_rational(delta))
    info = orbit(x0, depth)
    fl = info.first_level
    inputs = {"x0": x0, "delta": delta, "depth": depth,
              "fan_budget": fan_budget}
    if fl is not None:
        inputs["mode"] = "endpoint_fan"
        inputs["first_level"] = fl
        return _endpoint_fan_report("non_extremum", info, delta, fan_budget, inputs)

    inputs["mode"] = "interior_chain"
    chain_cell, slope_sum, err = _walk_chain(info, x0 - delta, x0 + delta)
    if chain_cell is None:
        return make_report("non_extremum", inputs, [(x0, info.partial_sum(1))], [], error=err)
    k = chain_cell.level
    j0 = level1_ids_at(info.iterate(k))[0]
    inner = child_cell(chain_cell, j0)
    sib_a = child_cell(chain_cell, j0 - 1)
    sib_b = child_cell(chain_cell, j0 + 1)
    left, right = (sib_a, sib_b) if sib_a.lo < inner.lo else (sib_b, sib_a)
    v = inner.value_at(x0)  # the (k+1)-th iterate of x0
    x1 = (v - left.intercept) / left.slope
    x2 = (v - right.intercept) / right.slope
    s0 = info.partial_sum(k)
    s1 = partial_sum(x1, k)
    s2 = partial_sum(x2, k)
    certificate = [
        check("left_tail_matches", "==", eval_fk(x1, k + 1), info.iterate(k + 1)),
        check("right_tail_matches", "==", eval_fk(x2, k + 1), info.iterate(k + 1)),
        check("alternation", "<", (s1 - s0) * (s2 - s0), 0),
        check("left_inside_window", "<", x0 - x1, delta),
        check("right_inside_window", "<", x2 - x0, delta),
        check("left_of_center", ">", x0 - x1, 0),
        check("right_of_center", ">", x2 - x0, 0),
        check("chain_slope_nonzero", "!=", slope_sum, 0),
    ]
    points = [(x1, s1), (x0, s0), (x2, s2)]
    return make_report("non_extremum", inputs, points, certificate)


# ---------------------------------------------------------------------------
# no interval of monotonicity
# ---------------------------------------------------------------------------


def non_monotone_witness(
    a: RatLike,
    b: RatLike,
    depth: int = DEFAULT_DEPTH,
    fan_budget: int = DEFAULT_FAN_BUDGET,
) -> WitnessReport:
    """Witness that the series is not monotone on (a, b).

    Produces three points p1 < p2 < p3 inside (a, b) with exactly known
    series values whose consecutive differences have strictly opposite
    signs.  The anchor is either the interval midpoint (when it is an
    enumerable endpoint) or the left endpoint of the deepest chain cell of
    the midpoint fitting inside (a, b); both witnesses then come from the
    fan on one single side of the anchor, which forces a strict reversal.
    """
    a = require_unit_interval(as_rational(a), "a")
    b = require_unit_interval(as_rational(b), "b")
    if a >= b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    mid = (a + b) / 2
    info = orbit(mid, depth)
    fl = info.first_level
    inputs = {"a": a, "b": b, "depth": depth, "fan_budget": fan_budget}
    if fl is not None:
        inputs["mode"] = "midpoint_fan"
        anchor = mid
        fx0 = info.partial_sum(fl - 1)
        delta = min(mid - a, b - mid)
        sides = _side_cells(mid, fl)
    else:
        inputs["mode"] = "chain_cell_fan"
        chain_cell, _slope, err = _walk_chain(info, a, b)
        if chain_cell is None:
            return make_report("non_monotone", inputs, [], [], error=err)
        anchor = chain_cell.lo
        fx0 = partial_sum(anchor, chain_cell.level)
        delta = chain_cell.length
        sides = [chain_cell]
    k = sides[0].level + 1
    above = below = None
    for side in sides:
        above, below = _fan_scan(side, anchor, fx0, delta, fan_budget)
        if above and below:
            break
    if not (above and below):
        return make_report(
            "non_monotone", inputs, [(anchor, fx0)], [],
            error="fan budget exhausted before a same-side pair appeared",
        )
    triple = sorted([(anchor, fx0), above, below])
    (p1, v1), (p2, v2), (p3, v3) = triple
    certificate = [
        check("alternation", "<", (v2 - v1) * (v3 - v2), 0),
        check("ordered_left", "<", p1, p2),
        check("ordered_right", "<", p2, p3),
        check("inside_left", "<", a, p1),
        check("inside_right", "<", p3, b),
    ]
    for tag, (p, _v) in (("p1", triple[0]), ("p2", triple[1]), ("p3", triple[2])):
        certificate.append(
            check(f"{tag}_value_exact", "==", eval_fk(p, k + 1), 0)
        )
    return make_report("non_monotone", inputs, list(triple), certificate)


# ---------------------------------------------------------------------------
# strict local minimum of the absolute-value variant at the origin
# ---------------------------------------------------------------------------


def local_min_check(x: RatLike) -> WitnessReport:
    """Certify that the signed series exceeds its origin value at x.

    For x in (0, 1/4) with dyadic band index k (the unique k >= 2 with
    2^-(k+1) < x <= 2^-k), the first k layers are all in their middle ramp
    at x, so the k-term truncation is exactly k x; the remaining layers
    cannot cancel more than 2^-k of it, and k x - 2^-k > 0 on the band.
    The certificate verifies each middle-ramp value, the truncation value,
    and the strict positive margin, all exactly.  By the even symmetry of
    the signed series this makes the origin a strict local minimum.
    """
    x = as_rational(x)
    if not (0 < x < Fraction(1, 4)):
        raise DomainError(f"x must lie in (0, 1/4), got {x}")
    k = 2
    while x * 2 ** (k + 1) <= 1:
        k += 1
    certificate = [
        check("band_lower", "<", Fraction(1, 2 ** (k + 1)), x),
        check("band_upper", "<=", x, Fraction(1, 2**k)),
    ]
    info = orbit(x, k)
    for layer in range(1, k + 1):
        certificate.append(
            check(f"middle_ramp_layer_{layer}", "==", info.iterate(layer), x * 2**layer)
        )
    s = info.partial_sum(k)
    certificate += [
        check("truncation_is_k_x", "==", s, k * x),
        check("exceeds_band_floor", ">", s, Fraction(k, 2 ** (k + 1))),
        check("margin_positive", ">", s - Fraction(1, 2**k), 0),
    ]
    return make_report(
        "local_min",
        {"x": x, "band_k": k},
        [(x, s)],
        certificate,
    )


# ---------------------------------------------------------------------------
# structural invariants of the cell system
# ---------------------------------------------------------------------------


def structure_check(k: int, index_budget: int) -> WitnessReport:
    """Exhaustively verify the cell-system invariants up to level k.

    Enumerates every cell whose coordinates stay within the index budget and
    checks, with exact arithmetic: affinity of the iterate on each cell
    (probed against plain iteration), onto [-1, 1] with opposite endpoint
    values, child fans tiling their parent with the exact shortfall, length
    decay 2^(1-level), the closed-form total covered length at level k, the
    self-similarity of child fans under the parent's unit-interval map, and
    locate round-trips at cell midpoints.  The certificate aggregates exact
    mismatch counts (all must be zero) and the exact coverage identities.
    """
    if k < 1:
        raise DomainError(f"level k must be >= 1, got {k}")
    if index_budget < 1:
        raise DomainError(f"index budget must be >= 1, got {index_budget}")
    ids = range(-index_budget, index_budget + 1)
    per_level: list[list[Cell]] = [[] for _ in range(k)]
    for c in iter_cells(k, index_budget):
        per_level[c.level - 1].append(c)

    affinity_mismatches = 0
    onto_failures = 0
    length_violations = 0
    for level_cells in per_level:
        for c in level_cells:
            lvl = c.level
            third = c.length / 3
            for probe in (c.lo + third, c.lo + 2 * third, c.midpoint):
                if eval_fk(probe, lvl) != c.value_at(probe):
                    affinity_mismatches += 1
            if {eval_fk(c.lo, lvl), eval_fk(c.hi, lvl)} != {Fraction(-1), Fraction(1)}:
                onto_failures += 1
            if eval_fk(c.midpoint, lvl) != 0:
                onto_failures += 1
            if c.length > Fraction(2) ** (1 - lvl):
                length_violations += 1

    tiling_failures = 0
    family_mismatches = 0
    parents: list[Cell] = [ROOT]
    for level_cells in per_level:
        by_parent: dict[tuple[int, ...], list[Cell]] = {}
        for c in level_cells:
            by_parent.setdefault(c.address[:-1], []).append(c)
        for parent in parents:
            fan = sorted(by_parent.get(parent.address, []), key=lambda c: c.lo)
            if len(fan) != len(list(ids)):
                tiling_failures += 1
                continue
            if not (parent.lo < fan[0].lo and fan[-1].hi < parent.hi):
                tiling_failures += 1
            for left_cell, right_cell in zip(fan, fan[1:]):
                if left_cell.hi != right_cell.lo:
                    tiling_failures += 1
            span = fan[-1].hi - fan[0].lo
            if parent.length - span != parent.length / (index_budget + 2):
                tiling_failures += 1
            # self-similarity: the fan is the level-1 family scaled into parent
            unit_map = child_map(parent)
            images = {
                tuple(sorted((unit_map(level1_cell(j).lo), unit_map(level1_cell(j).hi))))
                for j in ids
            }
            intervals = {(c.lo, c.hi) for c in fan}
            if images != intervals:
                family_mismatches += 1
        parents = level_cells

    locate_mismatches = 0
    for c in per_level[-1]:
        if locate(c.midpoint, k) != [c.address]:
            locate_mismatches += 1

    total = sum((c.length for c in per_level[-1]), ZERO)
    expected_total = 2 * (1 - Fraction(1, index_budget + 2)) ** k
    shortfall = 2 - expected_total

    certificate = [
        check("affinity_mismatches", "==", affinity_mismatches, 0),
        check("onto_failures", "==", onto_failures, 0),
        check("length_violations", "==", length_violations, 0),
        check("tiling_failures", "==", tiling_failures, 0),
        check("self_similarity_mismatches", "==", family_mismatches, 0),
        check("locate_mismatches", "==", locate_mismatches, 0),
        check("level_k_cell_count", "==", len(per_level[-1]), (2 * index_budget + 1) ** k),
        check("total_length_closed_form", "==", total, expected_total),
        check("coverage_shortfall", "==", 2 - total, shortfall),
    ]
    return make_report(
        "structure",
        {"k": k, "index_budget": index_budget},
        [],
        certificate,
    )


# ---------------------------------------------------------------------------
# integral cross-check
# ---------------------------------------------------------------------------


def integral_crosscheck(
    k: int, xs: Sequence[RatLike], index_budget: int
) -> WitnessReport:
    """Certify that the recursive layer integral lies inside the geometric
    enclosure at each x: two code paths, one exact containment check each."""
    if k < 1:
        raise DomainError(f"level k must be >= 1, got {k}")
    if not xs:
        raise DomainError("need at least one evaluation point")
    points: list[tuple[Rat, Rat]] = []
    certificate: list[Check] = []
    for i, raw in enumerate(xs):
        x = require_unit_interval(as_rational(raw))
        value = eval_Fk(x, k)
        enc = enclose_integral(k, x, index_budget)
        points.append((x, value))
        certificate.append(check(f"lower_{i}", "<=", enc.lower, value))
        certificate.append(check(f"upper_{i}", "<=", value, enc.upper))
    return make_report(
        "integral_crosscheck",
        {"k": k, "index_budget": index_budget, "count": len(points)},
        points,
        certificate,
    )
