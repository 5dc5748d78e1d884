"""Constructive witnesses for the pathologies of the cascade series.

Every routine here *finds* concrete rational points and then *certifies*
the claimed behavior with exact comparisons only.  The searches exploit the
cell structure: endpoints of level-k cells have exactly known series values
(their orbits absorb), and around any such endpoint the level-(k+1) cell
fan supplies points whose series values overshoot and undershoot by almost
the full weight 2^-k of the k-th layer, beating the margin 2^-(k+1).

Cell chains are read off a point's orbit record, which keeps the tooth
slope of every step; no Cell is built.  A level-m cell at x0 is (m, s, a):
the slope s of f_m on it (a product of tooth slopes) and the Horner sum
a = sum_{i<=m} s_i 2^(m-i) of the slopes of f_1..f_m; the cell is
x0 + ([-1, 1] - f_m(x0)) / s.  With v0 = f_m(x0) = +-1 and k = m + 1 the
fan endpoints are y_n = x0 - v0 / (n s), n >= 2, and
f(y_n) - f(x0) = v0 ((-1)^n / 2^k - a / (2^m n s)), so window and margin
tests are integer comparisons.  The closed forms only choose the
witnesses: each chosen point is walked once, into one orbit record that
gives its series value and the iterate its certificate checks, so a wrong
choice can only yield a failing report.

For points whose deeper layers coincide (equal (k+1)-th iterates), series
differences collapse to differences of k-term partial sums, which is what
makes the interior non-extremum certificate exact despite the series being
infinite.

A search that runs out of budget or depth returns a failure report with the
reason attached; it never silently passes and never weakens a margin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from typing import Optional, Sequence

from sawcascade.antiderivative import covered_length, enclose_integral, eval_Fk
from sawcascade.cells import (
    ROOT,
    _walk,
    level1_cell,
    level1_ids_at,
    level1_ids_of,
    locate,
    require_family_size,
    tooth_slope,
)
from sawcascade.construction import (
    ZERO,
    DomainError,
    OrbitInfo,
    Rat,
    RatLike,
    as_rational,
    iterate_numerator,
    orbit,
    require_at_least,
    require_layer_index,
    require_unit_interval,
)
from sawcascade.reports import Check, WitnessReport, check, make_report

ONE = Fraction(1)

DEFAULT_DEPTH = 40
DEFAULT_FAN_BUDGET = 64


class NotAnEPointError(DomainError):
    """The point is not an enumerable cell endpoint, so the oscillation
    certificate (which needs an exactly known center value) does not apply."""


def require_positive_delta(delta: Rat) -> Rat:
    if delta.numerator <= 0:
        raise DomainError(f"window radius delta must be > 0, got {delta}")
    return delta


# ---------------------------------------------------------------------------
# fan scan around an exactly-known endpoint
# ---------------------------------------------------------------------------


#: A level-m cell abutting an exactly known point, reduced to what the fan
#: scan needs: (m, s, a) with s the slope of f_m on the cell and
#: a = sum_{i<=m} s_i 2^(m-i) the Horner sum of the slopes s_i of f_i on its
#: ancestors, so a / 2^m is the slope of the m-term partial sum there.
FanSide = tuple[int, int, int]


def _side_cells(info: OrbitInfo) -> list[FanSide]:
    """The cells of level m = first_level - 1 with endpoint x0 = info.start.

    For first_level 1 (x0 = +-1) the level-0 root (0, 1, 0) stands in: the
    fan of level-1 teeth accumulates at both domain ends.  Otherwise the
    chain is read off the record's slopes.  No iterate before y_{m-1} is a
    tooth endpoint (its image would be +-1 a step early), so the chain
    branches only at its last step, into the one or two ids at y_{m-1}, in
    ascending order as locate sorts them.  The record ends at y_m = +-1,
    so m is its length, except at x0 = +-1, whose record is (0,).
    """
    m = len(info.numerators) if info.numerators[-1] else 0
    if m == 0:
        return [(0, 1, 0)]
    s, a = 1, 0
    for slope in info.slopes[: m - 1]:
        s *= slope
        a = 2 * a + s
    x0 = info.start
    p = info.numerators[m - 2] if m > 1 else x0.numerator  # y_{m-1} over q
    lasts = [s * tooth_slope(j) for j in level1_ids_of(p, x0.denominator)]
    return [(m, last, 2 * a + last) for last in lasts]


def _endpoint_value(info: OrbitInfo) -> int:
    """f_m(x0) = +-1 at the endpoint x0 = info.start, m = first_level - 1
    (f_0 is the identity): the record's last iterate, or x0 at x0 = +-1."""
    last = info.numerators[-1]
    return last // info.start.denominator if last else info.start.numerator


def _fan_point(x0: Rat, v0: int, s: int, n: int) -> Rat:
    """y_n = x0 - v0 / (n s), the endpoint shared by fan children n-2 and n-1."""
    q = x0.denominator
    return Fraction(x0.numerator * n * s - v0 * q, q * n * s)


def _fan_sign(side: FanSide, v0: int, n: int) -> int:
    """+1 if f(y_n) > f(x0) + 2^-(k+1), -1 if f(y_n) < f(x0) - 2^-(k+1), else 0.

    With k = m + 1, f_k(y_n) = v0 (-1)^n and every later iterate vanishes,
    while the m-term partial sum is affine on the side cell, so
    f(y_n) - f(x0) = v0 ((-1)^n / 2^k - a / (2^m n s)).  Scaled by
    2^(k+1) n |s| both margin tests are integer comparisons.
    """
    _m, s, a = side
    size = abs(s)
    t = 2 * n * size if n % 2 == 0 else -2 * n * size
    t = v0 * (t - 4 * a if s > 0 else t + 4 * a)
    if t > n * size:
        return 1
    return -1 if t < -n * size else 0


@lru_cache(maxsize=4096)
def _fan_choice(
    side: FanSide, v0: int, first: int, fan_budget: int
) -> tuple[Optional[int], Optional[int]]:
    """The indices n of the endpoints y_n that _fan_scan chooses, scanning
    from y_first.  The choice does not depend on x0, so suites that repeat
    a chain repeat it; the key holds only ints, which hash fast."""
    above: Optional[int] = None
    below: Optional[int] = None
    if fan_budget < 1:
        return above, below
    order = (first, first + 1) if v0 * side[1] > 0 else (first + 1, first)
    for n in chain(order, range(first + 2, first + fan_budget + 1)):
        sign = _fan_sign(side, v0, n)
        if sign > 0 and above is None:
            above = n
        elif sign < 0 and below is None:
            below = n
        if above is not None and below is not None:
            break
    return above, below


def _fan_scan(
    side: FanSide, x0: Rat, v0: int, delta: Rat, fan_budget: int
) -> tuple[Optional[Rat], Optional[Rat]]:
    """Scan the child fan of ``side`` accumulating at its endpoint x0.

    Children are preimages of the level-1 teeth; the teeth with ids of the
    sign of v0 = f_m(x0) = +-1 accumulate at x0, and child m (tooth m + 1)
    spans the fan endpoints y_{m+1} and y_{m+2} (see _fan_point).  Scanning
    starts at the child m0 = max(1, floor(1 / (delta |s|))), so every
    endpoint visited satisfies n |s| delta > 1, that is, lies strictly
    inside the punctured delta window, and walks at most ``fan_budget``
    children: the endpoints of child m0 from left to right, then one new
    endpoint per child, since adjacent children share one.  Each endpoint
    is judged in closed form by _fan_sign; nothing is walked here.  The
    choice is cached per (side, v0, first endpoint, budget) by _fan_choice.

    Returns (above, below), the first endpoint beating the margin above
    f(x0) and the first beating it below; either may be None if the budget
    ran out first.
    """
    s = side[1]
    first = max(1, delta.denominator // (delta.numerator * abs(s))) + 1
    n_above, n_below = _fan_choice(side, v0, first, fan_budget)
    above = None if n_above is None else _fan_point(x0, v0, s, n_above)
    below = None if n_below is None else _fan_point(x0, v0, s, n_below)
    return above, below


#: The labels of one witness's checks, in certificate order.
_UPPER = ("upper_beats_margin", "upper_inside_window", "upper_distinct", "upper_hits_unit")
_LOWER = ("lower_beats_margin", "lower_inside_window", "lower_distinct", "lower_hits_unit")


def _witness_checks(
    labels: tuple[str, ...], x0: Rat, hit: tuple[Rat, Rat, int], relation: str,
    bound: Rat, delta: Rat,
) -> list[Check]:
    """Checks on the witness y with series value f(y) and |f_k(y)| = p/q, q
    the denominator of y: hit = (y, f(y), p), where f(y) relation bound must
    hold.  Every side is already exact, and |f_k(y)| is ONE when p == q."""
    y, fy, fk = hit
    a, b, c, d = y.numerator, y.denominator, x0.numerator, x0.denominator
    gap = Fraction(abs(a * d - c * b), b * d)  # |y - x0|
    beats, inside, distinct, unit = labels
    return [
        Check(beats, relation, fy, bound),
        Check(inside, "<", gap, delta),
        Check(distinct, ">", gap, ZERO),
        Check(unit, "==", ONE if fk == b else Fraction(fk, b), ONE),
    ]


def _endpoint_fan_report(
    kind: str, info: OrbitInfo, k: int, delta: Rat, fan_budget: int, inputs: dict
) -> WitnessReport:
    """Report of the fan scan around the enumerable endpoint x0 = info.start,
    whose first level is k.

    Scans the fans of the cells abutting x0 until one point above
    f(x0) + 2^-(k+1) and one below f(x0) - 2^-(k+1) turn up, and certifies
    both together with why f(x0) is exactly known, read off the orbit record.
    If the budget runs out first, the failure report lists whichever witness
    was found.
    """
    x0 = info.start
    fx0 = info.partial_sum(k - 1)
    v0 = _endpoint_value(info)
    above = below = None
    for side in _side_cells(info):
        a, b = _fan_scan(side, x0, v0, delta, fan_budget)
        above = a if above is None else above
        below = b if below is None else below
        if above is not None and below is not None:
            break
    walked = [orbit(y, k) for y in (above, below) if y is not None]
    # a fan endpoint's record ends at f_k(y) = +-1
    hits = [(w.start, w.partial_sum(k), abs(w.numerators[k - 1])) for w in walked]
    points = [(x0, fx0)] + [(y, fy) for y, fy, _ in hits]
    if len(hits) < 2:
        error = "fan budget exhausted before both witnesses appeared"
        return make_report(kind, inputs, points, [], error=error)
    above, below = hits
    # f(x0) + 2^-(k+1) and f(x0) - 2^-(k+1), over the denominator q 2^(k+1)
    p, q, scale = fx0.numerator, fx0.denominator, 2 ** (k + 1)
    high, low = Fraction(p * scale + q, q * scale), Fraction(p * scale - q, q * scale)
    if k == 1:
        certificate = [Check("center_is_domain_end", "==", abs(x0), ONE)]
    else:
        r, d = abs(info.numerators[k - 2]), x0.denominator  # |y_{k-1}| = r/d
        last = ONE if r == d else Fraction(r, d)
        certificate = [
            Check("center_hits_unit", "==", last, ONE),
            Check("center_absorbed", "==", info.iterate(k), ZERO),
        ]
    certificate += _witness_checks(_UPPER, x0, above, ">", high, delta)
    certificate += _witness_checks(_LOWER, x0, below, "<", low, delta)
    return make_report(kind, inputs, points, certificate)


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
    delta = require_positive_delta(as_rational(delta))
    info = orbit(x0, depth)
    fl = info.first_level
    if fl is None:
        raise NotAnEPointError(
            f"orbit of {x0} does not hit +-1 within {depth} steps; "
            "the oscillation certificate needs an enumerable endpoint"
        )
    inputs = {"x0": x0, "delta": delta, "first_level": fl,
              "depth": depth, "fan_budget": fan_budget}
    return _endpoint_fan_report("oscillation", info, fl, delta, fan_budget, inputs)


# ---------------------------------------------------------------------------
# no local extrema
# ---------------------------------------------------------------------------


def _walk_chain(
    info: OrbitInfo, depth: int, lo: Rat, hi: Rat
) -> tuple[Optional[FanSide], Rat, Optional[str]]:
    """Descend the cell chain of the non-endpoint x0 = info.start, read off
    its orbit record walked to ``depth``, until the level-m cell
    x0 + ([-1, 1] - f_m(x0)) / s fits strictly inside (lo, hi) and the
    m-term truncation has nonzero slope a / 2^m on it.  Past an absorption
    at 0 every step is (0, 2): 0 stays on the middle ramp.  Returns
    ((m, s, a), f_m(x0), error)."""
    x0 = info.start
    q = x0.denominator
    # with y = p/q the cell reaches (1 + y sign(s))/|s| left of x0 and
    # (1 - y sign(s))/|s| right of it; both tests cross-multiplied
    left, right = x0 - lo, hi - x0
    steps = chain(zip(info.numerators, info.slopes), repeat((0, 2)))
    s, a = 1, 0
    for m, (p, slope) in enumerate(islice(steps, depth - 1), 1):
        s *= slope
        a = 2 * a + s
        sp, size = (p, s) if s > 0 else (-p, -s)
        if (
            a != 0
            and (q + sp) * left.denominator < left.numerator * size * q
            and (q - sp) * right.denominator < right.numerator * size * q
        ):
            return (m, s, a), Fraction(p, q), None
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
    the cell chain: inside its first cell fitting the window, points x1
    and x2 in the two neighboring child cells are chosen with the same
    (k+1)-th iterate as x0, so every deeper layer agrees too and series
    differences reduce to exact k-term differences, which alternate around
    x0 because the truncation is affine with nonzero slope there.
    """
    x0 = require_unit_interval(as_rational(x0), "x0")
    delta = require_positive_delta(as_rational(delta))
    info = orbit(x0, depth)
    fl = info.first_level
    inputs = {"x0": x0, "delta": delta, "depth": depth,
              "fan_budget": fan_budget}
    if fl is not None:
        inputs["mode"] = "endpoint_fan"
        inputs["first_level"] = fl
        return _endpoint_fan_report("non_extremum", info, fl, delta, fan_budget, inputs)

    inputs["mode"] = "interior_chain"
    side, y, err = _walk_chain(info, depth, x0 - delta, x0 + delta)
    if side is None:
        return make_report("non_extremum", inputs, [(x0, info.partial_sum(1))], [], error=err)
    k, s, a = side
    v = info.iterate(k + 1)
    # pull back the points of the teeth beside y's tooth whose image is v
    j0 = level1_ids_at(y)[0]
    teeth = (level1_cell(j0 - 1), level1_cell(j0 + 1))
    x1, x2 = sorted(x0 + ((v - t.intercept) / t.slope - y) / s for t in teeth)
    w1, w2 = orbit(x1, k + 1), orbit(x2, k + 1)
    s0, s1, s2 = info.partial_sum(k), w1.partial_sum(k), w2.partial_sum(k)
    certificate = [
        check("left_tail_matches", "==", w1.iterate(k + 1), v),
        check("right_tail_matches", "==", w2.iterate(k + 1), v),
        check("alternation", "<", (s1 - s0) * (s2 - s0), 0),
        check("left_inside_window", "<", x0 - x1, delta),
        check("right_inside_window", "<", x2 - x0, delta),
        check("left_of_center", ">", x0 - x1, 0),
        check("right_of_center", ">", x2 - x0, 0),
        check("chain_slope_nonzero", "!=", Fraction(a, 2**k), 0),
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
    enumerable endpoint) or the left endpoint of the first chain cell of
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
        center = info
        v0 = _endpoint_value(info)
        delta = min(mid - a, b - mid)
        sides = _side_cells(info)
    else:
        inputs["mode"] = "chain_cell_fan"
        side, y, err = _walk_chain(info, depth, a, b)
        if side is None:
            return make_report("non_monotone", inputs, [], [], error=err)
        m, s, _a = side
        v0 = -1 if s > 0 else 1  # f_m at the chain cell's left end
        center = orbit(mid + (v0 - y) / s, m + 2)
        delta = Fraction(2, abs(s))
        sides = [side]
    k = sides[0][0] + 1
    anchor, fx0 = center.start, center.partial_sum(k)
    above = below = None
    for side in sides:
        above, below = _fan_scan(side, anchor, v0, delta, fan_budget)
        if above is not None and below is not None:
            break
    if above is None or below is None:
        return make_report(
            "non_monotone", inputs, [(anchor, fx0)], [],
            error="fan budget exhausted before a same-side pair appeared",
        )
    walked = [center, orbit(above, k + 1), orbit(below, k + 1)]
    triple = sorted((w.start, w.partial_sum(k), w.iterate(k + 1)) for w in walked)
    (p1, v1, _), (p2, v2, _), (p3, v3, _) = triple
    certificate = [
        check("alternation", "<", (v2 - v1) * (v3 - v2), 0),
        check("ordered_left", "<", p1, p2),
        check("ordered_right", "<", p2, p3),
        check("inside_left", "<", a, p1),
        check("inside_right", "<", p3, b),
    ]
    for tag, (_p, _v, tail) in zip(("p1", "p2", "p3"), triple):
        certificate.append(check(f"{tag}_value_exact", "==", tail, 0))
    return make_report("non_monotone", inputs, [(p, v) for p, v, _ in triple], certificate)


# ---------------------------------------------------------------------------
# strict local minimum of the signed series g = G' at the origin
# ---------------------------------------------------------------------------


def local_min_check(x: RatLike) -> WitnessReport:
    """Certify that the signed series g = G' exceeds g(0) = 0 at x.

    For x in (0, 1/4) with dyadic band index k (the unique k >= 2 with
    2^-(k+1) < x <= 2^-k), the first k layers are all in their middle ramp
    at x, so the k-term truncation is exactly k x; the remaining layers
    cannot cancel more than 2^-k of it, and k x - 2^-k > 0 on the band.
    The certificate verifies each middle-ramp value, the truncation value,
    and the strict positive margin, all exactly.  Since g is even, g > 0 on
    0 < |x| < 1/4 makes the origin a strict local minimum of g (not of G,
    which is odd and crosses its horizontal tangent there).  A band index
    above MAX_LAYER_INDEX is refused, as every layer index is.
    """
    x = as_rational(x)
    if not (0 < x < Fraction(1, 4)):
        raise DomainError(f"x must lie in (0, 1/4), got {x}")
    # 2^k <= q/p < 2^(k+1) for x = p/q, so 2^k <= q // p < 2^(k+1)
    k = require_layer_index("band k", (x.denominator // x.numerator).bit_length() - 1)
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

    Walks every cell whose ids stay within the index budget and checks,
    with exact arithmetic: affinity of the iterate on each cell (probed
    against plain iteration), onto [-1, 1] with opposite endpoint values,
    child fans tiling their parent with the exact shortfall, length decay
    2^(1-level), the total length at level k against covered_length, the
    self-similarity of child fans under the parent's unit-interval map (each
    end cross-multiplied on integers, the fan's length checked too), and
    locate round-trips at level-k midpoints.  One pass checks each fan as
    the walk builds it, against the parent the walk is entering, then each
    of its cells; a cell not addressed under that parent is a tiling
    failure.  The certificate aggregates exact mismatch counts (all must be
    zero) and the exact coverage identities.
    """
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 1, "index budget")
    require_family_size(k, index_budget)  # before any cell is built
    # self-similarity: the parent's unit-interval map x -> (x - sign(S) C)/|S|
    # carries the level-1 family onto each child fan, so the fan pulled back
    # by its inverse, left to right, must be the family in ascending ids
    level1 = [(f.lo.numerator, f.lo.denominator, f.hi.numerator, f.hi.denominator)
              for f in map(level1_cell, range(-index_budget, index_budget + 1))]

    affinity_mismatches = 0
    onto_failures = 0
    length_violations = 0
    tiling_failures = 0
    family_mismatches = 0
    locate_mismatches = 0
    count = 0
    total = ZERO
    for parent, fan in _walk((index_budget,) * k, ROOT.lo, ROOT.hi):
        if not fan:  # leaving a cell, or a level-k cell
            continue
        if not (parent.lo < fan[0].lo and fan[-1].hi < parent.hi):
            tiling_failures += 1
        tiling_failures += sum(a.hi != b.lo for a, b in zip(fan, fan[1:]))
        tiling_failures += sum(c.address[:-1] != parent.address for c in fan)
        span = fan[-1].hi - fan[0].lo
        if parent.length - span != parent.length / (index_budget + 2):
            tiling_failures += 1
        # a fan end p/q pulls back to (p |S| + shift q)/q, compared on
        # integers with the family's end a/b or c/d by cross-multiplying
        scale = abs(parent.slope)
        shift = parent.intercept if parent.slope > 0 else -parent.intercept
        if len(fan) != len(level1) or any(
            (f.lo.numerator * scale + shift * f.lo.denominator) * b != a * f.lo.denominator
            or (f.hi.numerator * scale + shift * f.hi.denominator) * d != c * f.hi.denominator
            for f, (a, b, c, d) in zip(fan, level1)
        ):
            family_mismatches += 1
        for c in fan:
            # numerators over d = 3|S|: lo, lo + L/3, midpoint, lo + 2L/3 and
            # hi are base + 0, 2, 3, 4 and 6; affinity expects 0 at the midpoint
            lvl, S, C = c.level, c.slope, c.intercept
            d = 3 * abs(S)
            base = -3 * C - 3 if S > 0 else 3 * C - 3
            walked = {t: iterate_numerator(base + t, d, lvl) for t in (0, 2, 3, 4, 6)}
            for t in (2, 3, 4):
                if walked[t] != S * (base + t) + C * d:
                    affinity_mismatches += 1
            if {walked[0], walked[6]} != {-d, d}:
                onto_failures += 1
            if abs(S) < 2**lvl:  # length 2/|S| > 2^(1-lvl)
                length_violations += 1
            if lvl == k:
                count += 1
                total += c.length
                if locate(c.midpoint, k) != [c.address]:
                    locate_mismatches += 1

    expected_total = covered_length(k, index_budget)

    certificate = [
        check("affinity_mismatches", "==", affinity_mismatches, 0),
        check("onto_failures", "==", onto_failures, 0),
        check("length_violations", "==", length_violations, 0),
        check("tiling_failures", "==", tiling_failures, 0),
        check("self_similarity_mismatches", "==", family_mismatches, 0),
        check("locate_mismatches", "==", locate_mismatches, 0),
        check("level_k_cell_count", "==", count, (2 * index_budget + 1) ** k),
        check("total_length_closed_form", "==", total, expected_total),
        check("coverage_shortfall", "==", 2 - total, 2 - expected_total),
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
    require_at_least(k, 1, "level k")
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
