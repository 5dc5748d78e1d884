"""Constructive witnesses for the pathologies of the cascade series.

Every routine here *finds* concrete rational points and then *certifies*
the claimed behavior with exact comparisons only.  The searches exploit the
cell structure: endpoints of level-k cells have exactly known series values
(their orbits absorb), and around any such endpoint the level-(k+1) cell
fan supplies points whose series values overshoot and undershoot by almost
the full weight 2^-k of the k-th layer, beating the margin 2^-(k+1).

Cell chains are folded from the tooth slopes of a point's walk; no Cell
is built.  A level-m cell at x0 is (m, s, a):
the slope s of f_m on it (a product of tooth slopes) and the Horner sum
a = sum_{i<=m} s_i 2^(m-i) of the slopes of f_1..f_m; the cell is
x0 + ([-1, 1] - f_m(x0)) / s.  With v0 = f_m(x0) = +-1 and k = m + 1 the
fan endpoints are y_n = x0 - v0 / (n s), n >= 2, and
f(y_n) - f(x0) = v0 ((-1)^n / 2^k - a / (2^m n s)), so window and margin
tests are integer comparisons.  The closed forms only choose the
witnesses, and each chosen point is walked on its own numbers, so a wrong
choice can only yield a failing report: a fan's center by
``_endpoint_walk``, which folds its cells as it goes, and each witness by
``eval_f``'s integer Horner walk, which gives the values its certificate
checks; a no-extremum or non-monotony center is walked into an orbit record.

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
from math import lcm
from typing import Optional, Sequence

from sawcascade.antiderivative import covered_length, enclose_integral, eval_Fk
from sawcascade.cells import (
    ROOT,
    _walk,
    level1_ids_at,
    level1_ids_of,
    locate,
    require_family_size,
    tooth,
)
from sawcascade.construction import (
    ZERO,
    DomainError,
    OrbitInfo,
    Rat,
    RatLike,
    _endpoint_walk,
    _horner_walk,
    _sum_and_tail,
    as_rational,
    f1_step,
    orbit,
    require_at_least,
    require_depth,
    require_layer_index,
    require_unit_interval,
)
from sawcascade.reports import Check, WitnessReport, _check, check, make_report

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


def _endpoint(q: int, center: tuple[int, ...]) -> tuple[int, list[FanSide], Rat]:
    """v0 = f_m(x0) = +-1 at the endpoint x0 = p/q, m = first_level - 1
    (f_0 is the identity), the cells of level m with endpoint x0, and f(x0),
    off its walk ``center``.  At x0 = +-1 (m = 0) the level-0 root (0, 1, 0)
    stands in, the fan of level-1 teeth accumulating at both domain ends.
    No iterate before y_{m-1} is a tooth endpoint (its image would be +-1 a
    step early), so the chain branches only at its last step, into the one
    or two ids at y_{m-1}, in ascending order as locate sorts them.
    """
    m, acc, s, a, before, end = center
    lasts = [s * tooth(j)[0] for j in level1_ids_of(before, q)]  # none at +-1
    return end // q, [(m, last, 2 * a + last) for last in lasts] or [(0, 1, 0)], Fraction(acc, q << m)


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
    bound: tuple[int, int], delta: tuple[int, int],
) -> list[Check]:
    """Checks on the witness y with series value f(y) and |f_k(y)| = p/q, q
    the denominator of y: hit = (y, f(y), p), where f(y) relation bound must
    hold; bound and delta are (numerator, positive denominator) pairs."""
    y, fy, fk = hit
    a, b, c, d = y.numerator, y.denominator, x0.numerator, x0.denominator
    gap, over = abs(a * d - c * b), b * d  # |y - x0| = gap / over
    beats, inside, distinct, unit = labels
    return [
        _check(beats, relation, fy.numerator, fy.denominator, *bound),
        _check(inside, "<", gap, over, *delta),
        _check(distinct, ">", gap, over, 0, 1),
        _check(unit, "==", fk, b, 1, 1),
    ]


def _endpoint_fan_report(
    kind: str, x0: Rat, center: tuple[int, ...], delta: Rat, fan_budget: int, inputs: dict
) -> WitnessReport:
    """Report of the fan scan around the enumerable endpoint x0 walked by
    ``center``, whose first level is k = m + 1.

    Scans the fans of the cells abutting x0 until one point above
    f(x0) + 2^-(k+1) and one below f(x0) - 2^-(k+1) turn up, and certifies
    both together with why f(x0) is exactly known, read off the walk.  If
    the budget runs out first, the failure report lists whichever witness
    was found.
    """
    k, end, q = center[0] + 1, center[5], x0.denominator
    v0, sides, fx0 = _endpoint(q, center)
    above = below = None
    for side in sides:
        a, b = _fan_scan(side, x0, v0, delta, fan_budget)
        above = a if above is None else above
        below = b if below is None else below
        if above is not None and below is not None:
            break
    # each witness y = n/e walked k steps: f(y) = acc / (e 2^m), and |f_k(y)| is
    # |p_m| / e (1 at a fan endpoint), or 0 if the walk absorbed before step k
    walks = [(y, y.denominator, _horner_walk(y.numerator, y.denominator, k))
             for y in (above, below) if y is not None]
    hits = [(y, Fraction(acc, e << m), abs(p) if m == k else 0) for y, e, (acc, m, p) in walks]
    points = [(x0, fx0)] + [(y, fy) for y, fy, _ in hits]
    if len(hits) < 2:
        error = "fan budget exhausted before both witnesses appeared"
        return make_report(kind, inputs, points, [], error=error)
    above, below = hits
    # f(x0) + 2^-(k+1) and f(x0) - 2^-(k+1), over the denominator d 2^(k+1)
    n, d, scale = fx0.numerator, fx0.denominator, 2 ** (k + 1)
    high, low = (n * scale + d, d * scale), (n * scale - d, d * scale)
    if k == 1:
        certificate = [_check("center_is_domain_end", "==", abs(x0.numerator), q, 1, 1)]
    else:
        r, after = abs(end), f1_step(end, q)[0]  # |y_(k-1)| = r/q, and y_k over q
        certificate = [
            _check("center_hits_unit", "==", r, q, 1, 1),
            _check("center_absorbed", "==", after, q, 0, 1),
        ]
    window = (delta.numerator, delta.denominator)
    certificate += _witness_checks(_UPPER, x0, above, ">", high, window)
    certificate += _witness_checks(_LOWER, x0, below, "<", low, window)
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
    center = _endpoint_walk(x0.numerator, x0.denominator, require_depth(depth))
    if center is None:
        raise NotAnEPointError(
            f"orbit of {x0} does not hit +-1 within {depth} steps; "
            "the oscillation certificate needs an enumerable endpoint"
        )
    inputs = {"x0": x0, "delta": delta, "first_level": center[0] + 1,
              "depth": depth, "fan_budget": fan_budget}
    return _endpoint_fan_report("oscillation", x0, center, delta, fan_budget, inputs)


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
    inputs = {"x0": x0, "delta": delta, "depth": depth,
              "fan_budget": fan_budget}
    if info.first_level is not None:  # an endpoint: walked again to fold its chain
        inputs["mode"] = "endpoint_fan"
        inputs["first_level"] = info.first_level
        center = _endpoint_walk(x0.numerator, x0.denominator, depth)
        return _endpoint_fan_report("non_extremum", x0, center, delta, fan_budget, inputs)

    inputs["mode"] = "interior_chain"
    side, y, err = _walk_chain(info, depth, x0 - delta, x0 + delta)
    if side is None:
        return make_report("non_extremum", inputs, [(x0, info.partial_sum(1))], [], error=err)
    k, s, a = side
    v = info.iterate(k + 1)
    # pull back the points of the teeth beside y's tooth whose image is v
    j0 = level1_ids_at(y)[0]
    teeth = map(tooth, (j0 - 1, j0 + 1))  # (slope, intercept) of each
    x1, x2 = sorted(x0 + ((v - c) / t - y) / s for t, c in teeth)
    (s1, v1), (s2, v2) = _sum_and_tail(x1, k), _sum_and_tail(x2, k)
    s0 = info.partial_sum(k)
    certificate = [
        check("left_tail_matches", "==", v1, v),
        check("right_tail_matches", "==", v2, v),
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
    inputs = {"a": a, "b": b, "depth": depth, "fan_budget": fan_budget}
    if info.first_level is not None:  # an endpoint: walked again to fold its chain
        inputs["mode"] = "midpoint_fan"
        anchor = mid
        center = _endpoint_walk(mid.numerator, mid.denominator, depth)
        v0, sides, _fx0 = _endpoint(mid.denominator, center)
        delta = mid - a  # = b - mid
    else:
        inputs["mode"] = "chain_cell_fan"
        side, y, err = _walk_chain(info, depth, a, b)
        if side is None:
            return make_report("non_monotone", inputs, [], [], error=err)
        m, s, _a = side
        v0 = -1 if s > 0 else 1  # f_m at the chain cell's left end
        anchor = mid + (v0 - y) / s
        delta = Fraction(2, abs(s))
        sides = [side]
    k = sides[0][0] + 1
    above = below = None
    for side in sides:
        above, below = _fan_scan(side, anchor, v0, delta, fan_budget)
        if above is not None and below is not None:
            break
    if above is None or below is None:
        return make_report(
            "non_monotone", inputs, [(anchor, _sum_and_tail(anchor, k)[0])], [],
            error="fan budget exhausted before a same-side pair appeared",
        )
    triple = sorted((x, *_sum_and_tail(x, k)) for x in (anchor, above, below))
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

    Reads the walk's integer node of every cell whose ids stay within the
    index budget and checks, each bound cross-multiplied: affinity of the
    iterate on each cell (probed against plain iteration), onto [-1, 1]
    with opposite endpoint values, child fans tiling their parent with the
    exact shortfall, length decay 2^(1-level), the self-similarity of child
    fans under the parent's unit-interval map (the fan's length too), the
    total length at level k against covered_length, and locate round-trips
    at level-k midpoints, the one Fraction built per cell.  Each fan is
    checked as the walk enters its parent; a cell not addressed under that
    parent is a tiling failure.  The certificate aggregates exact mismatch
    counts (all must be zero) and the exact coverage identities.
    """
    require_at_least(k, 1, "level k")
    require_at_least(index_budget, 1, "index budget")
    require_family_size(k, index_budget)  # before any cell is built
    # self-similarity: the parent's unit-interval map x -> (x - sign(S) C)/|S|
    # carries the level-1 family, (lo, hi, n) for [lo/n, hi/n] in ascending
    # ids, onto each child fan, so the fan pulled back must be that family
    level1 = [(-c - 1, 1 - c, s) if s > 0 else (c - 1, c + 1, -s)
              for s, c in map(tooth, range(-index_budget, index_budget + 1))]

    affinity_mismatches = 0
    onto_failures = 0
    length_violations = 0
    tiling_failures = 0
    family_mismatches = 0
    locate_mismatches = 0
    sizes: dict[int, int] = {}  # level-k cells per |S|
    for (address, S, C, lo, hi), fan in _walk((index_budget,) * k, ROOT.lo, ROOT.hi):
        if not fan:  # leaving a cell, or a level-k cell
            continue
        # every bound is a numerator over its node's |S|: cross-multiplied
        N, ns = abs(S), [abs(f[1]) for f in fan]
        (lo_0, n_0), (hi_z, n_z) = (fan[0][3], ns[0]), (fan[-1][4], ns[-1])
        if not (lo * n_0 < lo_0 * N and hi_z * N < hi * n_z):
            tiling_failures += 1
        tiling_failures += sum(f[4] * n_g != g[3] * n_f
                               for f, g, n_f, n_g in zip(fan, fan[1:], ns, ns[1:]))
        tiling_failures += sum(f[0][:-1] != address for f in fan)
        # the parent's length 2/N less the fan's span is 2/(N (B + 2))
        if (2 * n_0 * n_z - (hi_z * n_0 - lo_0 * n_z) * N) * (index_budget + 2) != 2 * n_0 * n_z:
            tiling_failures += 1
        # a fan end p/n pulls back to (p N + shift n)/n, compared with the
        # family's end a/b by cross-multiplying
        shift = C if S > 0 else -C
        if len(fan) != len(level1) or any(
            (f[3] * N + shift * n) * b != a * n or (f[4] * N + shift * n) * b != c * n
            for f, n, (a, c, b) in zip(fan, ns, level1)
        ):
            family_mismatches += 1
        for (address_f, S_f, C_f, _lo, _hi), n in zip(fan, ns):
            # numerators over d = 3|S|: lo, lo + L/3, midpoint, lo + 2L/3 and
            # hi are base + 0, 2, 3, 4 and 6; affinity expects 0 at the midpoint
            lvl, d = len(address_f), 3 * n
            base = -3 * C_f - 3 if S_f > 0 else 3 * C_f - 3
            p0, p2, p3, p4, p6 = base, base + 2, base + 3, base + 4, base + 6
            for _ in range(lvl):  # 0 and +-d both map to 0: no early stop
                p0, p2, p3, p4, p6 = (f1_step(p0, d)[0], f1_step(p2, d)[0], f1_step(p3, d)[0],
                                      f1_step(p4, d)[0], f1_step(p6, d)[0])
            e = S_f * base + C_f * d  # S x + C at lo, over d
            affinity_mismatches += (p2 != e + 2 * S_f) + (p3 != e + 3 * S_f) + (p4 != e + 4 * S_f)
            if {p0, p6} != {-d, d}:
                onto_failures += 1
            if n < 2**lvl:  # length 2/|S| > 2^(1-lvl)
                length_violations += 1
            if lvl == k:
                sizes[n] = sizes.get(n, 0) + 1
                if locate(Fraction(-C_f, S_f), k) != [address_f]:  # the midpoint
                    locate_mismatches += 1
    scale = lcm(*sizes)  # the level-k lengths 2/n summed over one denominator
    total = Fraction(sum(2 * count * (scale // n) for n, count in sizes.items()), scale)

    expected_total = covered_length(k, index_budget)

    certificate = [
        check("affinity_mismatches", "==", affinity_mismatches, 0),
        check("onto_failures", "==", onto_failures, 0),
        check("length_violations", "==", length_violations, 0),
        check("tiling_failures", "==", tiling_failures, 0),
        check("self_similarity_mismatches", "==", family_mismatches, 0),
        check("locate_mismatches", "==", locate_mismatches, 0),
        check("level_k_cell_count", "==", sum(sizes.values()), (2 * index_budget + 1) ** k),
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
