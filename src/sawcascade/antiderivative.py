"""Layerwise antiderivatives, certified integrals, and a Darboux bound.

Each layer of the cascade has an exact running integral from -1: layer 0
(the identity map) integrates to (x^2 - 1)/2, and the running integral of a
deeper layer restricted to a tooth is the previous layer's running integral,
composed with the base map and divided by the tooth's slope.  The division
is legitimate because every complete tooth to the left carries zero net
area, so only the tooth containing x contributes; both conventions agree at
tooth endpoints since every layer's running integral vanishes at +-1.
Unrolled along the orbit y_0 = x, y_1, y_2, ... of x under the base map,
this gives F_k(x) = F_0(y_k) / prod_{i<k} slope(y_i), so every layer
integral up to K is read off one walk of K steps.

The walk runs on integers: with x = p_0/q the orbit is y_k = p_k/q over
the same q, every tooth slope s_i is an integer (p_(i+1) and s_i, the
leftmost tooth's, come from one ``construction.f1_step``), and
F_0(y_k) = (p_k^2 - q^2) / (2 q^2).  So F_k(x) is one Fraction built from
p_k and the slope product, and the weighted sum below is an integer
Horner recurrence with one Fraction at the end.

Summing layers k = 1..K with weights 2^-k gives the running integral of the
truncated series exactly; the dropped tail integrates to at most 2^-K over
an interval of length at most 2, which is the certified radius 2^(1-K).

``enclose_integral`` is the independent oracle: it never uses the orbit
relation above, only cell geometry (exact trapezoids on cells, plus a
rigorous charge of +-1 per unit of length not covered by the enumerated
cells).

``darboux_gap`` bounds U - L, the upper minus the lower Darboux sum of the
series on one partition of [-1, 1], in closed form: f is Riemann integrable.
"""

from __future__ import annotations

from fractions import Fraction

from sawcascade.cells import cell, locate
from sawcascade.construction import (
    ZERO,
    Certified,
    DomainError,
    Rat,
    RatLike,
    as_rational,
    f1_step,
    require_at_least,
    require_layer_index,
    require_unit_interval,
)
from sawcascade.reports import WitnessReport, check, make_report


# ---------------------------------------------------------------------------
# layer antiderivatives
# ---------------------------------------------------------------------------


def eval_F0(x: RatLike) -> Rat:
    """Running integral of the identity layer from -1: (x^2 - 1)/2."""
    x = require_unit_interval(as_rational(x))
    return (x * x - 1) / 2


def eval_Fk(x: RatLike, k: int) -> Rat:
    """Exact running integral from -1 of layer k at x (k >= 0).

    The layer-(k-1) running integral at the base map's value, divided by the
    slope of the tooth containing x; +-1 map to 0.  At a shared tooth
    endpoint both teeth give the same value because the inner running
    integral vanishes at +-1.  Unrolled along one walk of the orbit:
    F_k(x) = (p_k^2 - q^2) / (2 q^2 prod_{i<k} s_i).
    """
    x = require_unit_interval(as_rational(x))
    require_at_least(k, 0, "layer index")
    if k == 0:
        return eval_F0(x)
    p, q, slopes = x.numerator, x.denominator, 1
    for _ in range(k):
        if abs(p) == q:  # x is a cell endpoint, where every deeper layer vanishes
            return ZERO
        p, s = f1_step(p, q)
        slopes *= s
    return Fraction(p * p - q * q, 2 * q * q * slopes)


# ---------------------------------------------------------------------------
# independent certified integral oracle
# ---------------------------------------------------------------------------


def covered_length(k: int, index_budget: int) -> Rat:
    """Exact total length of all level-k cells with coordinates <= budget.

    Level 1 with ids |j| <= B covers 2(1 - 1/(B+2)) of [-1, 1]; each deeper
    coordinate multiplies the covered fraction by the same factor, because a
    cell's child fan covers that fraction of the cell.  Telescoping gives
    2 * (1 - 1/(B+2))^k with no enumeration.
    """
    require_at_least(k, 1, "level k")
    require_layer_index("level k", k)
    require_at_least(index_budget, 0, "index budget")
    factor = 1 - Fraction(1, index_budget + 2)
    return 2 * factor**k


def enclose_integral(k: int, upto: RatLike, index_budget: int) -> Certified:
    """Certified enclosure of the integral of layer k over [-1, upto].

    Built purely from cell geometry: the layer is affine on each level-k
    cell with endpoint values -1 and +1, so every complete cell contributes
    a trapezoid of exactly zero and only the clipped cell containing
    ``upto`` contributes a nonzero trapezoid.  Length not covered by cells
    within the index budget is charged +-1 (the layer's exact sup bound),
    capped by the window length.  Wider budgets only shrink the enclosure.
    """
    upto = require_unit_interval(as_rational(upto), "upto")
    gap = 2 - covered_length(k, index_budget)
    gap = min(gap, upto + 1)
    trapezoid = ZERO
    if upto > -1:
        for address in locate(upto, k)[:1]:
            if all(abs(j) <= index_budget for j in address):
                c = cell(address)
                trapezoid = (
                    (c.value_at(c.lo) + c.value_at(upto)) / 2 * (upto - c.lo)
                )
    return Certified(trapezoid, gap)


# ---------------------------------------------------------------------------
# series antiderivative
# ---------------------------------------------------------------------------


def _layer_sum(x: Rat, K: int) -> tuple[int, int]:
    """The exact sum of the first K weighted layer integrals at x as acc / D,
    on integers: Horner's rule gives acc = t acc + p_k^2 - q^2 and
    D = 2 q^2 prod t over the steps k = 1..K, with t = 2 s_(k-1)."""
    p, q = x.numerator, x.denominator
    q2 = q * q
    acc, D = 0, 2 * q2
    for _ in range(K):
        if abs(p) == q:  # every deeper layer vanishes at a cell endpoint
            break
        p, s = f1_step(p, q)
        t = 2 * s
        acc = acc * t + p * p - q2
        D *= t
    return acc, D


def eval_F(x: RatLike, K: int) -> Certified:
    """Certified running integral from -1 of the full series at x.

    Center: exact sum of the first K weighted layer integrals, the integer
    quotient acc / D of ``_layer_sum``, so one Fraction is built per call.
    Radius: the dropped layers have sup at most 2^-K in total, integrated
    over a window of length at most 2, hence 2^(1-K).
    """
    x = require_unit_interval(as_rational(x))
    require_at_least(K, 1, "truncation K")
    acc, D = _layer_sum(x, K)
    return Certified(Fraction(acc, D), Fraction(2, 2**K))


def normalization_center(K: int) -> Rat:
    """Exact K-term value at the origin: -(1/6)(1 - 4^-K).

    Layer k's running integral at 0 is -2^-(k+1); weighting by 2^-k and
    summing the geometric series over k = 1..K gives the closed form.
    """
    require_at_least(K, 1, "truncation K")
    return Fraction(1 - 4**K, 6 * 4**K)


def eval_G(x: RatLike, K: int) -> Certified:
    """Certified antiderivative of the signed series, anchored at 0.

    For x > 0 this is the running integral minus its value at 0; the signed
    series is even, so its antiderivative is odd and the x < 0 branch is the
    reflection.  Exactly 0 at x = 0.  With the running integral acc / D of
    ``_layer_sum`` and the anchor ``normalization_center(K)``, the center is
    +-(6 4^K acc - (1 - 4^K) D) / (6 4^K D), built as one Fraction.  Radius
    doubles: both the running integral and the anchor carry a 2^(1-K) tail.
    """
    x = require_unit_interval(as_rational(x))
    require_at_least(K, 1, "truncation K")
    if x == 0:
        return Certified(ZERO, ZERO)
    acc, D = _layer_sum(x, K)
    power = 4**K
    anchored = 6 * power * acc - (1 - power) * D
    center = Fraction(anchored if x > 0 else -anchored, 6 * power * D)
    return Certified(center, Fraction(4, 2**K))


# ---------------------------------------------------------------------------
# Riemann integrability: a closed-form bound on U - L
# ---------------------------------------------------------------------------


def darboux_gap(level: int, index_budget: int) -> Rat:
    """Exact upper bound on U(P) - L(P) for the full series over [-1, 1].

    P is the partition into the level-M cells (M = level) whose ids are all
    at most B = index_budget, plus the finitely many gaps between them.  On
    a level-M cell the M-term partial sum is affine with slope a/2^M, the
    cell has length 2/|s| and |a| <= M|s|, and the rest of the series is
    2^-M f(f_M), so osc(f) <= (2M + 2)/2^M there; on a gap osc(f) <= 2,
    since |f| <= 1.  With c = covered_length(M, B) the bound is
    (2M + 2) c / 2^M + 2 (2 - c): no cell is built.
    """
    c = covered_length(level, index_budget)
    return Fraction(2 * level + 2, 2**level) * c + 2 * (2 - c)


# ---------------------------------------------------------------------------
# growth bound of the layer integrals near -1
# ---------------------------------------------------------------------------


def quotient_bound_check(k: int, n: int, x: RatLike) -> WitnessReport:
    """Certify |layer-k running integral| / (x + 1) <= 1/n on the n-th band.

    The band is 1/(n+1) - 1 < x <= 1/n - 1 (so x + 1 is the distance to the
    left domain end, between 1/(n+1) and 1/n).  The running integral from -1
    of any layer is bounded by the integrated sup over [-1, x], and the
    cancellation across complete mirrored teeth sharpens this to the stated
    reciprocal bound; here the inequality is certified exactly at x.
    """
    require_at_least(k, 1, "layer index")
    require_at_least(n, 1, "band index")
    x = as_rational(x)
    band_lo, band_hi = Fraction(-n, n + 1), Fraction(1 - n, n)
    if not (band_lo < x <= band_hi):
        raise DomainError(
            f"x must lie in ({band_lo}, {band_hi}] for band n={n}, got {x}"
        )
    value = eval_Fk(x, k)
    # |p/q| / (x + 1) with x + 1 = (a + b)/b > 0
    a, b = x.numerator, x.denominator
    quotient = Fraction(abs(value.numerator) * b, value.denominator * (a + b))
    certificate = [
        check("band_lower", "<", band_lo, x),
        check("band_upper", "<=", x, band_hi),
        check("quotient_bounded", "<=", quotient, Fraction(1, n)),
    ]
    return make_report(
        kind="quotient_bound",
        inputs={"k": k, "n": n, "x": x},
        points=[(x, value)],
        certificate=certificate,
    )
