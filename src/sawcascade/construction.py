"""Exact evaluation of the sawtooth cascade and its signed variant.

The base map is an odd piecewise-linear sawtooth on [-1, 1]: it climbs from
0 to 1 on [0, 1/2], then zigzags between -1 and +1 across shrinking teeth
[1 - 1/n, 1 - 1/(n+1)] that accumulate at 1, where the map is pinned to 0.
The negative half is the odd reflection, so both endpoints and the origin
map to 0.

Iterating the base map and summing the iterates with weights 2^-k yields a
bounded series whose partial sums are exact rationals.  The three values
{-1, 0, +1} all map to 0 and 0 is fixed, so once an orbit lands there every
later term of the series vanishes and the series value itself becomes an
exact rational.  Otherwise the dropped tail is bounded by 2^-K in absolute
value, which is the certified radius reported by ``eval_f``.

No float ever enters or leaves this module: every scalar is a
``fractions.Fraction`` (or an int, coerced exactly), and every comparison
is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rat = Fraction
RatLike = Union[Rat, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: Values whose entire forward orbit is {0}: each maps to 0 and 0 is fixed.
ABSORBING_VALUES = (Fraction(-1), ZERO, ONE)


class DomainError(ValueError):
    """An argument lies outside the stated domain of an operation."""


def as_rational(value: RatLike) -> Rat:
    """Coerce ``value`` to an exact rational; floats are refused outright."""
    if isinstance(value, float):
        raise TypeError(
            "float rejected: this library is exact, pass Fraction, int or 'p/q' string"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def require_unit_interval(x: Rat, what: str = "x") -> Rat:
    """Check -1 <= x <= 1 and return x."""
    if x < -1 or x > 1:
        raise DomainError(f"{what} must lie in [-1, 1], got {x}")
    return x


# ---------------------------------------------------------------------------
# base map
# ---------------------------------------------------------------------------


def tooth_index(x: Rat) -> int:
    """For x in [1/2, 1), the unique n >= 2 with 1 - 1/n <= x < 1 - 1/(n+1).

    Equals floor(1/(1-x)), computed exactly from the reduced fraction.
    """
    if not (HALF <= x < 1):
        raise DomainError(f"tooth index needs x in [1/2, 1), got {x}")
    return x.denominator // (x.denominator - x.numerator)


def eval_f1(x: RatLike) -> Rat:
    """Exact value of the base sawtooth map at x in [-1, 1].

    Piecewise: 2x on [0, 1/2); on tooth n (that is, [1 - 1/n, 1 - 1/(n+1))
    for n >= 2) the value is (-1)^n (1 - 2t) where t in [0, 1) is the
    position within the tooth rescaled to unit length; 0 at x = 1; odd
    reflection for x < 0.  Range is [-1, 1].
    """
    x = require_unit_interval(as_rational(x))
    if x < 0:
        return -eval_f1(-x)
    if x == 0 or x == 1:
        return ZERO
    if x < HALF:
        return 2 * x
    n = tooth_index(x)
    t = (x - 1 + Fraction(1, n)) * n * (n + 1)
    value = 1 - 2 * t
    return value if n % 2 == 0 else -value


# ---------------------------------------------------------------------------
# orbits under the base map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitInfo:
    """Forward orbit of a point under the base map, tracked until absorption.

    ``values`` holds the iterates y_1, y_2, ... (y_0 = start is not
    included).  ``absorbed_step`` is the first index m (1-based) with
    y_m in {-1, 0, +1}, or None if no iterate reached an absorbing value
    within ``depth_limit`` steps.  Denominators never grow along an orbit,
    so an orbit either absorbs or cycles forever; a None here means the
    point's series value keeps a nonzero certified radius at every depth.
    """

    start: Rat
    values: tuple[Rat, ...]
    absorbed_step: Optional[int]
    absorber: Optional[Rat]
    depth_limit: int

    @property
    def absorbed(self) -> bool:
        return self.absorbed_step is not None


def orbit(x: RatLike, depth: int) -> OrbitInfo:
    """Iterate the base map up to ``depth`` times, stopping at {-1, 0, +1}."""
    x = require_unit_interval(as_rational(x))
    if depth < 1:
        raise DomainError(f"depth must be a positive integer, got {depth}")
    values: list[Rat] = []
    y = x
    for _ in range(depth):
        y = eval_f1(y)
        values.append(y)
        if y in ABSORBING_VALUES:
            return OrbitInfo(x, tuple(values), len(values), y, depth)
    return OrbitInfo(x, tuple(values), None, None, depth)


def eval_fk(x: RatLike, k: int) -> Rat:
    """Exact k-th iterate of the base map, k >= 1."""
    x = require_unit_interval(as_rational(x))
    if k < 1:
        raise DomainError(f"iterate index k must be >= 1, got {k}")
    y = x
    for _ in range(k):
        if y == 0:
            return ZERO
        y = eval_f1(y)
    return y


# ---------------------------------------------------------------------------
# the series
# ---------------------------------------------------------------------------


def partial_sum(x: RatLike, K: int) -> Rat:
    """Exact K-term weighted sum of iterates: sum_{k=1..K} f_k(x) / 2^k."""
    x = require_unit_interval(as_rational(x))
    if K < 1:
        raise DomainError(f"truncation K must be >= 1, got {K}")
    total = ZERO
    y = x
    weight = ONE
    for _ in range(K):
        y = eval_f1(y)
        weight /= 2
        if y == 0:
            break
        total += y * weight
    return total


@dataclass(frozen=True)
class Certified:
    """Center-radius enclosure with exact rational endpoints.

    Radius 0 marks an exact value.  The enclosed quantity q satisfies
    |q - center| <= radius, both comparisons exact.
    """

    center: Rat
    radius: Rat

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    @property
    def exact(self) -> bool:
        return self.radius == 0

    @property
    def lower(self) -> Rat:
        return self.center - self.radius

    @property
    def upper(self) -> Rat:
        return self.center + self.radius

    @property
    def width(self) -> Rat:
        return 2 * self.radius

    def contains(self, value: RatLike) -> bool:
        return abs(as_rational(value) - self.center) <= self.radius


def eval_f(x: RatLike, K: int) -> Certified:
    """Certified enclosure of the full series at x, truncated after K terms.

    If the orbit of x absorbs at step m <= K the value is exact: every term
    past m vanishes, so the m-term partial sum is the series.  Otherwise the
    center is the K-term partial sum and the dropped tail is bounded by
    sum_{k>K} 2^-k = 2^-K.
    """
    x = require_unit_interval(as_rational(x))
    if K < 1:
        raise DomainError(f"truncation K must be >= 1, got {K}")
    info = orbit(x, K)
    if info.absorbed:
        return Certified(partial_sum(x, info.absorbed_step), ZERO)
    return Certified(partial_sum(x, K), Fraction(1, 2**K))


def eval_g(x: RatLike, K: int) -> Certified:
    """Certified enclosure of the signed series: the series times sign(x).

    At x = 0 the value is exactly 0 by convention (the sign factor is 0).
    """
    x = require_unit_interval(as_rational(x))
    if x == 0:
        return Certified(ZERO, ZERO)
    base = eval_f(x, K)
    if x > 0:
        return base
    return Certified(-base.center, base.radius)
