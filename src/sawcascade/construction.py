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

The base map sends p/q to p'/q with the same denominator q and |p'| <= q,
so an orbit is walked on integer numerators over one fixed q
(``f1_numerator``): no Fraction is built per step, and a partial sum is one
integer Horner sum over the numerators, divided by q 2^m once at the end.

No float ever enters or leaves this module: every scalar is a
``fractions.Fraction`` (or an int, coerced exactly), and every comparison
is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

Rat = Fraction
RatLike = Union[Rat, int, str]

ZERO = Fraction(0)


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
    """Check -1 <= x <= 1, that is |p| <= q for x = p/q, and return x."""
    if abs(x.numerator) > x.denominator:
        raise DomainError(f"{what} must lie in [-1, 1], got {x}")
    return x


def require_depth(depth: int) -> int:
    """Check that an orbit depth is positive and return it."""
    if depth < 1:
        raise DomainError(f"depth must be a positive integer, got {depth}")
    return depth


#: Largest layer index or orbit depth a command accepts: each orbit walk takes
#: one step per layer, so an unbounded index would hang the command.
MAX_LAYER_INDEX = 5000


def require_layer_index(flag: str, index: int) -> int:
    """Check a layer index or depth against MAX_LAYER_INDEX and return it."""
    if index > MAX_LAYER_INDEX:
        raise DomainError(f"{flag} must be at most {MAX_LAYER_INDEX}, got {index}")
    return index


def require_at_least(value: int, floor: int, what: str) -> int:
    """Check an integer setting against its floor and return it."""
    if value < floor:
        raise DomainError(f"{what} must be >= {floor}, got {value}")
    return value


# ---------------------------------------------------------------------------
# base map
# ---------------------------------------------------------------------------


def f1_numerator(p: int, q: int) -> int:
    """Numerator over the same q of f_1(p/q), for q >= 1 and |p| <= q.

    This integer step is the module's one formula for the base map.  On
    [0, 1/2) the map doubles: 2p.  On tooth n = q // (q - p), that is
    [1 - 1/n, 1 - 1/(n+1)) for n >= 2, it falls (n even) or rises (n odd)
    linearly from (-1)^n to (-1)^(n+1): +-((2n^2 - 1) q - 2n(n+1) p).  The
    points 0 and +-q map to 0, and negative p is the odd reflection.  The
    result again lies in [-q, q], so an orbit never leaves denominator q.
    """
    a = -p if p < 0 else p
    if 2 * a < q:
        return 2 * p
    if a == q:
        return 0
    n = q // (q - a)
    value = (2 * n * n - 1) * q - 2 * n * (n + 1) * a
    if n % 2:
        value = -value
    return -value if p < 0 else value


def eval_f1(x: RatLike) -> Rat:
    """Exact value of the base sawtooth map at x in [-1, 1].

    Piecewise: 2x on [0, 1/2); on tooth n (that is, [1 - 1/n, 1 - 1/(n+1))
    for n >= 2) the value is (-1)^n (1 - 2t) where t in [0, 1) is the
    position within the tooth rescaled to unit length; 0 at x = 1; odd
    reflection for x < 0.  Range is [-1, 1].  One step of f1_numerator.
    """
    x = require_unit_interval(as_rational(x))
    q = x.denominator
    return Fraction(f1_numerator(x.numerator, q), q)


# ---------------------------------------------------------------------------
# orbits under the base map
# ---------------------------------------------------------------------------


def _numerators(p: int, q: int) -> Iterator[int]:
    """Numerators over q of f_1(p/q), f_2(p/q), ... (q >= 1, |p| <= q, any terms).

    This is the one place that applies the base map repeatedly; every orbit
    consumer reads it.  The walk ends right after the first 0: 0 is fixed,
    so every later iterate is 0 and adds nothing to any sum.  An orbit that
    never reaches 0 is endless, so callers bound it (``islice``).
    """
    while True:
        p = f1_numerator(p, q)
        yield p
        if p == 0:
            return


def _horner(numerators: Iterable[int], q: int) -> Rat:
    """sum_k p_k / (q 2^k) over the numerators p_1, p_2, ... given.

    Horner's rule on integers: acc = 2 acc + p_k over m terms leaves
    acc / (q 2^m), so one Fraction is built at the end.
    """
    acc = m = 0
    for p in numerators:
        acc = 2 * acc + p
        m += 1
    return Fraction(acc, q << m)


def iterates(x: RatLike) -> Iterator[Rat]:
    """The forward orbit f_1(x), f_2(x), ... of x, ending right after the first 0."""
    x = require_unit_interval(as_rational(x))
    q = x.denominator
    for p in _numerators(x.numerator, q):
        yield Fraction(p, q)


@dataclass(frozen=True)
class OrbitInfo:
    """Forward orbit of a point under the base map, tracked until absorption.

    ``numerators`` holds the iterates y_1, y_2, ... (y_0 = start is not
    included) as integers over ``start``'s denominator q; ``values`` gives
    them as Fractions.  ``absorbed_step`` is the first index m (1-based)
    with y_m in {-1, 0, +1}, or None if no iterate reached an absorbing
    value within the depth walked.  Denominators never grow along an
    orbit, so an orbit either absorbs or cycles forever; a None here means
    the point's series value keeps a nonzero certified radius at every depth.
    """

    start: Rat
    numerators: tuple[int, ...]
    absorbed_step: Optional[int]

    @property
    def absorber(self) -> Optional[Rat]:
        """The absorbing value y_m in {-1, 0, +1}, or None if not absorbed."""
        return Fraction(self.numerators[-1], self.start.denominator) if self.absorbed else None

    @property
    def values(self) -> tuple[Rat, ...]:
        q = self.start.denominator
        return tuple(Fraction(p, q) for p in self.numerators)

    @property
    def absorbed(self) -> bool:
        return self.absorbed_step is not None

    @property
    def first_level(self) -> Optional[int]:
        """1 + the first step whose iterate is +-1 (1 when start is +-1).

        None when the orbit absorbs at 0 or not at all within the record.
        """
        if abs(self.start.numerator) == self.start.denominator:  # start is +-1
            return 1
        return self.absorbed_step + 1 if self.absorbed and self.numerators[-1] else None

    def iterate(self, k: int) -> Rat:
        """The k-th iterate y_k (k >= 1); every iterate past an absorption is 0."""
        if 1 <= k <= len(self.numerators):
            return Fraction(self.numerators[k - 1], self.start.denominator)
        if k < 1 or not self.absorbed:
            raise DomainError(f"iterate {k} lies outside this orbit record")
        return ZERO

    def partial_sum(self, K: int) -> Rat:
        """sum_{k=1..K} y_k / 2^k, read off the record."""
        if K > len(self.numerators) and not self.absorbed:
            raise DomainError(f"{K} terms lie outside this orbit record")
        return _horner(self.numerators[:K], self.start.denominator)


def orbit(x: RatLike, depth: int) -> OrbitInfo:
    """Iterate the base map up to ``depth`` times, stopping at {-1, 0, +1}."""
    x = require_unit_interval(as_rational(x))
    require_depth(depth)
    q = x.denominator
    numerators: list[int] = []
    for p in islice(_numerators(x.numerator, q), depth):
        numerators.append(p)
        if p == 0 or abs(p) == q:
            return OrbitInfo(x, tuple(numerators), len(numerators))
    return OrbitInfo(x, tuple(numerators), None)


def eval_fk(x: RatLike, k: int) -> Rat:
    """Exact k-th iterate of the base map, k >= 1."""
    x = require_unit_interval(as_rational(x))
    require_at_least(k, 1, "iterate index k")
    q = x.denominator
    return Fraction(next(islice(_numerators(x.numerator, q), k - 1, None), 0), q)


# ---------------------------------------------------------------------------
# the series
# ---------------------------------------------------------------------------


def partial_sum(x: RatLike, K: int) -> Rat:
    """Exact K-term weighted sum of iterates: sum_{k=1..K} f_k(x) / 2^k."""
    x = require_unit_interval(as_rational(x))
    require_at_least(K, 1, "truncation K")
    return _horner(islice(_numerators(x.numerator, x.denominator), K), x.denominator)


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
    require_at_least(K, 1, "truncation K")
    info = orbit(x, K)
    return Certified(info.partial_sum(K), ZERO if info.absorbed else Fraction(1, 2**K))


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
