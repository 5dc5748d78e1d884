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
so every orbit and layer walk is a plain loop over one integer step,
``f1_step``: it finds the tooth once and returns the next numerator and the
slope of the leftmost closed tooth holding p/q; an ``orbit`` record keeps
both.  No Fraction is built per step, and a partial sum is one integer
Horner sum over the numerators, divided by q 2^m once at the end.  A walk
that needs only the sum and the last iterate (``eval_f``, the verifier's
fan witnesses) keeps no record: ``_horner_walk`` sums as it steps, and
``_endpoint_walk`` also folds the slopes of a cell endpoint's chain.

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


class DomainError(ValueError):
    """An argument lies outside the stated domain of an operation."""


def as_rational(value: RatLike) -> Rat:
    """Coerce ``value`` to an exact rational; floats are refused outright.
    The one parser of text, for the library and the CLI alike: 'p/q' or a
    terminating decimal whose exponent is at most MAX_DECIMAL_EXPONENT in
    magnitude ("1e-5000"); other text raises DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # the common case, "-?digits/digits" in ASCII, read on integers
            numerator, slash, denominator = value.partition("/")
            digits = numerator[1:] if numerator[:1] == "-" else numerator
            if slash and digits.isdigit() and denominator.isdigit() and value.isascii():
                return Fraction(int(numerator), int(denominator))
            _, _, exponent = value.strip().lower().partition("e")
            if not exponent or abs(int(exponent)) <= MAX_DECIMAL_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not an exact rational: {value!r}") from exc
        # refused before Fraction computes the power of ten
        raise DomainError(
            f"decimal exponent of {value!r} is out of range (limit {MAX_DECIMAL_EXPONENT})"
        )
    if isinstance(value, float):
        raise TypeError(
            "float rejected: this library is exact, pass Fraction, int or 'p/q' string"
        )
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

#: Largest exponent magnitude of a decimal argument ("1e-5000"): its power of
#: ten is computed in full, so a few characters could ask for millions of
#: digits, past the digit limit that guards the same number written out.
MAX_DECIMAL_EXPONENT = 10_000


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


def f1_step(p: int, q: int) -> tuple[int, int]:
    """(p', s) for y = p/q, q >= 1, |p| <= q: p'/q = f_1(y) and s the slope
    of the leftmost closed tooth holding y; the module's one base-map formula.

    2y, slope 2 on (-1/2, 1/2).  On tooth n = q // d, d = q - |p|, that is
    [1 - 1/n, 1 - 1/(n+1)), a line from (-1)^n to (-1)^(n+1) of slope
    (-1)^(n+1) 2n(n+1), worth (-1)^n (q - 2(n+1) r) / q at r = q - n d; odd
    in y.  At |y| = 1 - 1/n (r = 0) the leftmost tooth is tooth n - 1 (the
    ramp for n = 2) if p > 0, the mirror of tooth n if p < 0.  +-1 lies on
    no tooth and maps to 0 with slope 0.
    """
    a = -p if p < 0 else p
    if 2 * a < q:
        return 2 * p, 2
    d = q - a
    if d == 0:
        return 0, 0
    n = q // d
    r = q - n * d
    value = q - 2 * (n + 1) * r
    if n % 2 != (p < 0):  # the sign (-1)^n, flipped for p < 0
        value = -value
    if r == 0 and p > 0:  # the tooth to the left of 1 - 1/n
        n -= 1
    s = 2 * n * (n + 1)
    return value, 2 if n == 1 else s if n % 2 else -s


def iterate_numerator(p: int, q: int, k: int) -> int:
    """Numerator over q of f_k(p/q), for q >= 1, |p| <= q and k >= 0."""
    for _ in range(k):
        p = f1_step(p, q)[0]
        if p == 0:
            break
    return p


def eval_f1(x: RatLike) -> Rat:
    """Exact value of the base sawtooth map at x in [-1, 1]: one ``f1_step``."""
    x = require_unit_interval(as_rational(x))
    q = x.denominator
    return Fraction(f1_step(x.numerator, q)[0], q)


# ---------------------------------------------------------------------------
# orbits under the base map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitInfo:
    """Forward orbit of a point under the base map, tracked until absorption.

    ``numerators`` holds the iterates y_1, y_2, ... (y_0 = start is not
    included) as integers over ``start``'s denominator q; ``values`` gives
    them as Fractions.  ``slopes`` holds s_0, s_1, ...: s_i is the slope of
    the leftmost closed tooth holding y_i (0 at +-1), so s_0 ... s_(m-1) is
    the slope of f_m on the leftmost level-m cell holding start, the one
    the witnesses' cell chains follow.  ``absorbed_step`` is the first index
    m (1-based) with y_m in {-1, 0, +1}, the last iterate kept, or None if
    no iterate reached an absorbing value within the depth walked.
    Denominators never grow along an orbit, so an orbit either absorbs or
    cycles forever; a None here means the point's series value keeps a
    nonzero certified radius at every depth.
    """

    start: Rat
    numerators: tuple[int, ...]
    slopes: tuple[int, ...]
    absorbed_step: Optional[int]

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
        acc = 0  # Horner's rule: acc / (q 2^m) over the m terms read
        for p in self.numerators[:K]:
            acc = 2 * acc + p
        return Fraction(acc, self.start.denominator << min(K, len(self.numerators)))


def orbit(x: RatLike, depth: int) -> OrbitInfo:
    """Iterate the base map up to ``depth`` times, stopping at {-1, 0, +1}."""
    x = require_unit_interval(as_rational(x))
    require_depth(depth)
    p, q = x.numerator, x.denominator
    numerators: list[int] = []
    slopes: list[int] = []
    for _ in range(depth):
        p, s = f1_step(p, q)
        numerators.append(p)
        slopes.append(s)
        if p == 0 or abs(p) == q:
            return OrbitInfo(x, tuple(numerators), tuple(slopes), len(numerators))
    return OrbitInfo(x, tuple(numerators), tuple(slopes), None)


def eval_fk(x: RatLike, k: int) -> Rat:
    """Exact k-th iterate of the base map, k >= 1."""
    x = require_unit_interval(as_rational(x))
    require_at_least(k, 1, "iterate index k")
    q = x.denominator
    return Fraction(iterate_numerator(x.numerator, q, k), q)


# ---------------------------------------------------------------------------
# the series
# ---------------------------------------------------------------------------


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
    q = x.denominator
    acc, m, p = _horner_walk(x.numerator, q, K)
    if p == 0 or abs(p) == q:  # every later term vanishes
        return Certified(Fraction(acc, q << m), ZERO)
    return Certified(Fraction(acc, q << K), Fraction(1, 2**K))


def _horner_walk(p: int, q: int, K: int) -> tuple[int, int, int]:
    """(acc, m, p_m) for y = p/q, q >= 1, |p| <= q and K >= 1: the walk of
    y for at most K steps, stopped after the first iterate in {-q, 0, q}.
    acc / (q 2^m) is the m-term partial sum, and p_m / q is f_m(y), the last
    iterate walked; if m < K, every iterate past m is 0."""
    acc = 0
    for m in range(1, K + 1):
        p = f1_step(p, q)[0]
        acc = 2 * acc + p
        if p == 0 or abs(p) == q:
            return acc, m, p
    return acc, K, p


def _sum_and_tail(x: Rat, k: int) -> tuple[Rat, Rat]:
    """(k-term partial sum, f_(k+1)(x)) off one ``_horner_walk`` of x for
    k + 1 steps; past an absorption at step m <= k every iterate is 0."""
    q = x.denominator
    acc, m, p = _horner_walk(x.numerator, q, k + 1)
    if m <= k:
        return Fraction(acc, q << m), ZERO
    return Fraction((acc - p) // 2, q << k), Fraction(p, q)


def _endpoint_walk(p: int, q: int, depth: int) -> Optional[tuple[int, int, int, int, int, int]]:
    """(m, acc, s, a, p_(m-1), p_m) for x0 = p/q, q >= 1 and |p| <= q: the
    walk of x0 for at most ``depth`` steps to its first iterate p_m / q at
    +-1; m = 0 (and p_(-1) = p) at x0 = +-1.  acc / (q 2^m) is the m-term
    partial sum; over every step but the last, s = S_(m-1) is the product of
    the tooth slopes, S_i = s_0 ... s_(i-1) being the slope of f_i at x0, and
    a = sum_{1<=i<m} S_i 2^(m-1-i) their Horner sum.  None where
    ``orbit(x0, depth).first_level`` is None: the walk reached 0 first or ran
    out of depth."""
    if p == q or p == -q:
        return 0, 0, 1, 0, p, p
    acc, s, a = 0, 1, 0
    for m in range(1, depth + 1):
        before = p
        p, slope = f1_step(p, q)
        acc = 2 * acc + p
        if p == q or p == -q:
            return m, acc, s, a, before, p
        if p == 0:
            return None
        s *= slope
        a = 2 * a + s
    return None


def partial_sum(x: RatLike, K: int) -> Rat:
    """Exact K-term weighted sum of iterates: sum_{k=1..K} f_k(x) / 2^k."""
    return eval_f(x, K).center


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
