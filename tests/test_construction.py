"""Base map, orbits, and series evaluation.

The base-map oracle here is deliberately independent of the implementation:
it finds the containing tooth by linear scan and interpolates between the
tooth's endpoint values instead of using the closed rescaling formula.
A second oracle, ``reference_f1``, keeps that rescaling formula in Fraction
arithmetic; the integer orbit kernel (step, orbit record, iterate, sums)
is checked against it.
Expected values in the frozen tables were derived by hand from the piecewise
definition before the implementation existed.
"""

from __future__ import annotations

import random
import re
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawcascade.cells import level1_cell, level1_ids_at, level1_ids_of, tooth
from sawcascade.construction import (
    MAX_DECIMAL_EXPONENT,
    Certified,
    DomainError,
    _horner_walk,
    as_rational,
    eval_f,
    eval_f1,
    eval_fk,
    eval_g,
    f1_step,
    orbit,
    partial_sum,
)

F = Fraction

rationals_in_unit = st.fractions(
    min_value=F(-1), max_value=F(1), max_denominator=400
)


# ---------------------------------------------------------------------------
# independent oracle for the base map
# ---------------------------------------------------------------------------


def f1_oracle(x: Fraction) -> Fraction:
    """Base map via tooth scan + endpoint interpolation (no rescaling formula).

    Tooth n spans [1 - 1/n, 1 - 1/(n+1)] and the map is affine on it with
    value (-1)^n at the left end and (-1)^(n+1) at the right end.
    """
    if x < 0:
        return -f1_oracle(-x)
    if x in (0, 1):
        return F(0)
    if x < F(1, 2):
        return 2 * x
    n = 2
    while not (1 - F(1, n) <= x < 1 - F(1, n + 1)):
        n += 1
        assert n <= 4 * x.denominator, "scan failed to find the tooth"
    lo, hi = 1 - F(1, n), 1 - F(1, n + 1)
    vlo, vhi = F(-1) ** n, F(-1) ** (n + 1)
    return vlo + (vhi - vlo) * (x - lo) / (hi - lo)


def reference_f1(x: Fraction) -> Fraction:
    """Base map via the Fraction rescaling formula, step by step.

    On tooth n, t = (x - 1 + 1/n) n (n+1) in [0, 1) is the position within
    the tooth and the value is (-1)^n (1 - 2t).  The implementation walks
    integer numerators instead; this is its oracle.
    """
    if x < 0:
        return -reference_f1(-x)
    if x == 0 or x == 1:
        return F(0)
    if x < F(1, 2):
        return 2 * x
    n = x.denominator // (x.denominator - x.numerator)
    t = (x - 1 + F(1, n)) * n * (n + 1)
    value = 1 - 2 * t
    return value if n % 2 == 0 else -value


def reference_orbit(x: Fraction, steps: int) -> list[Fraction]:
    ys = []
    for _ in range(steps):
        x = reference_f1(x)
        ys.append(x)
    return ys


#: Random points plus the special ones: +-1, 0, +-1/2 and tooth endpoints.
kernel_points = st.one_of(
    rationals_in_unit,
    st.fractions(min_value=F(-1), max_value=F(1), max_denominator=10**9),
    st.sampled_from([F(1), F(-1), F(0), F(1, 2), F(-1, 2)]),
    st.builds(
        lambda n, sign: sign * (1 - F(1, n)),
        st.integers(2, 10**6),
        st.sampled_from([1, -1]),
    ),
)


FROZEN_F1 = [
    (F(0), F(0)),
    (F(1), F(0)),
    (F(-1), F(0)),
    (F(1, 4), F(1, 2)),
    (F(1, 2), F(1)),
    (F(7, 12), F(0)),
    (F(3, 5), F(-1, 5)),
    (F(7, 10), F(-1, 5)),
    (F(2, 3), F(-1)),
    (F(3, 4), F(1)),
    (F(5, 6), F(1)),
    (F(-1, 2), F(-1)),
    (F(-7, 10), F(1, 5)),
]


@pytest.mark.parametrize("x, expected", FROZEN_F1)
def test_f1_frozen_values(x, expected):
    assert eval_f1(x) == expected


@given(rationals_in_unit)
def test_f1_matches_scan_oracle(x):
    assert eval_f1(x) == f1_oracle(x)


@given(rationals_in_unit)
def test_f1_is_odd_and_bounded(x):
    assert eval_f1(-x) == -eval_f1(x)
    assert abs(eval_f1(x)) <= 1


@given(st.integers(1, 10**12).flatmap(
    lambda q: st.tuples(st.integers(-q, q), st.just(q))
))
def test_integer_step_matches_reference(pq):
    # q need not be the reduced denominator: the step keeps any q
    p, q = pq
    assert F(f1_step(p, q)[0], q) == reference_f1(F(p, q))
    assert abs(f1_step(p, q)[0]) <= q


@given(kernel_points)
def test_f1_matches_reference(x):
    assert eval_f1(x) == reference_f1(x)
    assert f1_step(x.numerator, x.denominator)[0] == reference_f1(x) * x.denominator


@given(kernel_points, st.integers(1, 40))
def test_orbit_kernel_matches_reference(x, steps):
    ys = reference_orbit(x, steps)
    info = orbit(x, steps)
    walked = list(info.values)
    # the record ends at the first iterate in {-1, 0, 1}, else after `steps`
    first = next((k for k, y in enumerate(ys, 1) if abs(y) in (0, 1)), None)
    assert walked == ys[: len(walked)]
    assert info.absorbed_step == first
    assert len(walked) == (first or steps)
    total = F(0)
    for k, y in enumerate(ys, 1):
        total += y / 2**k
        assert eval_fk(x, k) == y
        assert partial_sum(x, k) == total
        # exact once the orbit absorbs within k steps, else the 2^-k tail
        exact = first is not None and first <= k
        assert eval_f(x, k) == Certified(total, F(0) if exact else F(1, 2**k))
        if k <= len(info.numerators) or info.absorbed:
            assert info.iterate(k) == y
            assert info.partial_sum(k) == total


@given(kernel_points, st.integers(1, 40))
@example(F(1), 5)  # +-1 and 0 stop after one step
@example(F(-1), 1)
@example(F(0), 3)
@example(F(7, 10), 9)  # absorbs at step 4, before K
@example(F(7, 10), 4)  # absorbs at step K
@example(F(1, 7), 40)  # cycles, never absorbs
def test_horner_walk_matches_the_orbit_record(x, K):
    q = x.denominator
    acc, m, p = _horner_walk(x.numerator, q, K)
    info = orbit(x, K)
    assert m == len(info.numerators)
    assert F(acc, q << m) == info.partial_sum(K)
    assert (p if m == K else 0) == info.iterate(K) * q


# ---------------------------------------------------------------------------
# the cell-chain walk: numerator and leftmost-tooth slope per step
# ---------------------------------------------------------------------------


def reference_walk(x: Fraction, K: int) -> list[tuple[int, int]]:
    """(p_k, s_(k-1)) for k = 1..K from reference_f1 and the level-1 cells.

    s_(k-1) is the slope of the leftmost level-1 cell holding y_(k-1)
    (y_0 = x); the walk ends before the first step whose iterate is +-1,
    where no cell holds it.
    """
    q, y, pairs = x.denominator, x, []
    for _ in range(K):
        if abs(y) == 1:
            break
        s = level1_cell(level1_ids_at(y)[0]).slope
        y = reference_f1(y)
        pairs.append((y.numerator * (q // y.denominator), s))
    return pairs


def named_points() -> list[Fraction]:
    """0, +-1, +-1/2 and the tooth endpoints +-(n-1)/n for n <= 20."""
    points = [F(0), F(1), F(-1), F(1, 2), F(-1, 2)]
    for n in range(3, 21):
        points += [F(n - 1, n), F(1 - n, n)]
    return points


def small_points() -> list[Fraction]:
    """Every reduced p/q in [-1, 1] with q <= 64."""
    return [F(p, q) for q in range(1, 65) for p in range(-q, q + 1) if gcd(p, q) == 1]


def seeded_points(count: int = 300) -> list[Fraction]:
    """Seeded p/q in [-1, 1] with q <= 10^6, as the eval benchmark draws them."""
    rng = random.Random(13)
    points = []
    for _ in range(count):
        q = rng.randint(1, 10**6)
        points.append(F(rng.randint(-q, q), q))
    return points


@pytest.mark.parametrize("points", [named_points, small_points, seeded_points])
def test_orbit_record_matches_reference_walk(points):
    # the record keeps (p_k, s_(k-1)) per step, up to its first absorber
    for x in points():
        info = orbit(x, 60)
        walked = list(zip(info.numerators, info.slopes, strict=True))
        expected = reference_walk(x, 60)
        if abs(x) == 1:  # no tooth holds +-1: one step, to 0, of slope 0
            assert walked == [(0, 0)] and expected == [], x
            continue
        assert walked == expected[: len(walked)], x
        # past an absorption at 0 the reference stays on the middle ramp
        rest = expected[len(walked):]
        assert rest == ([(0, 2)] * len(rest) if info.numerators[-1] == 0 else []), x


def composed_step(p: int, q: int) -> tuple[int, int]:
    """The numerator over q of f_1(p/q) and the slope of the first level-1
    id at p/q, composed from reference_f1, level1_ids_of and tooth."""
    return reference_f1(F(p, q)) * q, tooth(level1_ids_of(p, q)[0])[0]


@pytest.mark.parametrize("points", [named_points, small_points, seeded_points])
@pytest.mark.parametrize("scale", [1, 3])
def test_step_matches_the_composed_step(points, scale):
    # p/q need not be in lowest terms along an orbit, hence the scale
    for x in points():
        p, q = scale * x.numerator, scale * x.denominator
        if abs(p) == q:  # no tooth holds +-1
            assert f1_step(p, q) == (0, 0)
        else:
            assert f1_step(p, q) == composed_step(p, q), (p, q)


def test_f1_rejects_floats_and_out_of_range():
    with pytest.raises(TypeError):
        eval_f1(0.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        eval_f1(F(3, 2))
    with pytest.raises(DomainError):
        eval_f1(-2)


def test_as_rational_refuses_a_decimal_exponent_past_its_bound_at_once():
    # the power of ten is never computed: eval_f("1e-3000000", 5) took a second
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        as_rational("1e-10001")
    assert str(info.value) == "decimal exponent of '1e-10001' is out of range (limit 10000)"
    with pytest.raises(DomainError, match="out of range"):
        eval_f("1e-3000000", 5)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "text", ["1/0", "pi", "1e5/3", "1" * 4301],
    ids=["zero-denominator", "word", "exponent-over-q", "past-the-digit-limit"],
)
def test_as_rational_refuses_text_that_is_no_exact_rational(text):
    with pytest.raises(DomainError, match=re.escape(f"not an exact rational: {text!r}")):
        as_rational(text)


@pytest.mark.parametrize(
    "text, value",
    [(" 1 ", F(1)), ("1e-10000", F(1, 10**10000)), ("-7/10", F(-7, 10)), ("2.5E+3", F(2500))],
)
def test_as_rational_takes_text_up_to_its_bounds(text, value):
    assert as_rational(text) == value


def _as_rational_before_the_integer_read(text: str) -> Fraction:
    """``as_rational`` on text as it was before 'p/q' was read on integers:
    every text through the exponent check and then ``Fraction(text)``."""
    try:
        _, _, exponent = text.strip().lower().partition("e")
        if not exponent or abs(int(exponent)) <= MAX_DECIMAL_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {text!r}") from exc
    raise DomainError(
        f"decimal exponent of {text!r} is out of range (limit {MAX_DECIMAL_EXPONENT})"
    )


#: Texts at the edge of the "-?digits/digits" form and just past it.
P_OVER_Q_EDGES = [
    "-0/5", "0/5", "007/0010", "-007/10", "1/0", "-1/0", "0/0", "--1/2", "1/-2", "+1/2",
    " 1/2", "1/2 ", "1_0/3", "3/1_0", "\u0661/\u0662", "1/\u0662", "\u00b9/2", "1/2/3", "/2",
    "1/", "-/2", "1/2e3", "1e3/2", "0.5/2", "1" * 5000 + "/3", "3/" + "7" * 5000,
]
P_OVER_Q_PIECES = st.one_of(
    st.integers(0, 10**30).map(str),
    st.sampled_from(["", "0", "00", "007", "1_0", "\u0663", "e5", "1" * 5000]),
)
P_OVER_Q_TEXTS = st.one_of(
    st.sampled_from(P_OVER_Q_EDGES),
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", "-", "+", "--", " "]),
        P_OVER_Q_PIECES,
        st.sampled_from(["/", "/", "", "//"]),
        st.sampled_from(["", "", "-", " "]),
        P_OVER_Q_PIECES,
    ),
)


@settings(max_examples=400, deadline=None)
@given(P_OVER_Q_TEXTS, st.booleans())
def test_as_rational_reads_p_over_q_text_as_before(text, lifted):
    # the same Fraction, or the same DomainError message, under the default
    # digit limit and with it lifted
    def outcome(parse):
        try:
            return parse(text)
        except DomainError as exc:
            return str(exc)

    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0 if lifted else default)
    try:
        got, want = outcome(as_rational), outcome(_as_rational_before_the_integer_read)
    finally:
        sys.set_int_max_str_digits(default)
    assert type(got) is type(want) and got == want


def test_as_rational_refuses_other_types():
    with pytest.raises(TypeError, match="cannot interpret"):
        as_rational(object())  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbit_absorbs_quickly_from_quarter():
    info = orbit(F(1, 4), 10)
    assert info.values == (F(1, 2), F(1))
    assert info.absorbed_step == 2
    assert info.values[-1] == 1
    assert info.absorbed


def test_orbit_of_zero_and_one():
    z = orbit(F(0), 5)
    assert z.values == (F(0),)
    assert z.absorbed_step == 1 and z.values[-1] == 0
    o = orbit(F(1), 5)
    assert o.values == (F(0),)
    assert o.absorbed_step == 1 and o.values[-1] == 0


def test_orbit_seven_tenths_absorbs_at_four():
    short = orbit(F(7, 10), 3)
    assert short.values == (F(-1, 5), F(-2, 5), F(-4, 5))
    assert not short.absorbed
    full = orbit(F(7, 10), 10)
    assert full.values == (F(-1, 5), F(-2, 5), F(-4, 5), F(1))
    assert full.absorbed_step == 4
    assert full.values[-1] == 1


def test_orbit_one_seventh_cycles_forever():
    info = orbit(F(1, 7), 120)
    assert not info.absorbed
    assert info.values[:3] == (F(2, 7), F(4, 7), F(1, 7))
    assert info.values[3] == F(2, 7)


@given(rationals_in_unit, st.integers(min_value=1, max_value=40))
def test_orbit_denominators_never_grow(x, depth):
    info = orbit(x, depth)
    den = x.denominator
    for y in info.values:
        assert y.denominator <= den
        den = y.denominator


def test_orbit_validates_depth():
    with pytest.raises(DomainError):
        orbit(F(1, 3), 0)


def test_orbit_record_ends_at_the_first_absorber():
    seven_tenths = orbit(F(7, 10), 10)
    assert seven_tenths.values == (F(-1, 5), F(-2, 5), F(-4, 5), F(1))
    # tooth 3, the ramp twice, then the mirror of tooth 5 at -4/5
    assert seven_tenths.slopes == (24, 2, 2, 60)
    assert orbit(F(7, 12), 10).values == (F(0),)
    assert orbit(F(7, 12), 10).slopes == (-12,)  # tooth 2
    assert orbit(F(0), 10).values == (F(0),)
    assert orbit(F(1, 7), 6).values == (F(2, 7), F(4, 7), F(1, 7)) * 2


@given(rationals_in_unit, st.integers(min_value=1, max_value=30))
def test_orbit_record_reads_match_stepwise_iteration(x, depth):
    info = orbit(x, depth)
    y, total = x, F(0)
    for k in range(1, depth + 1):
        y = eval_f1(y)
        total += y / 2**k
        assert info.iterate(k) == y
        assert info.partial_sum(k) == total


def test_orbit_record_refuses_reads_past_its_depth():
    info = orbit(F(1, 7), 4)
    with pytest.raises(DomainError):
        info.iterate(5)
    with pytest.raises(DomainError):
        info.partial_sum(5)
    assert orbit(F(7, 10), 4).iterate(9) == 0


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------


FROZEN_FK = [
    (F(1, 4), 1, F(1, 2)),
    (F(1, 4), 2, F(1)),
    (F(1, 4), 3, F(0)),
    (F(1, 4), 9, F(0)),
    (F(7, 10), 4, F(1)),
    (F(7, 10), 5, F(0)),
    (F(1, 7), 3, F(1, 7)),
    (F(1, 7), 300, F(1, 7)),
    (F(0), 7, F(0)),
    (F(1), 2, F(0)),
]


@pytest.mark.parametrize("x, k, expected", FROZEN_FK)
def test_fk_frozen_values(x, k, expected):
    assert eval_fk(x, k) == expected


@given(rationals_in_unit, st.integers(1, 6), st.integers(1, 6))
def test_fk_semigroup(x, a, b):
    assert eval_fk(eval_fk(x, a), b) == eval_fk(x, a + b)


@given(rationals_in_unit, st.integers(1, 12))
def test_fk_bounded_and_odd(x, k):
    assert abs(eval_fk(x, k)) <= 1
    assert eval_fk(-x, k) == -eval_fk(x, k)


@given(rationals_in_unit)
def test_fk_vanishes_after_absorption(x):
    info = orbit(x, 25)
    if info.absorbed:
        for later in range(info.absorbed_step + 1, info.absorbed_step + 4):
            assert eval_fk(x, later) == 0


# ---------------------------------------------------------------------------
# partial sums and certified series values
# ---------------------------------------------------------------------------


FROZEN_PARTIAL = [
    (F(1, 4), 1, F(1, 4)),
    (F(1, 4), 2, F(1, 2)),
    (F(1, 4), 7, F(1, 2)),
    (F(1, 2), 1, F(1, 2)),
    (F(1, 2), 5, F(1, 2)),
    (F(7, 10), 3, F(-3, 10)),
    (F(7, 10), 4, F(-19, 80)),
    (F(0), 9, F(0)),
    (F(1), 4, F(0)),
]


@pytest.mark.parametrize("x, K, expected", FROZEN_PARTIAL)
def test_partial_sum_frozen_values(x, K, expected):
    assert partial_sum(x, K) == expected


@given(rationals_in_unit, st.integers(1, 15))
def test_partial_sum_agrees_with_term_by_term(x, K):
    total = sum((eval_fk(x, k) / 2**k for k in range(1, K + 1)), F(0))
    assert partial_sum(x, K) == total


def test_eval_f_exact_after_absorption():
    assert eval_f(F(1, 4), 30) == Certified(F(1, 2), F(0))
    assert eval_f(F(7, 10), 20) == Certified(F(-19, 80), F(0))
    assert eval_f(F(0), 5) == Certified(F(0), F(0))
    assert eval_f(F(1), 8) == Certified(F(0), F(0))
    assert eval_f(F(-1), 8) == Certified(F(0), F(0))


def test_eval_f_keeps_tail_radius_on_cycling_orbit():
    enc = eval_f(F(1, 7), 20)
    assert enc.radius == F(1, 2**20)
    assert enc.center == partial_sum(F(1, 7), 20)
    assert not enc.exact


@given(rationals_in_unit, st.integers(1, 18))
def test_eval_f_enclosures_are_consistent_across_depths(x, K):
    a = eval_f(x, K)
    b = eval_f(x, K + 3)
    # both enclose the true series value, so they must overlap
    assert abs(a.center - b.center) <= a.radius + b.radius
    if a.exact:
        assert b == a


@given(rationals_in_unit, st.integers(1, 18))
def test_eval_f_radius_bounds_the_true_tail(x, K):
    # a much deeper evaluation is a strictly better enclosure of the value
    deep = eval_f(x, K + 30)
    assert abs(deep.center - eval_f(x, K).center) <= eval_f(x, K).radius


def test_eval_g_signs_and_origin():
    assert eval_g(F(1, 4), 10) == Certified(F(1, 2), F(0))
    assert eval_g(F(-1, 4), 10) == Certified(F(1, 2), F(0))
    assert eval_g(F(0), 10) == Certified(F(0), F(0))
    assert eval_g(F(-7, 10), 20) == Certified(F(-19, 80), F(0))


@given(rationals_in_unit, st.integers(1, 15))
@settings(max_examples=60)
def test_eval_g_is_even_in_center(x, K):
    assert eval_g(x, K) == eval_g(-x, K)


def test_certified_enclosure_basics():
    c = Certified(F(1, 2), F(1, 8))
    assert c.lower == F(3, 8) and c.upper == F(5, 8)
    assert c.contains(F(9, 16))
    assert not c.contains(F(11, 16))
    with pytest.raises(ValueError):
        Certified(F(0), F(-1, 2))
