"""Base map, orbits, and series evaluation.

The base-map oracle here is deliberately independent of the implementation:
it finds the containing tooth by linear scan and interpolates between the
tooth's endpoint values instead of using the closed rescaling formula.
Expected values in the frozen tables were derived by hand from the piecewise
definition before the implementation existed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawcascade.construction import (
    Certified,
    DomainError,
    eval_f,
    eval_f1,
    eval_fk,
    eval_g,
    iterates,
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


def test_f1_rejects_floats_and_out_of_range():
    with pytest.raises(TypeError):
        eval_f1(0.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        eval_f1(F(3, 2))
    with pytest.raises(DomainError):
        eval_f1(-2)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbit_absorbs_quickly_from_quarter():
    info = orbit(F(1, 4), 10)
    assert info.values == (F(1, 2), F(1))
    assert info.absorbed_step == 2
    assert info.absorber == 1
    assert info.absorbed


def test_orbit_of_zero_and_one():
    z = orbit(F(0), 5)
    assert z.values == (F(0),)
    assert z.absorbed_step == 1 and z.absorber == 0
    o = orbit(F(1), 5)
    assert o.values == (F(0),)
    assert o.absorbed_step == 1 and o.absorber == 0


def test_orbit_seven_tenths_absorbs_at_four():
    short = orbit(F(7, 10), 3)
    assert short.values == (F(-1, 5), F(-2, 5), F(-4, 5))
    assert not short.absorbed
    full = orbit(F(7, 10), 10)
    assert full.values == (F(-1, 5), F(-2, 5), F(-4, 5), F(1))
    assert full.absorbed_step == 4
    assert full.absorber == 1


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


def test_iterates_end_right_after_the_first_zero():
    assert list(iterates(F(7, 10))) == [F(-1, 5), F(-2, 5), F(-4, 5), F(1), F(0)]
    assert list(iterates(F(0))) == [F(0)]
    assert list(islice(iterates(F(1, 7)), 6)) == [F(2, 7), F(4, 7), F(1, 7)] * 2


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
