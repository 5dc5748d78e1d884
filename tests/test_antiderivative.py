"""Layer integrals, certified antiderivatives, integral gap, quotient bound.

Two independent routes are kept separate throughout: the one-pass layer
integral (``eval_Fk``, also checked against a recursive reference kept
here) versus the purely geometric enclosure (``enclose_integral``), and the
closed-form normalization constant versus its term-by-term summation.  The
trapezoid-difference identity ties layer integrals to plain iterate values
with no shared code path.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawcascade.antiderivative import (
    covered_length,
    darboux_gap,
    enclose_integral,
    eval_F,
    eval_F0,
    eval_Fk,
    eval_G,
    normalization_center,
    quotient_bound_check,
)
from sawcascade.cells import cell, level1_cell, level1_ids_at
from sawcascade.construction import Certified, DomainError, eval_f1, eval_fk
from sawcascade.reports import recheck

F = Fraction

addresses = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=4
).map(tuple)
unit_fractions = st.fractions(min_value=F(-1), max_value=F(1), max_denominator=300)


# ---------------------------------------------------------------------------
# layer integrals
# ---------------------------------------------------------------------------


def test_F0_is_the_parabola():
    assert eval_F0(F(-1)) == 0
    assert eval_F0(F(1)) == 0
    assert eval_F0(F(0)) == F(-1, 2)
    assert eval_F0(F(1, 2)) == F(-3, 8)


FROZEN_FK_INTEGRALS = [
    (F(1, 4), 1, F(-3, 16)),
    (F(1, 2), 1, F(0)),
    (F(-1, 2), 1, F(0)),
    (F(7, 12), 1, F(1, 24)),
    (F(1, 4), 2, F(0)),
    (F(1, 8), 2, F(-3, 32)),
    (F(0), 1, F(-1, 4)),
    (F(0), 2, F(-1, 8)),
    (F(0), 5, F(-1, 64)),
]


@pytest.mark.parametrize("x, k, expected", FROZEN_FK_INTEGRALS)
def test_layer_integral_frozen_values(x, k, expected):
    assert eval_Fk(x, k) == expected


def test_layer_one_is_shifted_square_on_middle_ramp():
    for num in range(-8, 9):
        x = F(num, 16)
        assert eval_Fk(x, 1) == x * x - F(1, 4)


def test_layer_integrals_vanish_at_domain_ends():
    for k in range(0, 11):
        assert eval_Fk(F(-1), k) == 0
        assert eval_Fk(F(1), k) == 0


@given(unit_fractions, st.integers(min_value=0, max_value=8))
def test_layer_integrals_are_even(x, k):
    assert eval_Fk(x, k) == eval_Fk(-x, k)


@given(
    addresses,
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=50),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=50),
)
@settings(max_examples=120)
def test_trapezoid_difference_identity_inside_cells(address, t1, t2):
    # on one affinity cell the layer integral difference is an exact trapezoid
    c = cell(address)
    k = len(address)
    x = c.lo + c.length * min(t1, t2)
    y = c.lo + c.length * max(t1, t2)
    lhs = eval_Fk(y, k) - eval_Fk(x, k)
    rhs = (eval_fk(x, k) + eval_fk(y, k)) / 2 * (y - x)
    assert lhs == rhs


def test_shared_endpoint_recursion_agrees_through_both_teeth():
    # at a shared tooth endpoint the recursion may divide by either slope;
    # both give the same value because the inner integral vanishes at +-1
    for e in (F(1, 2), F(2, 3), F(3, 4), F(-1, 2), F(-3, 4)):
        ids = level1_ids_at(e)
        assert len(ids) == 2
        for k in range(1, 6):
            inner = eval_Fk(eval_f1(e), k - 1)
            routes = {inner / level1_cell(j).slope for j in ids}
            assert routes == {eval_Fk(e, k)}


def reference_Fk(x: F, k: int) -> F:
    """The layer integral by recursion through the tooth containing x:
    layer k at x is layer k-1 at f_1(x) over that tooth's slope."""
    if k == 0:
        return eval_F0(x)
    if abs(x) == 1:
        return F(0)
    tooth = level1_cell(level1_ids_at(x)[0])
    return reference_Fk(eval_f1(x), k - 1) / tooth.slope


@given(
    unit_fractions,
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150)
def test_one_pass_layer_integrals_match_the_recursion(x, k, K):
    assert eval_Fk(x, k) == reference_Fk(x, k)
    expected = sum((reference_Fk(x, j) / 2**j for j in range(1, K + 1)), F(0))
    assert eval_F(x, K).center == expected


# ---------------------------------------------------------------------------
# the geometric oracle
# ---------------------------------------------------------------------------


def test_covered_length_frozen():
    assert covered_length(1, 10) == F(11, 6)
    assert covered_length(2, 1) == F(8, 9)
    assert covered_length(3, 0) == F(1, 4)


def test_enclose_integral_frozen_example():
    enc = enclose_integral(1, F(0), 40)
    assert enc == Certified(F(-1, 4), F(1, 21))
    assert (enc.lower, enc.upper) == (F(-1, 4) - F(1, 21), F(-1, 4) + F(1, 21))
    assert enc.width == F(2, 21) <= F(1, 10)


def test_enclose_integral_edge_windows():
    assert enclose_integral(3, F(-1), 10) == Certified(F(0), F(0))
    full = enclose_integral(1, F(1), 10)
    assert full.contains(0)
    assert full.width == 2 * (2 - covered_length(1, 10))


@given(
    unit_fractions,
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=120)
def test_recursive_layer_integral_lies_in_geometric_enclosure(x, k, budget):
    assert enclose_integral(k, x, budget).contains(eval_Fk(x, k))


@given(unit_fractions, st.integers(min_value=1, max_value=4))
def test_wider_budget_never_widens_enclosure(x, k):
    narrow = enclose_integral(k, x, 5)
    wide = enclose_integral(k, x, 50)
    assert wide.width <= narrow.width


# ---------------------------------------------------------------------------
# series antiderivative and normalization
# ---------------------------------------------------------------------------


def test_normalization_center_matches_term_by_term_sum():
    for K in range(1, 31):
        direct = sum((F(-1, 2 ** (2 * k + 1)) for k in range(1, K + 1)), F(0))
        assert normalization_center(K) == direct


def test_series_antiderivative_at_origin_hits_normalization():
    for K in range(1, 16):
        enc = eval_F(F(0), K)
        assert enc.center == normalization_center(K)
        assert enc.radius == F(2, 2**K)


def test_series_antiderivative_frozen():
    assert eval_F(F(1, 2), 2) == Certified(F(0), F(1, 2))
    assert eval_F(F(1), 6) == Certified(F(0), F(1, 32))
    assert eval_F(F(-1), 6) == Certified(F(0), F(1, 32))


@given(unit_fractions, st.integers(min_value=1, max_value=10))
@settings(max_examples=80)
def test_series_antiderivative_is_even_and_tightens(x, K):
    assert eval_F(x, K).center == eval_F(-x, K).center
    a, b = eval_F(x, K), eval_F(x, K + 2)
    assert abs(a.center - b.center) <= a.radius + b.radius
    assert b.radius < a.radius


def test_signed_antiderivative_values():
    assert eval_G(F(0), 12) == Certified(F(0), F(0))
    for K in (1, 3, 8, 20):
        plus_one = eval_G(F(1), K)
        assert plus_one.center == -normalization_center(K)
        assert plus_one.radius == F(4, 2**K)
    assert eval_G(F(1, 2), 3).center == F(21, 128)


@given(unit_fractions, st.integers(min_value=1, max_value=10))
@settings(max_examples=80)
def test_signed_antiderivative_is_odd(x, K):
    assert eval_G(x, K).center == -eval_G(-x, K).center


# ---------------------------------------------------------------------------
# whole-domain integral
# ---------------------------------------------------------------------------


def test_darboux_gap_frozen_width_and_zero():
    enc = darboux_gap(10, 60)
    assert enc.contains(0)
    assert enc.center == 0  # the trapezoid sum is exactly zero
    assert enc.width == F(2465, 499968)
    assert enc.width <= F(1, 128)


def test_darboux_gap_small_budget_still_sound():
    enc = darboux_gap(3, 5)
    assert enc.contains(0)
    assert enc.width == 2 * (F(2, 7 * 8) + F(2, 8))


def test_darboux_gap_tightens_with_both_knobs():
    base = darboux_gap(10, 60)
    assert darboux_gap(10, 120).width < base.width
    assert darboux_gap(14, 60).width < base.width


# ---------------------------------------------------------------------------
# quotient bound
# ---------------------------------------------------------------------------


def test_quotient_bound_frozen_example():
    report = quotient_bound_check(1, 2, F(-7, 12))
    assert report.verdict
    assert report.points == ((F(-7, 12), F(1, 24)),)
    bounded = [c for c in report.certificate if c.label == "quotient_bounded"]
    assert bounded[0].lhs == F(1, 10)
    assert bounded[0].rhs == F(1, 2)
    assert recheck(report)


def test_quotient_bound_band_endpoint_and_sweep():
    assert quotient_bound_check(1, 2, F(-1, 2)).verdict
    for k in range(1, 5):
        for n in range(1, 12):
            x = (F(1, n + 1) + F(1, n)) / 2 - 1  # band midpoint
            assert quotient_bound_check(k, n, x).verdict


def test_quotient_bound_validates_band_and_layer():
    with pytest.raises(DomainError):
        quotient_bound_check(1, 3, F(-1, 2))  # x outside band 3
    with pytest.raises(DomainError):
        quotient_bound_check(0, 2, F(-7, 12))


def test_enclosure_type_basics():
    e = Certified(F(-1, 12), F(1, 4))
    assert (e.lower, e.upper) == (F(-1, 3), F(1, 6))
    assert e.width == F(1, 2)
    assert e.contains(F(-1, 3)) and e.contains(F(1, 6))
    assert e.contains(F(0)) and not e.contains(F(1, 4))
    with pytest.raises(ValueError):
        Certified(F(1, 2), F(-1, 2))  # empty: lower 1 above upper 0
