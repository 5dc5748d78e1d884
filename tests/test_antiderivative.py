"""Layer integrals, certified antiderivatives, Darboux bound, quotient bound.

Two independent routes are kept separate throughout: the one-pass layer
integral (``eval_Fk``, also checked against a recursive reference kept
here) versus the purely geometric enclosure (``enclose_integral``), and the
closed-form normalization constant versus its term-by-term summation.  The
trapezoid-difference identity ties layer integrals to plain iterate values
with no shared code path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Iterator

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
from sawcascade.cells import cell, iter_cells, level1_cell, level1_ids_at
from sawcascade.construction import (
    MAX_LAYER_INDEX,
    Certified,
    DomainError,
    eval_f,
    eval_f1,
    eval_fk,
    orbit,
)
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


def reference_layer_integrals(x: F, K: int) -> Iterator[F]:
    """F_1(x), ..., F_K(x) as Fractions, one walk of K steps along the orbit:
    F_k(x) = F_0(y_k) / prod_{i<k} slope(y_i), ending once some y_i with
    i < k is +-1 (every later F_k(x) is 0)."""
    ys = chain(orbit(x, K).values, repeat(F(0)))  # 0 is fixed; the walk ends at +-1
    y = x
    slopes = F(1)
    for _ in range(K):
        if abs(y) == 1:
            return
        slopes *= level1_cell(level1_ids_at(y)[0]).slope
        y = next(ys)
        yield eval_F0(y) / slopes


def reference_layer_Fk(x: F, k: int) -> F:
    if k == 0:
        return eval_F0(x)
    return next(islice(reference_layer_integrals(x, k), k - 1, None), F(0))


def reference_layer_F(x: F, K: int) -> F:
    return sum((Fk / 2**k for k, Fk in enumerate(reference_layer_integrals(x, K), 1)), F(0))


def pull_back(y: F, ids: list[int]) -> F:
    """A point that the base map takes through the level-1 cells ``ids``, in
    order, to y."""
    for j in reversed(ids):
        c = level1_cell(j)
        y = (y - c.intercept) / c.slope
    return y


wide_denominators = st.integers(min_value=1, max_value=10**12).flatmap(
    lambda q: st.integers(min_value=-q, max_value=q).map(lambda p: F(p, q))
)
absorbed_points = st.builds(
    pull_back,
    st.sampled_from([F(0), F(1), F(-1)]),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=6),
)


@given(
    st.one_of(unit_fractions, wide_denominators, absorbed_points),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_integer_layer_kernel_matches_the_fraction_walk(x, k, K):
    assert eval_Fk(x, k) == reference_layer_Fk(x, k)
    assert eval_F(x, K).center == reference_layer_F(x, K)


SPECIAL_POINTS = sorted({
    sign * x
    for x in (
        [F(1), F(7, 12), F(7, 24), F(1, 4)]
        + [1 - F(1, n) for n in (*range(1, 12), 100, 10**6, 10**12)]
        + [F(1, 2**j) for j in range(3, 8)]
    )
    for sign in (1, -1)
})


@pytest.mark.parametrize("x", SPECIAL_POINTS)
def test_integer_layer_kernel_at_special_points(x):
    # +-1, 0, +-1/2, tooth endpoints +-(1 - 1/n) (absorbed at +-1), tooth
    # midpoints 7/12 and 7/24 (absorbed at 0) and dyadic points, at every
    # k and K up to 60
    layers = [eval_F0(x)] + list(reference_layer_integrals(x, 60))
    layers += [F(0)] * (61 - len(layers))
    center = F(0)
    for k in range(0, 61):
        assert eval_Fk(x, k) == layers[k]
        if k:
            center += layers[k] / 2**k
            assert eval_F(x, k).center == center


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


def _anchored_center(x: Fraction, K: int) -> Fraction:
    """G's center by its definition: +-(F(x) - F(0)), with F(0) the closed
    form ``normalization_center(K)``."""
    anchored = eval_F(x, K).center - normalization_center(K)
    return anchored if x > 0 else -anchored


#: Both unit ends, and points absorbed into -1, 0 or 1 after a step or two.
ABSORBED_POINTS = [F(1), F(1, 2), F(1, 4), F(2, 3), F(7, 12), F(3, 4), F(5, 6), F(1, 8)]


@given(
    st.fractions(min_value=F(-1), max_value=F(1), max_denominator=10**6).filter(bool)
    | st.sampled_from(ABSORBED_POINTS + [-x for x in ABSORBED_POINTS]),
    st.sampled_from([1, 2, 30, 60]),
)
@settings(max_examples=200, deadline=None)
def test_signed_antiderivative_is_the_anchored_running_integral(x, K):
    assert eval_G(x, K) == Certified(_anchored_center(x, K), F(4, 2**K))


# ---------------------------------------------------------------------------
# Riemann integrability: the bound on U - L
# ---------------------------------------------------------------------------


def test_cell_oscillation_oracle_is_within_the_lemma_bound():
    # L7, osc(f, C) <= (2m + 2)/2^m on a level-m cell, against eval_f alone:
    # the two ends and 40 seeded interior points of every cell with ids
    # |j| <= 3, each enclosure counted with its radius
    rng = random.Random(20240601)
    for m in range(1, 5):
        bound = F(2 * m + 2, 2**m)
        for c in (c for c in iter_cells(m, 3) if c.level == m):
            inner = [c.lo + c.length * F(rng.randint(1, 999), 1000) for _ in range(40)]
            encs = [eval_f(x, m + 40) for x in [c.lo, c.hi, *inner]]
            spread = max(e.upper for e in encs) - min(e.lower for e in encs)
            assert spread <= bound, (c.address, spread, bound)


@pytest.mark.parametrize(
    "M, B, rounded", [(8, 500, 0.2017), (10, 2000, 0.0627), (12, 5000, 0.0223), (14, 20000, 0.0065)]
)
def test_darboux_gap_is_the_closed_form(M, B, rounded):
    c = 2 * (1 - F(1, B + 2)) ** M
    assert darboux_gap(M, B) == F(2 * M + 2, 2**M) * c + 2 * (2 - c)
    assert round(float(darboux_gap(M, B)), 4) == rounded


def test_darboux_gap_falls_strictly_in_the_budget():
    for M in range(2, 20):  # at M = 1 the cell bound is the trivial 2, and the gap is 4
        gaps = [darboux_gap(M, B) for B in range(0, 60)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), M
    assert {darboux_gap(1, B) for B in range(10)} == {4}


@pytest.mark.parametrize(
    "at_level",
    [
        lambda k: covered_length(k, 10),
        lambda k: darboux_gap(k, 10),
        lambda k: enclose_integral(k, F(1, 3), 10),
    ],
    ids=["covered_length", "darboux_gap", "enclose_integral"],
)
def test_a_level_above_the_cap_is_refused_at_the_call(at_level):
    # as the cell enumerators do; the time of an uncapped level grows
    # quadratically with it
    at_level(MAX_LAYER_INDEX)
    with pytest.raises(DomainError, match="^level k must be at most 5000, got 5001$"):
        at_level(MAX_LAYER_INDEX + 1)


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("B", [0, 1, 2, 3])
def test_partition_cells_are_counted_and_measured_in_closed_form(M, B):
    cells = [c for c in iter_cells(M, B) if c.level == M]
    assert len(cells) == (2 * B + 1) ** M
    assert sum(c.length for c in cells) == covered_length(M, B)
    assert all(a.hi <= b.lo for a, b in zip(cells, cells[1:]))  # disjoint, in order
    central = [c for c in cells if c.contains(0)]  # the one piece where g is not +-f
    assert [(c.lo, c.hi) for c in central] == [(-F(1, 2**M), F(1, 2**M))]


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
