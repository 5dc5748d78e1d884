"""Witness searches and exact certificates.

Frozen expectations here were derived by hand: margins are 2^-(k+1) for
first-level k, the chain walk for interior points lands in middle cells of
known size, and the band arithmetic for the local-minimum check is spelled
out value by value.  Every passing report must also survive ``recheck`` and
a serialization round trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sawcascade.construction as construction
import sawcascade.verifier as verifier
from sawcascade.cells import ROOT, cell, child_cell, level1_ids_at, locate
from sawcascade.construction import DomainError, eval_fk, f1_step, orbit, partial_sum
from sawcascade.reports import recheck, report_from_dict, report_to_dict
from sawcascade.suites import SUITES, SuiteConfig, tapered_endpoints
from sawcascade.verifier import (
    NotAnEPointError,
    _endpoint_value,
    _fan_point,
    _fan_sign,
    _side_cells,
    _walk_chain,
    integral_crosscheck,
    local_min_check,
    non_extremum_witness,
    non_monotone_witness,
    oscillation_witness,
    structure_check,
)

F = Fraction


def roundtrips(report) -> bool:
    return report_from_dict(report_to_dict(report)) == report


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------


def test_oscillation_at_one_half():
    rep = oscillation_witness(F(1, 2), F(1, 100))
    assert rep.verdict and rep.error is None
    assert rep.input("first_level") == "2"
    (x0, fx0), (x1, f1), (x2, f2) = rep.points
    assert (x0, fx0) == (F(1, 2), F(1, 2))
    assert f1 > F(1, 2) + F(1, 8) and abs(x1 - F(1, 2)) < F(1, 100)
    assert f2 < F(1, 2) - F(1, 8) and abs(x2 - F(1, 2)) < F(1, 100)
    # witness values are the true series values: orbits absorbed at level 2
    assert f1 == partial_sum(x1, 2) and eval_fk(x1, 3) == 0
    assert recheck(rep) and roundtrips(rep)


def test_oscillation_at_domain_ends_is_one_sided():
    for x0 in (F(1), F(-1)):
        rep = oscillation_witness(x0, F(1, 10))
        assert rep.verdict
        assert rep.points[0] == (x0, F(0))
        for x, fx in rep.points[1:]:
            assert abs(x) < 1 and abs(x - x0) < F(1, 10)
        values = [fx for _, fx in rep.points[1:]]
        assert max(values) > F(1, 4) and min(values) < F(-1, 4)


def test_oscillation_at_deep_endpoint():
    rep = oscillation_witness(F(7, 10), F(1, 100))
    assert rep.verdict
    assert rep.input("first_level") == "5"
    assert rep.points[0] == (F(7, 10), F(-19, 80))


def test_oscillation_with_tiny_window():
    rep = oscillation_witness(F(1, 2), F(1, 10**6))
    assert rep.verdict
    for x, _fx in rep.points[1:]:
        assert 0 < abs(x - F(1, 2)) < F(1, 10**6)


def test_oscillation_rejects_non_endpoints():
    with pytest.raises(NotAnEPointError):
        oscillation_witness(F(0), F(1, 10))
    with pytest.raises(NotAnEPointError):
        oscillation_witness(F(1, 7), F(1, 10))


def test_oscillation_budget_exhaustion_is_reported():
    rep = oscillation_witness(F(1, 2), F(1, 100), fan_budget=0)
    assert not rep.verdict
    assert rep.error is not None and "budget" in rep.error
    assert recheck(rep) and roundtrips(rep)


@pytest.mark.parametrize("witness", [oscillation_witness, non_extremum_witness])
def test_endpoint_fan_failure_lists_the_partial_hit(witness):
    # one fan child at -4/5 yields a point below the margin but none above
    rep = witness(F(-4, 5), F(1, 10), 40, 1)
    assert not rep.verdict and "budget" in rep.error
    assert rep.points == ((F(-4, 5), F(1, 2)), (F(-29, 36), F(1, 12)))
    assert recheck(rep) and roundtrips(rep)


def _side_cell_list(x0, first_level):
    """The level-(first_level - 1) cells at x0 as Cells, in locate's order."""
    m = first_level - 1
    return [cell(a) for a in locate(x0, m)] if m else [ROOT]


def test_side_cells_from_the_orbit_record_match_locate():
    # same sides in the same order: scan order decides which witness is found
    points = list(tapered_endpoints(5, 50))
    assert len(points) > 1000
    for x0, first_level in points:
        info = orbit(x0, 40)
        assert info.first_level == first_level
        m = first_level - 1
        expected = []
        for side in _side_cell_list(x0, first_level):
            ancestors = [cell(side.address[:i]) for i in range(1, m + 1)]
            slope_sum = sum((c.slope / 2**c.level for c in ancestors), F(0))
            expected.append((m, side.slope, 2**m * slope_sum))
        assert _side_cells(info) == expected


def test_fan_closed_form_matches_child_cells_and_partial_sums():
    margin_hits = set()
    for x0, first_level in tapered_endpoints(4, 50):
        info = orbit(x0, 40)
        m, k = first_level - 1, first_level
        fx0 = info.partial_sum(m)
        v0 = _endpoint_value(info)
        margin = F(1, 2 ** (k + 1))
        sides = zip(_side_cells(info), _side_cell_list(x0, first_level), strict=True)
        for side, side_cell in sides:
            _m, s, a = side
            assert v0 == side_cell.value_at(x0)
            for child in range(1, 9):
                kid = child_cell(side_cell, v0 * child)
                ends = {_fan_point(x0, v0, s, n) for n in (child + 1, child + 2)}
                assert ends == {kid.lo, kid.hi}
                n = child + 1
                y = _fan_point(x0, v0, s, n)
                closed = fx0 + v0 * (F((-1) ** n, 2**k) - F(a, 2**m * n * s))
                assert closed == partial_sum(y, k)
                if closed > fx0 + margin:
                    expected = 1
                elif closed < fx0 - margin:
                    expected = -1
                else:
                    expected = 0
                assert _fan_sign(side, v0, n) == expected
                margin_hits.add(expected)
    assert margin_hits == {-1, 0, 1}


def reference_fan_choice(side, info, delta, fan_budget):
    """The fan scan around x0 = info.start with no cache and no closed-form
    sign: the endpoints of child m0 = max(1, floor(1 / (delta |s|))) from
    left to right, then the new endpoint of each next child, up to
    ``fan_budget`` children, each judged by its exact k-term partial sum.
    Returns (n_above, n_below)."""
    _m, s, _a = side
    if fan_budget < 1:
        return None, None
    x0, v0, k = info.start, _endpoint_value(info), info.first_level
    m0 = max(1, int(1 / (delta * abs(s))))
    fx0, margin = info.partial_sum(k - 1), F(1, 2 ** (k + 1))
    ends = sorted((m0 + 1, m0 + 2), key=lambda n: _fan_point(x0, v0, s, n))
    above = below = None
    for n in ends + list(range(m0 + 3, m0 + fan_budget + 2)):
        value = partial_sum(_fan_point(x0, v0, s, n), k)
        if value > fx0 + margin and above is None:
            above = n
        elif value < fx0 - margin and below is None:
            below = n
        if above is not None and below is not None:
            break
    return above, below


FAN_DELTAS = (F(1, 10), F(1, 1000), F(1, 10**9))
FAN_BUDGETS = (0, 1, 3, 64)


def test_cached_fan_choice_equals_an_uncached_scan():
    verifier._fan_choice.cache_clear()
    seen = {"exhausted": 0, "found": 0}
    for x0, _first_level in tapered_endpoints(5, 50):
        info = orbit(x0, 40)
        v0 = _endpoint_value(info)
        for side in _side_cells(info):
            s = side[1]
            for delta in FAN_DELTAS:
                for budget in FAN_BUDGETS:
                    expected = reference_fan_choice(side, info, delta, budget)
                    points = tuple(None if n is None else _fan_point(x0, v0, s, n)
                                   for n in expected)
                    # the first call may fill the cache, the second reads it
                    assert verifier._fan_scan(side, x0, v0, delta, budget) == points
                    assert verifier._fan_scan(side, x0, v0, delta, budget) == points
                    seen["exhausted" if None in expected else "found"] += 1
    assert verifier._fan_choice.cache_info().hits > 0
    assert seen["exhausted"] > 0 and seen["found"] > 0


def test_fan_choice_cache_keys_on_delta_and_budget():
    x0 = F(1, 2)
    info = orbit(x0, 40)
    v0 = _endpoint_value(info)
    side = _side_cells(info)[0]
    verifier._fan_choice.cache_clear()
    calls = [(F(1, 10), 3), (F(1, 10), 3), (F(1, 10), 64), (F(1, 1000), 64), (F(1, 10), 0)]
    for delta, budget in calls:
        expected = reference_fan_choice(side, info, delta, budget)
        points = tuple(None if n is None else _fan_point(x0, v0, side[1], n) for n in expected)
        assert verifier._fan_scan(side, x0, v0, delta, budget) == points
    # only the repeated call is a hit: another delta or budget is another entry
    info_after = verifier._fan_choice.cache_info()
    assert (info_after.hits, info_after.misses) == (1, 4)


def test_fan_scan_walks_only_the_chosen_witnesses(monkeypatch):
    # one orbit record per report's center and per chosen witness, and no
    # other walk: the fan is judged in closed form, and the cell chains are
    # read off the records, so every base-map step lands in a record
    walks = []
    records = []
    other_walks = []
    steps = [0]

    def counting_orbit(x, depth):
        walks.append((x, depth))
        records.append(orbit(x, depth))
        return records[-1]

    def counting_step(p, q):
        steps[0] += 1
        return f1_step(p, q)

    def counting(name, fn):
        def wrapped(*args):
            other_walks.append((name, args))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(verifier, "orbit", counting_orbit)
    for module in (construction, verifier):
        for name in ("partial_sum", "eval_fk"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sawcascade" and getattr(module, "f1_step", None) is f1_step:
            monkeypatch.setattr(module, "f1_step", counting_step)
    cfg = SuiteConfig(max_level=4, count=30)
    for suite in ("oscillation", "no-extrema", "nowhere-monotone"):
        walks.clear()
        records.clear()
        steps[0] = 0
        reports = list(SUITES[suite](cfg))
        assert all(r.verdict for r in reports), suite
        assert steps[0] == sum(len(info.numerators) for info in records) > 0, suite
        if suite == "oscillation":
            assert len(walks) == len(set(walks)) == 3 * len(reports) == 2208
    assert other_walks == []


def reference_walk_chain(x0, depth, lo, hi):
    """The chain walk composed from Cells: (cell, slope of the truncation).

    The verifier used this Fraction composition from ROOT before it read
    the chain off the integer walk in closed form; this is its oracle.
    """
    info = orbit(x0, depth)
    y = x0
    current = ROOT
    slope_sum = F(0)
    for k in range(1, depth):
        current = child_cell(current, level1_ids_at(y)[0])
        slope_sum += current.slope / 2**k
        if lo < current.lo and current.hi < hi and slope_sum != 0:
            return current, slope_sum
        y = info.iterate(k)
    return None


@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
    st.fractions(min_value=F(1, 10**9), max_value=2, max_denominator=10**9),
    st.fractions(min_value=F(1, 10**9), max_value=2, max_denominator=10**9),
    st.integers(min_value=1, max_value=40),
)
@example(F(0), F(1, 100), F(1, 100), 40)
@example(F(0), F(1, 2), F(1), 40)  # level 1 touches the window on one side
@example(F(0), F(1), F(1, 2), 40)  # and on the other
@example(F(0), F(1, 10**6), F(1, 3), 40)
@example(F(1, 7), F(1, 100), F(1, 100), 40)
@example(F(1, 7), F(1, 10**9), F(1, 10**9), 8)
@example(F(-1, 7), F(1, 2), F(1, 10**5), 40)
@example(F(7, 12), F(1, 10**9), F(1, 10**9), 40)  # absorbed at 0, never at +-1
@settings(max_examples=300, deadline=None)
def test_walk_chain_matches_the_cell_composition(x0, left, right, depth):
    info = orbit(x0, depth)
    assume(info.first_level is None)
    lo, hi = x0 - left, x0 + right
    side, y, err = _walk_chain(info, depth, lo, hi)
    expected = reference_walk_chain(x0, depth, lo, hi)
    if expected is None:
        assert side is None and "depth" in err
        return
    chain_cell, slope_sum = expected
    m, s, a = side
    assert err is None
    assert (m, s, a) == (chain_cell.level, chain_cell.slope, slope_sum * 2**m)
    assert y == chain_cell.value_at(x0) == info.iterate(m)
    assert sorted(x0 + (v - y) / s for v in (-1, 1)) == [chain_cell.lo, chain_cell.hi]


# ---------------------------------------------------------------------------
# no local extrema
# ---------------------------------------------------------------------------


def test_non_extremum_at_origin():
    rep = non_extremum_witness(F(0), F(1, 100))
    assert rep.verdict
    assert rep.input("mode") == "interior_chain"
    (x1, s1), (x0, s0), (x2, s2) = rep.points
    assert x1 < x0 == F(0) < x2
    assert s0 == 0 and (s1 - s0) * (s2 - s0) < 0
    assert recheck(rep) and roundtrips(rep)


def test_non_extremum_delegates_at_endpoints():
    for x0 in (F(1, 2), F(7, 10), F(1)):
        rep = non_extremum_witness(x0, F(1, 50))
        assert rep.verdict
        assert rep.input("mode") == "endpoint_fan"
        assert rep.kind == "non_extremum"


def test_non_extremum_at_cycling_point():
    rep = non_extremum_witness(F(1, 7), F(1, 100))
    assert rep.verdict
    assert rep.input("mode") == "interior_chain"
    (x1, s1), (x0, s0), (x2, s2) = rep.points
    assert x1 < F(1, 7) < x2 and (s1 - s0) * (s2 - s0) < 0
    assert abs(x1 - F(1, 7)) < F(1, 100) and abs(x2 - F(1, 7)) < F(1, 100)


def test_non_extremum_depth_exhaustion():
    rep = non_extremum_witness(F(1, 7), F(1, 10**9), depth=8)
    assert not rep.verdict
    assert rep.error is not None and "depth" in rep.error
    assert recheck(rep)


@given(
    st.fractions(min_value=F(-99, 100), max_value=F(99, 100), max_denominator=500),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_non_extremum_generic_points(x0, e):
    delta = F(1, 10**e)
    rep = non_extremum_witness(x0, delta)
    assert rep.verdict, (x0, delta, rep.error)
    xs = [x for x, _v in rep.points]
    assert min(xs) >= x0 - delta and max(xs) <= x0 + delta


# ---------------------------------------------------------------------------
# no interval of monotonicity
# ---------------------------------------------------------------------------


def test_non_monotone_around_one_half():
    rep = non_monotone_witness(F(2, 5), F(3, 5))
    assert rep.verdict
    (p1, v1), (p2, v2), (p3, v3) = rep.points
    assert F(2, 5) < p1 < p2 < p3 < F(3, 5)
    assert (v2 - v1) * (v3 - v2) < 0
    assert recheck(rep) and roundtrips(rep)


def test_non_monotone_whole_domain():
    rep = non_monotone_witness(F(-1), F(1))
    assert rep.verdict
    assert rep.input("mode") == "chain_cell_fan"


def test_non_monotone_tiny_interval_at_cycling_midpoint():
    a = F(1, 7) - F(1, 1000)
    b = F(1, 7) + F(1, 1000)
    rep = non_monotone_witness(a, b)
    assert rep.verdict
    for p, _v in rep.points:
        assert a < p < b


def test_non_monotone_right_half():
    rep = non_monotone_witness(F(1, 2), F(1))
    assert rep.verdict
    assert rep.input("mode") == "midpoint_fan"


def test_non_monotone_validates_interval():
    with pytest.raises(DomainError):
        non_monotone_witness(F(1, 2), F(1, 2))
    with pytest.raises(DomainError):
        non_monotone_witness(F(3, 4), F(1, 4))


@pytest.mark.parametrize("depth, fan_budget, error", [
    (1, 64, "depth 1 exhausted at level 0 before the cell chain fit the window"),
    (40, 0, "fan budget exhausted before a same-side pair appeared"),
])
def test_non_monotone_failure_is_a_failed_report(depth, fan_budget, error):
    # the midpoint 0 is a fixed point, no cell endpoint: the witness walks
    # its cell chain
    rep = non_monotone_witness(F(-1, 10), F(1, 10), depth, fan_budget)
    assert rep.input("mode") == "chain_cell_fan"
    assert not rep.verdict and rep.error == error and rep.certificate == ()
    assert recheck(rep) and roundtrips(rep)


@given(
    st.fractions(min_value=F(-9, 10), max_value=F(8, 10), max_denominator=300),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_non_monotone_generic_intervals(a, width_scale):
    b = a + F(width_scale, 60) * F(1, 50) + F(1, 1000)
    if b > 1:
        b = F(1)
    rep = non_monotone_witness(a, b)
    assert rep.verdict, (a, b, rep.error)
    ps = [p for p, _v in rep.points]
    assert ps == sorted(ps) and a < ps[0] and ps[-1] < b


# ---------------------------------------------------------------------------
# local minimum bands
# ---------------------------------------------------------------------------


def test_local_min_frozen_band_two():
    rep = local_min_check(F(3, 16))
    assert rep.verdict
    assert rep.input("band_k") == "2"
    assert rep.points == ((F(3, 16), F(3, 8)),)
    labels = {c.label: c for c in rep.certificate}
    assert labels["truncation_is_k_x"].lhs == F(3, 8)
    assert labels["margin_positive"].lhs == F(3, 8) - F(1, 4)
    assert recheck(rep) and roundtrips(rep)


def test_local_min_at_dyadic_band_edge():
    # 1/8 closes band k = 3, not k = 2: the strict margin needs the deeper band
    rep = local_min_check(F(1, 8))
    assert rep.verdict
    assert rep.input("band_k") == "3"
    assert rep.points == ((F(1, 8), F(3, 8)),)


def test_local_min_deep_band():
    rep = local_min_check(F(3, 2048))
    assert rep.verdict
    assert rep.input("band_k") == "9"
    assert rep.points == ((F(3, 2048), F(27, 2048)),)


@given(st.fractions(min_value=F(1, 10**6), max_value=F(1, 4), max_denominator=10**6))
@settings(max_examples=120)
def test_local_min_everywhere_on_the_interval(x):
    if x == F(1, 4):
        return
    rep = local_min_check(x)
    assert rep.verdict
    assert recheck(rep)


def test_local_min_domain():
    for bad in (F(0), F(1, 4), F(-1, 8), F(1, 2)):
        with pytest.raises(DomainError):
            local_min_check(bad)


def _band_by_doubling(x: F) -> int:
    """The band index as first written: double until 2^(k+1) x > 1."""
    k = 2
    while x * 2 ** (k + 1) <= 1:
        k += 1
    return k


def test_local_min_band_index_matches_the_doubling_loop():
    rng = random.Random(20240601)
    xs = [F(1, 2**k) + e for k in range(3, 80) for e in (F(-1, 10**40), 0, F(1, 10**40))]
    for _ in range(300):
        p = rng.randint(1, 10**6)
        xs.append(F(p, rng.randint(4 * p + 1, p << rng.randint(3, 80))))
    for x in xs:
        assert local_min_check(x).input("band_k") == str(_band_by_doubling(x))


def test_local_min_refuses_a_band_past_the_layer_cap_at_once():
    assert local_min_check(F(1, 2**5000)).input("band_k") == "5000"
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^band k must be at most 5000, got 9965$"):
        local_min_check("1e-3000")
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# structural suite
# ---------------------------------------------------------------------------


def test_structure_check_level_one():
    rep = structure_check(1, 10)
    assert rep.verdict
    labels = {c.label: c for c in rep.certificate}
    assert labels["total_length_closed_form"].lhs == F(11, 6)
    assert labels["level_k_cell_count"].lhs == 21
    assert recheck(rep) and roundtrips(rep)


@pytest.mark.parametrize("k, budget", [(1, 6), (2, 4), (2, 6), (3, 3)])
def test_structure_check_deeper(k, budget):
    rep = structure_check(k, budget)
    assert rep.verdict, rep.failed_checks()


def _structure_counts(rep) -> dict:
    counted = ("mismatches", "failures", "violations")
    return {c.label: c.lhs for c in rep.certificate if c.label.endswith(counted)}


def _replace_one_cell(monkeypatch, address, changes) -> None:
    """Let structure_check walk the true cells but one, whose fields are
    replaced by ``changes(cell)`` where it is entered and in its parent's fan."""
    real = verifier._walk

    def replaced(c):
        return dataclasses.replace(c, **changes(c)) if c.address == address else c

    def patched(budgets, lo, hi):
        for c, fan in real(budgets, lo, hi):
            yield replaced(c), (fan if fan is None else [replaced(f) for f in fan])

    monkeypatch.setattr(verifier, "_walk", patched)


@pytest.mark.parametrize("address", [(0,), (2,), (1, -2), (-3, 0, 2), (3, 3, -3)])
def test_structure_check_catches_an_intercept_off_by_one(monkeypatch, address):
    assert structure_check(3, 3).verdict
    _replace_one_cell(monkeypatch, address, lambda c: {"intercept": c.intercept + 1})
    rep = structure_check(3, 3)
    counts = _structure_counts(rep)
    # the shifted cell puts a probe on a true endpoint, where the iterate is
    # +-1, and its midpoint there too
    assert counts["affinity_mismatches"] > 0 and counts["onto_failures"] > 0
    assert not rep.verdict


def test_structure_check_counts_a_wrong_midpoint_once(monkeypatch):
    # the midpoint's zero is the affinity probe at t = 3; the onto check
    # reads only the two endpoints
    _replace_one_cell(monkeypatch, (1, -2), lambda c: {"intercept": c.intercept + 1})
    counts = _structure_counts(structure_check(2, 3))
    assert (counts["affinity_mismatches"], counts["onto_failures"]) == (3, 1)


@pytest.mark.parametrize("address", [(0,), (2,), (1, -2), (-3, 0, 2), (3, 3, -3)])
def test_structure_check_catches_a_wrong_lower_bound(monkeypatch, address):
    _replace_one_cell(monkeypatch, address, lambda c: {"lo": c.lo - F(1, 10**9)})
    rep = structure_check(3, 3)
    counts = _structure_counts(rep)
    caught = (
        counts["onto_failures"] + counts["tiling_failures"]
        + counts["self_similarity_mismatches"]
    )
    assert caught > 0
    assert not rep.verdict


@pytest.mark.parametrize(
    "address, moved", [((1, -2), (0, -2)), ((-3, 0, 2), (-3, 1, 2)), ((3, 3, -3), (3, 2, -3))]
)
def test_structure_check_counts_a_cell_under_a_wrong_parent(monkeypatch, address, moved):
    # the cell stays in place in the walk, but its address names another parent
    _replace_one_cell(monkeypatch, address, lambda c: {"address": moved})
    rep = structure_check(3, 3)
    assert _structure_counts(rep)["tiling_failures"] > 0
    assert not rep.verdict


def test_structure_check_holds_one_fan_per_level(monkeypatch):
    """Each cell is let go once the walk has left it: of the 399 cells of
    levels 1..3, at most (k + 1)(2B + 1) + k are alive at once."""
    real = verifier._walk
    alive: weakref.WeakSet = weakref.WeakSet()
    peak = 0

    def recorded(budgets, lo, hi):
        nonlocal peak
        for c, fan in real(budgets, lo, hi):
            alive.update([c, *(fan or [])])
            peak = max(peak, len(alive))
            yield c, fan

    monkeypatch.setattr(verifier, "_walk", recorded)
    assert structure_check(3, 3).verdict
    assert 0 < peak <= (3 + 1) * (2 * 3 + 1) + 3


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_structure_check_counts_a_fan_off_the_family_once(monkeypatch, end):
    # one end of one member of the fan of (2,) moved by 1/10^9
    _replace_one_cell(monkeypatch, (2, -1), lambda c: {end: getattr(c, end) + F(1, 10**9)})
    assert _structure_counts(structure_check(2, 3))["self_similarity_mismatches"] == 1


def test_structure_check_counts_a_fan_missing_its_last_member(monkeypatch):
    # the members left match the family's first ids, so only the fan's
    # length tells it from the family
    real = verifier._walk

    def shortened(budgets, lo, hi):
        for c, fan in real(budgets, lo, hi):
            yield c, (fan[:-1] if fan and c.address == (1,) else fan)

    monkeypatch.setattr(verifier, "_walk", shortened)
    assert _structure_counts(structure_check(2, 3))["self_similarity_mismatches"] == 1


def test_structure_check_counts_a_cell_longer_than_its_level_allows(monkeypatch):
    # the middle ramp's data at level 2: slope 2 < 2^2, so length 1 > 2^-1
    _replace_one_cell(monkeypatch, (0, 0), lambda c: {"slope": 2, "lo": F(-1, 2), "hi": F(1, 2)})
    rep = structure_check(2, 3)
    assert _structure_counts(rep)["length_violations"] == 1
    assert not rep.verdict


#: sha256 of the sorted-key JSON of structure_check(k, b), as the scan that
#: rebuilt each fan on its own path stack wrote it
STRUCTURE_DIGESTS = {
    (1, 1): "a6b2812e6eb4471b02dfaa4e5edeeb79a8d1c58589d5589d02229b98f90b0e39",
    (1, 2): "ee1bdae3338625dd9b4b541f8b55006d0a48d0884fb97c00dd730263a4ccd75e",
    (1, 3): "8688f4ec2233d777f21dc5443797f6357467120e68c51a85aeecf1dc82635b98",
    (1, 4): "08ca36144a13dd4737b2ed8d5740280c33ba85108b163246fe38bdacbf530211",
    (1, 5): "f50dab5ae6af76db1a24a544b0e52872f26aef75730de9ed580bb4188041e4e7",
    (1, 6): "aa8090c1c894ae9a70c2e0c1211754b4133a5d03649ad629ebcb330c0c161745",
    (2, 1): "e83b9bf6c73d30d017c2ca8bcd335a9f5062dc8fcca94e84b8412b4cb636913b",
    (2, 2): "f5e9b6adf73055ee1281fcb6b7ca5fc0b725bbcdbbe619363f0fd95bd04f6507",
    (2, 3): "bfc711b575fa48ed3a66c0db69b57c1b0536c8a0f248b1dc905e3dfa3cad5f82",
    (2, 4): "71b329209be552cc076359aead3ad6a73f3365cf7cd144974a9c2c5082c722bb",
    (2, 5): "f07e10a270dedfbec056f11bbbc0351a8f571e8619417f0d5aad4187b36fdbbe",
    (2, 6): "5bec1d435d09b802a63f694a5535797644204cfb9656c670649dc2ae373db1fe",
    (3, 1): "c811574a21c430b8fd7c6fd264cf0ed28d90fae41fcaa3c7235f4484d8117747",
    (3, 2): "8c910d722325679dbbe6721b580961c929a0f5e0cde7f60a8c13eb23e14bcf76",
    (3, 3): "0cb591436f17e42701b10d9a78ce91ac97cc3adf6fd864bc87954560ec2cdbf0",
    (3, 4): "4873ad414b3526cee369be83dbf96dfc5af2378ac0ef5a5c2c64f701459d55d9",
    (3, 5): "17a69297f74dace6c482ac7bdfc8f6dfb0de6b59053689fe9a410f679ac71546",
    (3, 6): "b20ef57bc7cfd27701c98671d163b8b78edaa8676c2172158b079875645133ef",
    (4, 3): "6eae2c7cb37b357ef2946460226b92bd75e6b87f1f7093205c47988c72aef222",
}


@pytest.mark.parametrize("k, budget", sorted(STRUCTURE_DIGESTS))
def test_structure_check_report_is_byte_identical(k, budget):
    text = json.dumps(report_to_dict(structure_check(k, budget)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STRUCTURE_DIGESTS[k, budget]


def test_structure_check_guards():
    with pytest.raises(DomainError):
        structure_check(0, 5)
    with pytest.raises(DomainError):
        structure_check(12, 50)  # enumeration too large
    with pytest.raises(DomainError, match="too large"):
        structure_check(1, 10**7)  # refused before the level-1 family is built


# ---------------------------------------------------------------------------
# integral cross-check
# ---------------------------------------------------------------------------


def test_integral_crosscheck_passes():
    from sawcascade.antiderivative import eval_Fk

    xs = [F(0), F(1, 3), F(-2, 5), F(1), F(-1), F(7, 10)]
    rep = integral_crosscheck(2, xs, 20)
    assert rep.verdict
    assert len(rep.points) == len(xs)
    for (x, v), raw in zip(rep.points, xs):
        assert x == raw and v == eval_Fk(x, 2)
    assert recheck(rep) and roundtrips(rep)


def test_integral_crosscheck_validates():
    with pytest.raises(DomainError):
        integral_crosscheck(0, [F(1, 2)], 10)
    with pytest.raises(DomainError):
        integral_crosscheck(2, [], 10)
