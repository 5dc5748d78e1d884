"""Witness searches and exact certificates.

Frozen expectations here were derived by hand: margins are 2^-(k+1) for
first-level k, the chain walk for interior points lands in middle cells of
known size, and the band arithmetic for the local-minimum check is spelled
out value by value.  Every passing report must also survive ``recheck`` and
a serialization round trip.
"""

from __future__ import annotations

import dataclasses
import sys
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
    points = tapered_endpoints(5, 50)
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
    """Let structure_check enumerate the true cells but one, whose fields
    are replaced by ``changes(cell)``."""
    real = verifier.iter_cells

    def patched(k, index_budget, window=None):
        for c in real(k, index_budget, window):
            yield dataclasses.replace(c, **changes(c)) if c.address == address else c

    monkeypatch.setattr(verifier, "iter_cells", patched)


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


def test_structure_check_counts_a_cell_longer_than_its_level_allows(monkeypatch):
    # the middle ramp's data at level 2: slope 2 < 2^2, so length 1 > 2^-1
    _replace_one_cell(monkeypatch, (0, 0), lambda c: {"slope": 2, "lo": F(-1, 2), "hi": F(1, 2)})
    rep = structure_check(2, 3)
    assert _structure_counts(rep)["length_violations"] == 1
    assert not rep.verdict


def test_structure_check_guards():
    with pytest.raises(DomainError):
        structure_check(0, 5)
    with pytest.raises(DomainError):
        structure_check(12, 50)  # enumeration too large


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
