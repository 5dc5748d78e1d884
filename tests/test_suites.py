"""Tests for the seeded verification suites.

The suites must be deterministic functions of their configuration, draw
points strictly inside the required domains, and taper the endpoint
enumeration so deep levels stay affordable.
"""

from __future__ import annotations

import inspect
import io
import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from math import ceil, floor
from typing import Any, Callable, Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sawcascade import cells, cli, reports, suites
from sawcascade.antiderivative import quotient_bound_check
from sawcascade.cells import first_level_of, iter_cells, require_family_size
from sawcascade.construction import MAX_LAYER_INDEX, DomainError
from sawcascade.suites import (
    SUITE_ORDER,
    SUITES,
    Cases,
    SuiteConfig,
    run_suite_reports,
    tapered_endpoints,
)
from sawcascade.verifier import structure_check

SMALL = SuiteConfig(count=4, max_level=2, n_max=4, structure_max_level=1)


def test_suite_registry_names() -> None:
    assert set(SUITES) == {
        "structure",
        "oscillation",
        "no-extrema",
        "nowhere-monotone",
        "local-min",
        "quotient-bound",
        "integral-crosscheck",
        "darboux",
    }
    assert SUITE_ORDER == list(SUITES) + ["all"]


def test_unknown_suite_raises() -> None:
    with pytest.raises(KeyError):
        run_suite_reports("nosuchsuite", SMALL)


def test_all_concatenates_in_registry_order() -> None:
    joined = list(run_suite_reports("all", SMALL))
    pieces = [list(run_suite_reports(name, SMALL)) for name in SUITES]
    assert joined == [rep for piece in pieces for rep in piece]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_is_deterministic(name: str) -> None:
    assert list(run_suite_reports(name, SMALL)) == list(run_suite_reports(name, SMALL))


def test_seed_only_changes_sampled_suites() -> None:
    other = SuiteConfig(
        seed=999, count=4, max_level=2, n_max=4, structure_max_level=1,
    )
    assert list(run_suite_reports("local-min", SMALL)) != list(run_suite_reports(
        "local-min", other
    ))
    # endpoint enumeration, structure scan and the closed forms do not sample at all
    for name in ("no-extrema", "nowhere-monotone", "darboux"):
        assert list(run_suite_reports(name, SMALL)) == list(run_suite_reports(name, other))
    assert list(run_suite_reports("oscillation", SMALL)) == list(run_suite_reports(
        "oscillation", other
    ))
    assert list(run_suite_reports("structure", SMALL)) == list(run_suite_reports(
        "structure", other
    ))


def test_small_suites_all_pass() -> None:
    for rep in run_suite_reports("all", SMALL):
        assert rep.verdict, (rep.kind, rep.inputs, rep.error)


# ---------------------------------------------------------------------------
# tapered endpoint enumeration
# ---------------------------------------------------------------------------


def test_tapered_endpoints_level1_is_unit_endpoints() -> None:
    assert list(tapered_endpoints(1, 50)) == [(F(-1), 1), (F(1), 1)]


def test_tapered_endpoints_classify_correctly() -> None:
    for x, first_level in tapered_endpoints(4, 20):
        assert first_level_of(x, 10) == first_level


def test_tapered_endpoints_budget_shrinks_with_depth() -> None:
    eps = list(tapered_endpoints(6, 50))
    by_level: dict[int, int] = {}
    for _x, first_level in eps:
        by_level[first_level] = by_level.get(first_level, 0) + 1
    assert sorted(by_level) == [1, 2, 3, 4, 5, 6]
    # deeper levels use smaller index budgets, so counts stay tame
    assert by_level[1] == 2
    assert by_level[6] < 4000
    assert len(eps) == sum(by_level.values()) < 6000


@pytest.mark.parametrize(
    "max_level, index_budget, message",
    [
        (0, 50, "max level must be >= 1, got 0"),
        (-3, 50, "max level must be >= 1, got -3"),
        (3, 0, "index budget must be >= 1, got 0"),
        (3, -7, "index budget must be >= 1, got -7"),
    ],
)
def test_tapered_endpoints_refuse_settings_below_one(
    max_level: int, index_budget: int, message: str
) -> None:
    with pytest.raises(DomainError, match=message):
        tapered_endpoints(max_level, index_budget)


def test_integer_root_equals_counting_up() -> None:
    def counted_up(base: int, power: int) -> int:
        b = 1
        while (b + 1) ** power <= base:
            b += 1
        return b

    for base in range(1, 5001):
        for power in range(1, 13):
            assert suites._integer_root(base, power) == counted_up(base, power)
    for base, power, root in [
        (30_000_000, 1, 30_000_000), (30_000_000, 4, 74), (10**12, 2, 10**6),
        (10**12 - 1, 2, 10**6 - 1), (10**21, 3, 10**7), (10**21 - 1, 3, 10**7 - 1),
        (2**203, 7, 2**29), (2**203 - 1, 7, 2**29 - 1), (3**500 + 1, 5, 3**100),
        (10**40, 1, 10**40), (10**40, 5, 10**8),
    ]:
        assert suites._integer_root(base, power) == root


def test_tapered_endpoints_smallest_budget_is_one_id_per_level() -> None:
    # budget 1 keeps the ids -1, 0, 1 on every level: 3^m level-m cells
    by_level: dict[int, int] = {}
    for _x, first_level in tapered_endpoints(3, 1):
        by_level[first_level] = by_level.get(first_level, 0) + 1
    assert by_level == {1: 2, 2: 4, 3: 12}


def test_tapered_endpoints_sorted_and_unique() -> None:
    xs = [x for x, _first_level in tapered_endpoints(5, 30)]
    assert xs == sorted(xs)
    assert len(set(xs)) == len(xs)


def reference_tapered_endpoints(max_level: int, index_budget: int) -> list[tuple[F, int]]:
    """The enumeration as first written: one iter_cells per level m, deepest
    first, keeping only its level-m cells; a shallower level overwrites."""
    found: dict[F, int] = {F(-1): 1, F(1): 1}
    for m in range(max_level - 1, 0, -1):
        b = max(b for b in range(1, index_budget + 1) if b**m <= index_budget)
        for c in iter_cells(m, b):
            if c.level == m:
                found[c.lo] = found[c.hi] = m + 1
    return sorted(found.items())


@pytest.mark.parametrize("max_level", range(1, 9))
@pytest.mark.parametrize("index_budget", [1, 2, 50])
def test_tapered_endpoints_equal_the_per_level_enumeration(
    max_level: int, index_budget: int
) -> None:
    expected = reference_tapered_endpoints(max_level, index_budget)
    assert list(tapered_endpoints(max_level, index_budget)) == expected
    cfg = SuiteConfig(max_level=max_level, index_budget=index_budget)
    assert len(suites.suite_oscillation(cfg)) == len(expected)  # the closed form


def count_node_steps(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Record the caller of every ``cells.tooth`` call: the integer walk
    ``cells._walk``, which ``cells._endpoints`` reads, takes one per node it
    builds, as (S, C)."""
    callers = []
    real = cells.tooth

    def counting(j: int) -> tuple[int, int]:
        callers.append(sys._getframe(1).f_code.co_name)
        return real(j)

    monkeypatch.setattr(cells, "tooth", counting)
    return callers


def test_tapered_endpoints_build_each_cell_once(monkeypatch: pytest.MonkeyPatch) -> None:
    callers = count_node_steps(monkeypatch)
    list(tapered_endpoints(6, 50))
    # budgets 50, 7, 3, 2, 2 for levels 1..5: 101 + 15^2 + 7^3 + 5^4 + 5^5 cells
    assert len(callers) == 101 + 15**2 + 7**3 + 5**4 + 5**5 == 4419
    assert set(callers) == {"_walk"}


def test_tapered_endpoints_refuse_the_deepest_family_before_building(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_cell(j: int) -> tuple[int, int]:
        raise AssertionError("a cell was built before the size check")

    monkeypatch.setattr(cells, "tooth", no_cell)
    with pytest.raises(DomainError, match=r"enumerating \(2\*1\+1\)\^19 cells is too large"):
        tapered_endpoints(20, 50)


def test_tapered_endpoints_stream_with_one_fan_per_level(monkeypatch: pytest.MonkeyPatch) -> None:
    callers = count_node_steps(monkeypatch)
    endpoints = tapered_endpoints(8, 50)
    assert callers == []
    first = [next(endpoints) for _ in range(3)]
    # budgets 50, 7, 3, 2, 2, 1, 1 for levels 1..7: at most one fan per level
    # is built by the third endpoint, where the whole family is 9122 cells
    assert 0 < len(callers) <= 101 + 15 + 7 + 5 + 5 + 3 + 3
    assert set(callers) == {"_walk"}
    assert first == reference_tapered_endpoints(8, 50)[:3]


#: One level past the layer bound: every cell family of that level is refused
#: before its size is formed, and a family of one cell per level too.
PAST_THE_BOUND = MAX_LAYER_INDEX + 1


@pytest.mark.parametrize(
    "enumerate_cells, message",
    [
        (lambda: require_family_size(3_000_000, 1), "level k must be at most 5000, got 3000000"),
        (lambda: require_family_size(PAST_THE_BOUND, 0), "level k must be at most 5000, got 5001"),
        (lambda: next(iter_cells(PAST_THE_BOUND, 0)), "level k must be at most 5000, got 5001"),
        (lambda: tapered_endpoints(PAST_THE_BOUND, 1), "max level must be at most 5000, got 5001"),
        (lambda: structure_check(PAST_THE_BOUND, 1), "level k must be at most 5000, got 5001"),
    ],
    ids=["require_family_size_3000000", "require_family_size", "iter_cells",
         "tapered_endpoints", "structure_check"],
)
def test_cell_families_past_the_layer_bound_are_refused_at_once(
    enumerate_cells, message: str
) -> None:
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        enumerate_cells()
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == message


def test_cell_family_at_the_layer_bound_is_counted_not_formed() -> None:
    require_family_size(MAX_LAYER_INDEX, 0)  # one cell per level
    assert sum(1 for _ in iter_cells(MAX_LAYER_INDEX, 0)) == MAX_LAYER_INDEX
    with pytest.raises(DomainError, match=r"\(2\*1\+1\)\^5000 cells is too large"):
        require_family_size(MAX_LAYER_INDEX, 1)


def test_suite_inputs_stay_in_required_domains() -> None:
    for rep in run_suite_reports("local-min", SMALL):
        x = F(rep.input("x"))
        assert F(0) < x < F(1, 4)
    windows = [rep.input("delta") for rep in run_suite_reports("no-extrema", SMALL)]
    assert windows == ["1/10", "1/100", "1/1000"]
    lengths = [rep.input("length") for rep in run_suite_reports("nowhere-monotone", SMALL)]
    assert lengths == ["1/10", "1/100", "1/1000"]


@pytest.mark.parametrize(
    "name, settings, message",
    [
        ("structure", {"index_budget": 0}, "index budget must be >= 1, got 0"),
        ("structure", {"structure_max_level": 9}, "cells is too large"),
        ("oscillation", {"depth": 2}, "^max level 6 needs depth >= 5, got 2$"),
        ("oscillation", {"max_level": 20}, "cells is too large"),
        ("local-min", {"index_budget": -1}, "index budget must be >= 0, got -1"),
    ],
)
def test_suites_refuse_when_called_not_when_drawn(name: str, settings: dict, message: str) -> None:
    # the refusal comes from the call itself: no report has been drawn yet
    with pytest.raises(DomainError, match=message):
        run_suite_reports(name, SuiteConfig(**settings))


@pytest.mark.parametrize("max_level", range(1, 6))
@pytest.mark.parametrize("depth", range(1, 5))
def test_oscillation_refuses_exactly_past_depth_plus_one(max_level: int, depth: int) -> None:
    cfg = SuiteConfig(max_level=max_level, depth=depth, index_budget=2)
    if max_level > depth + 1:
        message = f"^max level {max_level} needs depth >= {max_level - 1}, got {depth}$"
        with pytest.raises(DomainError, match=message):
            SUITES["oscillation"](cfg)
    else:  # no endpoint refuses when drawn
        cases = SUITES["oscillation"](cfg)
        assert sum(1 for _ in cases) == len(cases)


def test_oscillation_depth_refusal_builds_no_cell(monkeypatch: pytest.MonkeyPatch) -> None:
    built = count_node_steps(monkeypatch)
    with pytest.raises(DomainError, match="^max level 6 needs depth >= 5, got 2$"):
        SUITES["oscillation"](SuiteConfig(depth=2))
    assert built == []


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("cfg", [SMALL, SuiteConfig(
    count=1, n_max=2, max_level=1, structure_max_level=1, index_budget=1
)])
def test_suite_length_is_its_number_of_reports(name: str, cfg: SuiteConfig) -> None:
    cases = SUITES[name](cfg)
    count = len(cases)
    assert count >= 1
    assert len(list(cases)) == count
    assert list(cases) == []  # drawn once


def test_a_suite_with_no_case_is_refused(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setitem(SUITES, "local-min", lambda cfg: Cases(0, []))
    with pytest.raises(DomainError, match="^suite local-min yields no cases with these settings$"):
        run_suite_reports("local-min", SMALL)


class CountingRandom(random.Random):
    """A Mersenne generator that counts its randint draws."""

    draws = 0

    def randint(self, a: int, b: int) -> int:
        CountingRandom.draws += 1
        return super().randint(a, b)


#: randint draws behind each seeded suite's first report at the default
#: settings: a rational strictly inside a window takes two (denominator and
#: numerator), so one point, nothing (the first quotient-bound probe is a
#: band midpoint) and the four random points of the first integral
#: cross-check.
FIRST_REPORT_DRAWS = {
    "local-min": 2,
    "quotient-bound": 0,
    "integral-crosscheck": 8,
}


@pytest.mark.parametrize("name", sorted(FIRST_REPORT_DRAWS))
def test_seeded_suites_draw_each_input_with_its_report(
    name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(suites.random, "Random", CountingRandom)
    monkeypatch.setattr(CountingRandom, "draws", 0)
    cases = SUITES[name](SuiteConfig())
    assert CountingRandom.draws == 0
    next(iter(cases))
    assert CountingRandom.draws == FIRST_REPORT_DRAWS[name]


# ---------------------------------------------------------------------------
# quotient-bound in closed form
# ---------------------------------------------------------------------------


def quotient_bound_points_as_first_written(cfg: SuiteConfig) -> Iterator[tuple[int, int, F]]:
    """(k, n, x) of the quotient-bound suite as first written: the band ends
    by subtraction, the seeded point by interpolation, on the same draws."""
    rng = random.Random(cfg.seed)
    for k in range(1, 9):
        for n in range(2, cfg.n_max + 1):
            band_lo = F(1, n + 1) - 1
            band_hi = F(1, n) - 1
            yield k, n, (band_lo + band_hi) / 2
            yield k, n, band_hi
            yield k, n, band_lo + (band_hi - band_lo) * F(rng.randint(1, 999), 1000)


def test_quotient_bound_points_equal_the_first_written_ones() -> None:
    cfg = SuiteConfig(n_max=300, seed=2331)
    expected = list(quotient_bound_points_as_first_written(cfg))
    reports = list(suites.suite_quotient_bound(cfg))
    assert len(reports) == len(expected) == 24 * 299
    for report, (k, n, x) in zip(reports, expected):
        [(point, value)] = report.points
        assert (report.input("k"), report.input("n"), point) == (str(k), str(n), x)
        bounded = report.certificate[-1]
        assert bounded.label == "quotient_bounded" and bounded.lhs == abs(value) / (x + 1)
        assert report.verdict


def test_quotient_bound_band_ends_equal_the_first_written_ones() -> None:
    for n in range(1, 301):
        lower, upper, _bounded = quotient_bound_check(1, n, F(1, n) - 1).certificate
        assert (lower.label, lower.lhs) == ("band_lower", F(1, n + 1) - 1)
        assert (upper.label, upper.rhs) == ("band_upper", F(1, n) - 1)


def test_quotient_bound_first_band_is_open_below_and_closed_above() -> None:
    with pytest.raises(DomainError, match=r"x must lie in \(-1/2, 0\] for band n=1, got -1/2"):
        quotient_bound_check(1, 1, F(-1, 2))
    assert quotient_bound_check(1, 1, F(0)).verdict


def test_quotient_bound_draws_its_first_report_without_a_list_of_bands() -> None:
    tracemalloc.start()
    try:
        cases = suites.suite_quotient_bound(SuiteConfig(n_max=10**6))
        first = next(iter(cases))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cases) == 24 * (10**6 - 1)
    assert (first.input("k"), first.input("n"), first.points[0][0]) == ("1", "2", F(-7, 12))
    assert peak < 1 << 20  # a list of 10^6 bands would take tens of MiB


# ---------------------------------------------------------------------------
# the closed forms of no-extrema and nowhere-monotone
# ---------------------------------------------------------------------------

#: mode -> the report builder and the input it is built from
CLOSED_FORMS = {
    "every_interior_point": (suites._no_extremum_report, "delta"),
    "every_interval": (suites._non_monotone_report, "length"),
}


def rebuilds(case: dict[str, Any]) -> bool:
    """The audit rule of an ``every_interior_point`` or ``every_interval``
    case: it is exactly the report its own ``delta`` or ``length`` builds."""
    build, key = CLOSED_FORMS[case["inputs"]["mode"]]
    return reports.report_to_dict(build(F(case["inputs"][key]))) == case


@pytest.fixture(scope="module")
def verify_all_cases() -> list[dict[str, Any]]:
    out = io.StringIO()
    assert cli.run(["verify", "all"], stdout=out, stderr=io.StringIO()) == 0
    return json.loads(out.getvalue())["cases"]


@pytest.mark.parametrize("mode, levels, edits", [
    ("every_interior_point", ["5", "8", "11"], (("delta", "1/7"), ("level", "4"))),
    ("every_interval", ["6", "9", "12"], (("length", "1/7"), ("level", "5"))),
])
def test_closed_form_case_rebuilds_and_an_edited_copy_does_not(
    verify_all_cases: list[dict[str, Any]], mode: str, levels: list[str], edits: tuple
) -> None:
    cases = [case for case in verify_all_cases if case["inputs"].get("mode") == mode]
    assert [case["inputs"]["level"] for case in cases] == levels
    for case in cases:
        assert rebuilds(case)
        for key, value in edits:
            edited = json.loads(json.dumps(case))
            edited["inputs"][key] = value
            # the stored verdict still replays: only the rebuild catches the edit
            assert reports.recheck(reports.report_from_dict(edited))
            assert not rebuilds(edited), key


@pytest.mark.parametrize("name, level, suite, label", [
    ("_no_extremum_report", ".bit_length() + 1", "no-extrema", "cell_fits_window"),
    ("_non_monotone_report", ".bit_length() + 2", "nowhere-monotone", "cell_fits_half_interval"),
])
def test_a_level_one_too_small_fails_the_fit_check(
    name: str, level: str, suite: str, label: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    source = inspect.getsource(getattr(suites, name))
    mutant = source.replace(level, level + " - 1")
    assert mutant != source
    namespace = dict(vars(suites))
    exec(compile(mutant, f"mutant {name}", "exec"), namespace)
    monkeypatch.setattr(suites, name, namespace[name])
    for rep in SUITES[suite](SuiteConfig()):
        assert [c.label for c in rep.failed_checks()] == [label]
        assert not rep.verdict


# ---------------------------------------------------------------------------
# the hooks the benchmark times and traces
# ---------------------------------------------------------------------------


def test_verify_all_makes_every_report_through_the_module_level_names(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # patched in every sawcascade module that holds them, as the benchmark does
    calls = {"make_report": 0, "oscillation_witness": 0}

    def counted(name: str, real: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for real in (reports.make_report, suites.oscillation_witness):
        wrapper = counted(real.__name__, real)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sawcascade":
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, wrapper)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["verify", "all"], stdout=out, stderr=err) == 0
    assert err.getvalue() == "suite all: 6530 passed, 0 failed\n"
    assert calls == {"make_report": 6530, "oscillation_witness": 5236}


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def loop_with_membership_test(rng: random.Random, lo: F, hi: F, max_den: int) -> F:
    """The draw as it was written before its redundant ``lo < x < hi`` test
    was dropped: the oracle for the draws' values and their number."""
    while True:
        den = rng.randint(2, max_den)
        num_lo = floor(lo * den) + 1
        num_hi = ceil(hi * den) - 1
        if num_lo > num_hi:
            continue
        x = F(rng.randint(num_lo, num_hi), den)
        if lo < x < hi:
            return x


@given(
    seed=st.integers(0, 2**32),
    lo_thousandths=st.integers(-1000, 990),
    width_thousandths=st.integers(10, 2000),
    max_den=st.integers(1000, 10**6),  # every den past 100 has a numerator inside
)
def test_random_rational_draws_strictly_inside_as_the_membership_loop_did(
    seed: int, lo_thousandths: int, width_thousandths: int, max_den: int
) -> None:
    lo = F(lo_thousandths, 1000)
    hi = min(F(1), lo + F(width_thousandths, 1000))
    drawn, oracle = random.Random(seed), random.Random(seed)
    for _ in range(5):
        x = suites._random_rational(drawn, lo, hi, max_den)
        assert lo < x < hi and x.denominator <= max_den
        assert x == loop_with_membership_test(oracle, lo, hi, max_den)
    assert drawn.getstate() == oracle.getstate()
