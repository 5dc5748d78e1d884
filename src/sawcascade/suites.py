"""Seeded verification suites: reproducible batches of witness reports.

Each suite draws its sample points from an explicitly seeded Mersenne
generator (integer draws only, so results are stable across platforms and
Python versions) or enumerates cell endpoints outright.  Called with a
configuration, a suite makes its refusals and draws its inputs, then
returns an iterator of reports that certifies each report when it is drawn,
so a caller that writes and drops each report holds one at a time.  Given
the same configuration the iterator yields the identical reports,
certificate for certificate.

The endpoint enumeration for the oscillation suite tapers its per-level
index budget so that every level's cell family contributes about the same
number of endpoints: level m uses the largest b with b^m <= index_budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import ceil, floor
from typing import Callable, Iterable, Iterator

from sawcascade.antiderivative import darboux_gap, quotient_bound_check
from sawcascade.cells import ROOT, child_cell, require_family_size
from sawcascade.construction import (
    DomainError,
    Rat,
    require_at_least,
    require_depth,
    require_layer_index,
)
from sawcascade.reports import WitnessReport, check, make_report
from sawcascade.verifier import (
    DEFAULT_DEPTH,
    DEFAULT_FAN_BUDGET,
    integral_crosscheck,
    local_min_check,
    non_extremum_witness,
    non_monotone_witness,
    oscillation_witness,
    require_positive_delta,
    structure_check,
)

F = Fraction


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites; every field has a reproducible default.

    ``verify`` has one flag per field, ``--`` and the name with dashes.  Every
    report echoes every setting, so a setting out of bounds raises
    DomainError here, before any suite runs, whichever suites read it; only
    a negative index budget waits for ``run_suite_reports``, which first
    lets the cell enumerations refuse it with their own floor of 1.
    """

    seed: int = 20240601
    count: int = 100
    K: int = 30
    depth: int = DEFAULT_DEPTH
    index_budget: int = 50
    cells_budget: int = 60
    n_max: int = 50
    fan_budget: int = DEFAULT_FAN_BUDGET
    delta: Rat = F(1, 1000)
    max_level: int = 6
    structure_max_level: int = field(
        default=3, metadata={"help": "deepest level of the structure scan"}
    )

    def __post_init__(self) -> None:
        require_at_least(self.K, 1, "truncation K")
        require_layer_index("--depth", require_depth(self.depth))
        require_layer_index("--structure-max-level", self.structure_max_level)
        require_positive_delta(self.delta)
        require_layer_index("--max-level", require_at_least(self.max_level, 1, "max level"))
        require_at_least(self.cells_budget, 1, "cells budget")
        require_family_size(1, self.cells_budget)  # darboux sums 2 B + 1 teeth
        if self.structure_max_level < 1:  # the structure suite's zero-case refusal
            raise DomainError("suite structure yields no cases with these settings")
        require_at_least(self.fan_budget, 0, "fan budget")
        # below these floors the sampled suites and quotient-bound yield no cases
        for what, value, floor in (("count", self.count, 1), ("n max", self.n_max, 2)):
            if value < floor:
                raise DomainError(f"{what} must be >= {floor}, got {value} (no cases)")


def _rng(cfg: SuiteConfig) -> random.Random:
    return random.Random(cfg.seed)


def _random_rational(rng: random.Random, lo: Rat, hi: Rat, max_den: int) -> Rat:
    """A random rational strictly inside (lo, hi) with denominator <= max_den."""
    while True:
        den = rng.randint(2, max_den)
        num_lo = floor(lo * den) + 1
        num_hi = ceil(hi * den) - 1
        if num_lo > num_hi:
            continue
        x = F(rng.randint(num_lo, num_hi), den)
        if lo < x < hi:
            return x


def _integer_root(base: int, power: int) -> int:
    """Largest b >= 1 with b**power <= base."""
    b = 1
    while (b + 1) ** power <= base:
        b += 1
    return b


def tapered_endpoints(max_level: int, index_budget: int) -> list[tuple[Rat, int]]:
    """Cell endpoints with first levels 1..max_level, tapered per level.

    Level-m cells are enumerated with per-coordinate budget
    b_m = _integer_root(index_budget, m), so each level contributes roughly
    index_budget^(something bounded) endpoints instead of blowing up
    geometrically.  b_m falls with m, so level m is built from the level-(m-1)
    cells whose ids are all within b_m, the only ones kept, and each cell is
    built once.  Every family's size is checked before any cell is built,
    deepest first.  Cells of different levels share no endpoint (children
    accumulate at their parent's ends without reaching them).  Returns
    (x, first_level) pairs sorted by x.  Refuses max_level or index_budget
    below 1 rather than read them as 1 or as +-1 alone.
    """
    require_at_least(max_level, 1, "max level")
    require_at_least(index_budget, 1, "index budget")
    budgets = {m: _integer_root(index_budget, m) for m in range(1, max_level)}
    for m in reversed(budgets):
        require_family_size(m, budgets[m])
    found: dict[Rat, int] = {F(-1): 1, F(1): 1}
    kept = [ROOT]
    for m, b in budgets.items():
        next_b = budgets.get(m + 1, -1)  # the deepest level keeps no cell
        parents, kept = kept, []
        for parent in parents:
            for j in range(-b, b + 1):
                c = child_cell(parent, j)
                found[c.lo] = found[c.hi] = m + 1
                if max(map(abs, c.address)) <= next_b:
                    kept.append(c)
    # exact order by value: the integer floor(x 2^64) settles all but ties
    order = sorted(found, key=lambda x: ((x.numerator << 64) // x.denominator, x))
    return [(x, found[x]) for x in order]


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


class Cases(Iterable[WitnessReport]):
    """A suite's reports, each certified when it is drawn; they can be
    drawn once.

    A suite has made its refusals and drawn its inputs by the time it
    returns this, so ``len`` (the number of reports in all, drawn or not)
    is known before the first report is certified.
    """

    __slots__ = ("_count", "_reports")

    def __init__(self, count: int, reports: Iterable[WitnessReport]) -> None:
        self._count = count
        self._reports = iter(reports)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[WitnessReport]:
        return self._reports


def suite_oscillation(cfg: SuiteConfig) -> Cases:
    endpoints = tapered_endpoints(cfg.max_level, cfg.index_budget)
    # oscillation_witness refuses an endpoint whose first level lies past
    # depth + 1 (its orbit record never reaches +-1): meet the first such
    # refusal here, before any report
    for x, first_level in endpoints:
        if first_level > cfg.depth + 1:
            oscillation_witness(x, cfg.delta, cfg.depth, cfg.fan_budget)
    return Cases(len(endpoints), (
        oscillation_witness(x, cfg.delta, cfg.depth, cfg.fan_budget)
        for x, _first_level in endpoints
    ))


def suite_no_extrema(cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg)
    xs = [_random_rational(rng, F(-1), F(1), 10**6) for _ in range(cfg.count)]
    probes = [(x, F(1, 10**exponent)) for x in xs for exponent in (1, 2, 3)]
    return Cases(len(probes), (
        non_extremum_witness(x, delta, cfg.depth, cfg.fan_budget) for x, delta in probes
    ))


def suite_nowhere_monotone(cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg)
    intervals: list[tuple[Rat, Rat]] = []
    min_width = F(1, 1000)
    while len(intervals) < cfg.count:
        u = _random_rational(rng, F(-1), F(1), 1000)
        v = _random_rational(rng, F(-1), F(1), 1000)
        a, b = min(u, v), max(u, v)
        if b - a >= min_width:
            intervals.append((a, b))
    return Cases(len(intervals), (
        non_monotone_witness(a, b, cfg.depth, cfg.fan_budget) for a, b in intervals
    ))


def suite_local_min(cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg)
    xs = [_random_rational(rng, F(0), F(1, 4), 10**6) for _ in range(cfg.count)]
    return Cases(len(xs), (local_min_check(x) for x in xs))


def suite_quotient_bound(cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg)
    probes = []
    for k in range(1, 9):
        for n in range(2, cfg.n_max + 1):
            band_lo = F(1, n + 1) - 1
            band_hi = F(1, n) - 1
            seeded = band_lo + (band_hi - band_lo) * F(rng.randint(1, 999), 1000)
            for x in ((band_lo + band_hi) / 2, band_hi, seeded):
                probes.append((k, n, x))
    return Cases(len(probes), (quotient_bound_check(k, n, x) for k, n, x in probes))


def suite_integral_crosscheck(cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg)
    batches = []
    for k in range(1, 7):
        xs = [F(-1), F(-1, 2), F(0), F(1, 3), F(7, 10), F(1)]
        xs += [_random_rational(rng, F(-1), F(1), 10**4) for _ in range(4)]
        batches.append((k, xs))
    return Cases(len(batches), (
        integral_crosscheck(k, xs, cfg.index_budget) for k, xs in batches
    ))


def suite_structure(cfg: SuiteConfig) -> Cases:
    """One structure scan per level 1..structure_max_level, in that order.

    The deepest scan's refusals (an index budget below 1, a cell family
    too large) are met here, before any scan runs.
    """
    budget = min(6, cfg.index_budget)
    levels = range(1, cfg.structure_max_level + 1)
    require_at_least(budget, 1, "index budget")
    require_family_size(levels[-1], budget)
    return Cases(len(levels), (structure_check(k, budget) for k in levels))


def _darboux_report(cfg: SuiteConfig) -> WitnessReport:
    enc = darboux_gap(cfg.K, cfg.cells_budget)
    certificate = [
        check("integral_at_least", "<=", enc.lower, 0),
        check("integral_at_most", "<=", 0, enc.upper),
    ]
    return make_report(
        "integral_crosscheck",
        {
            "target": "whole_domain_series_integral",
            "K": cfg.K,
            "cells_budget": cfg.cells_budget,
            "width": enc.width,
        },
        [(F(0), enc.center)],
        certificate,
    )


def suite_darboux(cfg: SuiteConfig) -> Cases:
    return Cases(1, map(_darboux_report, [cfg]))


SUITES: dict[str, Callable[[SuiteConfig], Cases]] = {
    "structure": suite_structure,
    "oscillation": suite_oscillation,
    "no-extrema": suite_no_extrema,
    "nowhere-monotone": suite_nowhere_monotone,
    "local-min": suite_local_min,
    "quotient-bound": suite_quotient_bound,
    "integral-crosscheck": suite_integral_crosscheck,
    "darboux": suite_darboux,
}

SUITE_ORDER = list(SUITES) + ["all"]


def run_suite_reports(name: str, cfg: SuiteConfig) -> Iterator[WitnessReport]:
    """Reports for one suite name, or every suite in order for 'all', each
    certified when it is drawn.

    Every suite is called first, so each refusal is raised here, before the
    first report: first each suite's own, then an index budget below 0
    (the oscillation and structure suites need at least 1 and say so
    first), then a suite that yields no case under ``cfg``, since a check
    with nothing to check must not pass.
    """
    batches = {suite_name: SUITES[suite_name](cfg)
               for suite_name in (SUITES if name == "all" else [name])}
    require_at_least(cfg.index_budget, 0, "index budget")
    for suite_name, batch in batches.items():
        if not len(batch):
            raise DomainError(f"suite {suite_name} yields no cases with these settings")
    return chain.from_iterable(batches.values())
