"""Seeded verification suites: reproducible batches of witness reports.

Each suite draws its sample points from an explicitly seeded Mersenne
generator (integer draws only, so results are stable across platforms and
Python versions) or enumerates cell endpoints outright.  Given the same
configuration a suite returns the identical list of reports, certificate
for certificate.

The endpoint enumeration for the oscillation suite tapers its per-level
index budget so that every level's cell family contributes about the same
number of endpoints: level m uses the largest b with b^m <= index_budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Callable

from sawcascade.antiderivative import darboux_gap, quotient_bound_check
from sawcascade.cells import iter_cells
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
    DomainError here, before any suite runs, whichever suites read it.
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
        require_positive_delta(self.delta)
        require_at_least(self.max_level, 1, "max level")
        require_at_least(self.cells_budget, 1, "cells budget")
        if self.structure_max_level < 1:  # the structure suite's zero-case refusal
            raise DomainError("suite structure yields no cases with these settings")
        require_at_least(self.fan_budget, 0, "fan budget")


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
    _integer_root(index_budget, m), so each level contributes roughly
    index_budget^(something bounded) endpoints instead of blowing up
    geometrically.  Levels are walked deepest first, so the size guard of
    iter_cells checks the deepest family before any cell is built, and a
    shallower level's first level overwrites a deeper one's.  Returns
    (x, first_level) pairs sorted by x.  Refuses max_level or index_budget
    below 1 rather than read them as 1 or as +-1 alone.
    """
    require_at_least(max_level, 1, "max level")
    require_at_least(index_budget, 1, "index budget")
    found: dict[Rat, int] = {F(-1): 1, F(1): 1}
    for m in range(max_level - 1, 0, -1):
        for c in iter_cells(m, _integer_root(index_budget, m)):
            if c.level == m:
                found[c.lo] = found[c.hi] = m + 1
    # exact order by value: the integer floor(x 2^64) settles all but ties
    order = sorted(found, key=lambda x: ((x.numerator << 64) // x.denominator, x))
    return [(x, found[x]) for x in order]


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def suite_oscillation(cfg: SuiteConfig) -> list[WitnessReport]:
    return [
        oscillation_witness(x, cfg.delta, cfg.depth, cfg.fan_budget)
        for x, _first_level in tapered_endpoints(cfg.max_level, cfg.index_budget)
    ]


def suite_no_extrema(cfg: SuiteConfig) -> list[WitnessReport]:
    rng = _rng(cfg)
    xs = [
        _random_rational(rng, F(-1), F(1), 10**6) for _ in range(cfg.count)
    ]
    reports = []
    for x in xs:
        for exponent in (1, 2, 3):
            reports.append(
                non_extremum_witness(
                    x, F(1, 10**exponent), cfg.depth, cfg.fan_budget
                )
            )
    return reports


def suite_nowhere_monotone(cfg: SuiteConfig) -> list[WitnessReport]:
    rng = _rng(cfg)
    reports = []
    min_width = F(1, 1000)
    while len(reports) < cfg.count:
        u = _random_rational(rng, F(-1), F(1), 1000)
        v = _random_rational(rng, F(-1), F(1), 1000)
        a, b = min(u, v), max(u, v)
        if b - a < min_width:
            continue
        reports.append(non_monotone_witness(a, b, cfg.depth, cfg.fan_budget))
    return reports


def suite_local_min(cfg: SuiteConfig) -> list[WitnessReport]:
    rng = _rng(cfg)
    return [
        local_min_check(_random_rational(rng, F(0), F(1, 4), 10**6))
        for _ in range(cfg.count)
    ]


def suite_quotient_bound(cfg: SuiteConfig) -> list[WitnessReport]:
    rng = _rng(cfg)
    reports = []
    for k in range(1, 9):
        for n in range(2, cfg.n_max + 1):
            band_lo = F(1, n + 1) - 1
            band_hi = F(1, n) - 1
            seeded = band_lo + (band_hi - band_lo) * F(rng.randint(1, 999), 1000)
            for x in ((band_lo + band_hi) / 2, band_hi, seeded):
                reports.append(quotient_bound_check(k, n, x))
    return reports


def suite_integral_crosscheck(cfg: SuiteConfig) -> list[WitnessReport]:
    rng = _rng(cfg)
    reports = []
    for k in range(1, 7):
        xs = [F(-1), F(-1, 2), F(0), F(1, 3), F(7, 10), F(1)]
        xs += [_random_rational(rng, F(-1), F(1), 10**4) for _ in range(4)]
        reports.append(integral_crosscheck(k, xs, cfg.index_budget))
    return reports


def suite_structure(cfg: SuiteConfig) -> list[WitnessReport]:
    """One structure scan per level 1..structure_max_level, in that order.

    The scans run deepest first, so the size guard of iter_cells refuses a
    too-deep level before any shallower scan has run.
    """
    budget = min(6, cfg.index_budget)
    reports = [
        structure_check(k, budget)
        for k in range(cfg.structure_max_level, 0, -1)
    ]
    return reports[::-1]


def suite_darboux(cfg: SuiteConfig) -> list[WitnessReport]:
    enc = darboux_gap(cfg.K, cfg.cells_budget)
    certificate = [
        check("integral_at_least", "<=", enc.lower, 0),
        check("integral_at_most", "<=", 0, enc.upper),
    ]
    report = make_report(
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
    return [report]


SUITES: dict[str, Callable[[SuiteConfig], list[WitnessReport]]] = {
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


def run_suite_reports(name: str, cfg: SuiteConfig) -> list[WitnessReport]:
    """Reports for one suite name, or every suite in order for 'all'.

    A suite that yields no case under ``cfg`` (say ``count`` 0) raises
    DomainError: a check with nothing to check must not pass.
    """
    reports: list[WitnessReport] = []
    for suite_name in SUITES if name == "all" else [name]:
        batch = SUITES[suite_name](cfg)
        if not batch:
            raise DomainError(f"suite {suite_name} yields no cases with these settings")
        reports.extend(batch)
    return reports
