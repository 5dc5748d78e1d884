"""Seeded verification suites: reproducible batches of witness reports.

Each suite draws its sample points from an explicitly seeded Mersenne
generator (integer draws only, so results are stable across platforms and
Python versions), enumerates cell endpoints outright, or certifies a closed
form per fixed scale (no-extrema, nowhere-monotone, darboux).  Called with
a configuration, a suite makes its refusals and returns an iterator of
reports that draws each report's inputs and certifies it when it is drawn,
so a caller that writes and drops each report holds one at a time, and no
suite holds its inputs.  Given the same configuration the iterator yields
the identical reports, certificate for certificate.

The endpoint enumeration for the oscillation suite tapers its per-level
index budget so that every level's cell family contributes about the same
number of endpoints: level m uses the largest b with b^m <= index_budget.
The endpoints stream in ascending x off one walk of the cell tree, and
their count has a closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import ceil, floor
from typing import Callable, Iterable, Iterator

from sawcascade.antiderivative import darboux_gap, quotient_bound_check
from sawcascade.cells import _endpoints, require_family_size
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
    oscillation_witness,
    require_positive_delta,
    structure_check,
)

F = Fraction

SCALES = (F(1, 10), F(1, 100), F(1, 1000))  # no-extrema, nowhere-monotone, darboux


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
    depth: int = DEFAULT_DEPTH
    index_budget: int = 50
    n_max: int = 50
    fan_budget: int = DEFAULT_FAN_BUDGET
    delta: Rat = F(1, 1000)
    max_level: int = 6
    structure_max_level: int = field(
        default=3, metadata={"help": "deepest level of the structure scan"}
    )

    def __post_init__(self) -> None:
        require_layer_index("--depth", require_depth(self.depth))
        require_layer_index("--structure-max-level", self.structure_max_level)
        require_positive_delta(self.delta)
        require_layer_index("--max-level", require_at_least(self.max_level, 1, "max level"))
        if self.structure_max_level < 1:  # the structure suite's zero-case refusal
            raise DomainError("suite structure yields no cases with these settings")
        require_at_least(self.fan_budget, 0, "fan budget")
        for what, value, floor, readers in (
            ("count", self.count, 1, "local-min"),
            ("n max", self.n_max, 2, "quotient-bound"),
        ):
            if value < floor:  # the suites that read the setting would yield no cases
                raise DomainError(f"{what} must be >= {floor}, got {value} "
                                  f"({readers} would yield no cases)")


def _random_rational(rng: random.Random, lo: Rat, hi: Rat, max_den: int) -> Rat:
    """A random rational strictly inside (lo, hi) with denominator <= max_den."""
    while True:
        den = rng.randint(2, max_den)
        num_lo = floor(lo * den) + 1
        num_hi = ceil(hi * den) - 1
        if num_lo > num_hi:
            continue
        return F(rng.randint(num_lo, num_hi), den)


def _integer_root(base: int, power: int) -> int:
    """Largest b >= 1 with b**power <= base, by bisection on integers."""
    lo, hi = 1, 1 << (base.bit_length() // power + 1)  # hi**power > base
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** power <= base else (lo, mid)
    return lo


def tapered_endpoints(max_level: int, index_budget: int) -> Iterator[tuple[Rat, int]]:
    """Cell endpoints with first levels 1..max_level, tapered per level.

    Level m takes the level-m cells whose ids are all within
    b_m = _integer_root(index_budget, m), so each level contributes roughly
    index_budget^(something bounded) endpoints instead of blowing up
    geometrically.  Every family's size is checked at the call, deepest
    first, before any cell is built.  Returns an iterator of (x, first_level)
    pairs in ascending x, read off one walk of the cell tree that holds at
    most one fan per level.  Refuses max_level or index_budget below 1
    rather than read them as 1 or as +-1 alone, and max_level above
    MAX_LAYER_INDEX.
    """
    require_layer_index("max level", require_at_least(max_level, 1, "max level"))
    require_at_least(index_budget, 1, "index budget")
    budgets = tuple(_integer_root(index_budget, m) for m in range(1, max_level))
    for m in range(len(budgets), 0, -1):
        require_family_size(m, budgets[m - 1])
    return _endpoints(budgets)


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


class Cases(Iterable[WitnessReport]):
    """A suite's reports, each certified when it is drawn; they can be
    drawn once.

    A suite has made its refusals by the time it returns this, and counts
    its reports in closed form, so ``len`` (the number of reports in all,
    drawn or not) is known before any input is drawn.
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
    # depth + 1 (its orbit record never reaches +-1), and every first level
    # up to max_level occurs: refuse here, before any cell is built
    if cfg.max_level > cfg.depth + 1:
        m, d = cfg.max_level, cfg.depth
        raise DomainError(f"max level {m} needs depth >= {m - 1}, got {d}")
    # 2 for +-1, and per level m a fan of 2 b + 2 endpoints under each of the
    # (2 b + 1)^(m - 1) parents with ids within b = b_m
    budgets = (_integer_root(cfg.index_budget, m) for m in range(1, cfg.max_level))
    count = 2 + sum((2 * b + 1) ** (m - 1) * (2 * b + 2) for m, b in enumerate(budgets, 1))
    return Cases(count, (
        oscillation_witness(x, cfg.delta, cfg.depth, cfg.fan_budget)
        for x, _first_level in endpoints
    ))


def _no_extremum_report(delta: Rat) -> WitnessReport:
    """No point off the cell endpoints is a local extremum of f within delta,
    by the README's "No local extrema off the endpoints" (L2, L8, L6): the
    level-M chain cell fits the window, and the proof reaches level M + 1."""
    M = (delta.denominator // delta.numerator).bit_length() + 1
    certificate = [check("cell_fits_window", "<", F(2, 2**M), delta)]
    inputs = {"mode": "every_interior_point", "delta": delta, "level": M}
    return make_report("non_extremum", inputs, [], certificate)


def suite_no_extrema(cfg: SuiteConfig) -> Cases:
    return Cases(len(SCALES), map(_no_extremum_report, SCALES))


def _non_monotone_report(length: Rat) -> WitnessReport:
    """f is monotone on no interval of length >= ``length`` (README, "Nowhere monotone")."""
    M = (length.denominator // length.numerator).bit_length() + 2
    certificate = [check("cell_fits_half_interval", "<", F(4, 2**M), length)]
    inputs = {"mode": "every_interval", "length": length, "level": M}
    return make_report("non_monotone", inputs, [], certificate)


def suite_nowhere_monotone(cfg: SuiteConfig) -> Cases:
    return Cases(len(SCALES), map(_non_monotone_report, SCALES))


def suite_local_min(cfg: SuiteConfig) -> Cases:
    rng = random.Random(cfg.seed)
    xs = (_random_rational(rng, F(0), F(1, 4), 10**6) for _ in range(cfg.count))
    return Cases(cfg.count, (local_min_check(x) for x in xs))


def suite_quotient_bound(cfg: SuiteConfig) -> Cases:
    def reports(rng: random.Random) -> Iterator[WitnessReport]:
        for k in range(1, 9):
            for n in range(2, cfg.n_max + 1):
                d = n * (n + 1)  # band n is (-n/(n+1), (1-n)/n], of width 1/d
                yield quotient_bound_check(k, n, F(1 - 2 * n * n, 2 * d))  # its midpoint
                yield quotient_bound_check(k, n, F(1 - n, n))
                seeded = F(rng.randint(1, 999) - 1000 * n * n, 1000 * d)  # r/1000 of the way up
                yield quotient_bound_check(k, n, seeded)
    return Cases(24 * (cfg.n_max - 1), reports(random.Random(cfg.seed)))


def suite_integral_crosscheck(cfg: SuiteConfig) -> Cases:
    rng = random.Random(cfg.seed)
    fixed = [F(-1), F(-1, 2), F(0), F(1, 3), F(7, 10), F(1)]
    batches = ((k, fixed + [_random_rational(rng, F(-1), F(1), 10**4) for _ in range(4)])
               for k in range(1, 7))
    return Cases(6, (integral_crosscheck(k, xs, cfg.index_budget) for k, xs in batches))


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


def _darboux_report(eps: Rat) -> WitnessReport:
    """U(P) - L(P) <= eps for f and for g = G' on one partition P of [-1, 1].

    M is the least level with 4(M + 1)/2^M <= eps/2, which bounds the cells'
    share (2M + 2) c / 2^M of ``darboux_gap``, since c <= 2; B = ceil(8M/eps) - 2
    bounds the gaps' share 2(2 - c) <= 4M/(B + 2) by eps/2.  g is +-f on
    every piece but the central cell [-2^-M, 2^-M], the only one holding 0,
    where osc(g) <= 2 adds at most 2 * 2^(1-M).
    """
    M = 1
    while 8 * (M + 1) > eps * 2**M:
        M += 1
    B = ceil(8 * M / eps) - 2
    gap = darboux_gap(M, B)
    certificate = [
        check("f_gap_at_most_epsilon", "<=", gap, eps),
        check("g_gap_at_most_epsilon", "<=", gap + F(4, 2**M), eps),
    ]
    return make_report("darboux", {"epsilon": eps, "level": M, "index_budget": B}, [], certificate)


def suite_darboux(cfg: SuiteConfig) -> Cases:
    return Cases(len(SCALES), map(_darboux_report, SCALES))


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
