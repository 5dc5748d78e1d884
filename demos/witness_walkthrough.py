#!/usr/bin/env python3
"""Walk through one certificate of each kind and print it in full.

Run:  python3 demos/witness_walkthrough.py

Each section picks a concrete input, runs the corresponding verification,
and prints the witness points and every exact comparison in the
certificate.  All numbers shown are exact rationals; re-deriving the
verdict needs nothing but the comparisons printed here.
"""

from __future__ import annotations

from fractions import Fraction as F

from sawcascade.reports import WitnessReport, recheck
from sawcascade.suites import SuiteConfig, suite_no_extrema, suite_nowhere_monotone
from sawcascade.verifier import (
    local_min_check,
    non_extremum_witness,
    non_monotone_witness,
    oscillation_witness,
)


def show(title: str, report: WitnessReport) -> None:
    print(f"\n=== {title}")
    print("inputs: ", dict(report.inputs))
    if report.points:
        print("witness points (x, exact series value):")
        for x, v in report.points:
            print(f"    x = {str(x):>12}   value = {v}")
    print("certificate:")
    for c in report.certificate:
        mark = "ok" if c.holds() else "VIOLATED"
        print(f"    [{mark}] {c.label}: {c.lhs} {c.relation} {c.rhs}")
    if report.error:
        print("search failure:", report.error)
    print("verdict:", "PASS" if report.verdict else "FAIL",
          "(replay consistent)" if recheck(report) else "(replay MISMATCH)")


def main() -> None:
    # At 1/2 the first layer has a corner: the partial sums go above and
    # below the corner value arbitrarily close by, on both sides.
    show(
        "oscillation at the corner x0 = 1/2, window 1/1000",
        oscillation_witness(F(1, 2), F(1, 1000), depth=40, fan_budget=64),
    )

    # A generic interior point is not a local extremum: two neighbours
    # inside the window bracket its value from above and below.
    show(
        "no strict extremum at x0 = 1/7, window 1/100",
        non_extremum_witness(F(1, 7), F(1, 100), depth=40, fan_budget=64),
    )

    # The same holds at every point off the cell endpoints at once: the
    # level-8 chain cell there fits the window, and the search reaches
    # level 9, where the tilt is nonzero if it vanished at level 8, by
    # depth 10 (README, "No local extrema off the endpoints").
    show(
        "no strict extremum at any point off the cell endpoints, window 1/100",
        next(r for r in suite_no_extrema(SuiteConfig()) if r.input("delta") == "1/100"),
    )

    # f is monotone on no interval: three ordered points inside
    # [1/3, 1/3 + 1/500] have differences of alternating signs.
    show(
        "alternating differences inside [1/3, 1/3 + 1/500]",
        non_monotone_witness(F(1, 3), F(1, 3) + F(1, 500), depth=40, fan_budget=64),
    )

    # The same holds on every interval of length 1/100 at once: the level-9
    # cell around its midpoint is shorter than half of it, so it lies
    # inside, and the fan at that cell's left end reverses by its points
    # 4m + 1 and 4m + 2 (README, "Nowhere monotone").
    show(
        "no interval of length 1/100 on which f is monotone",
        next(r for r in suite_nowhere_monotone(SuiteConfig()) if r.input("length") == "1/100"),
    )

    # The signed series g = G' has a strict local minimum at 0: at any
    # x in (0, 1/4) the truncated value already clears the tail bound, so
    # g(x) > 0 = g(0), and g is even.
    show(
        "strict local-minimum margin at x = 3/16",
        local_min_check(F(3, 16)),
    )

    # A failure report is still a report: starve the fan search and the
    # outcome is a verdict of False with the failure recorded, never an
    # exception swallowed somewhere.
    show(
        "same search with fan budget 0 (expected to fail)",
        oscillation_witness(F(1, 2), F(1, 1000), depth=40, fan_budget=0),
    )


if __name__ == "__main__":
    main()
