#!/usr/bin/env python3
"""Print enclosure tables: layer integrals, the Darboux bound, quotients.

Run:  python3 demos/enclosure_tables.py

Three tables:

  1. the layer running integrals at 7/10 against the geometric oracle,
     tightening as the index budget grows;
  2. the closed-form bound on U(P) - L(P) for the partition into the
     level-M cells with ids at most B plus the gaps between them; it falls
     in B at fixed M, but not monotonically in M;
  3. the reciprocal-distance quotient of the first layer antiderivative
     near -1, always within 1/n on the n-th band.
"""

from __future__ import annotations

from fractions import Fraction as F

from sawcascade.antiderivative import (
    darboux_gap,
    enclose_integral,
    eval_Fk,
    quotient_bound_check,
)


def main() -> None:
    x = F(7, 10)
    print("layer integral over [-1, 7/10] vs oracle enclosure")
    print(f"{'k':>2} {'exact value':>16} {'budget':>7} {'width':>12}  contains?")
    for k in (1, 2, 3):
        exact = eval_Fk(x, k)
        for budget in (10, 100, 1000):
            enc = enclose_integral(k, x, budget)
            print(
                f"{k:>2} {str(exact):>16} {budget:>7} {float(enc.width):>12.6f}"
                f"  {enc.contains(exact)}"
            )

    print("\nbound on U - L over [-1, 1], level-M cells with ids <= B")
    print(f"{'M':>3} {'B':>7} {'U - L <=':>12}")
    for M, budget in ((8, 500), (10, 2000), (12, 5000), (14, 20000)):
        print(f"{M:>3} {budget:>7} {float(darboux_gap(M, budget)):>12.6f}")

    print("\nfirst-layer quotient |F_1(x)| / (x + 1) on the n-th band")
    print(f"{'n':>3} {'band midpoint':>15} {'quotient':>12} {'bound 1/n':>10}  ok?")
    for n in (2, 3, 5, 10, 25, 50):
        lo, hi = F(1, n + 1) - 1, F(1, n) - 1
        mid = (lo + hi) / 2
        rep = quotient_bound_check(1, n, mid)
        quotient = abs(eval_Fk(mid, 1)) / (mid + 1)
        print(
            f"{n:>3} {str(mid):>15} {float(quotient):>12.6f}"
            f" {float(F(1, n)):>10.6f}  {rep.verdict}"
        )


if __name__ == "__main__":
    main()
