"""Acceptance gate: one test per required guarantee, one printed line each.

Every criterion states its exact tolerance and a wall-clock budget.  The
bodies only call public package API plus the independent oracles defined
in the other test modules' spirit: nothing here reuses an implementation
detail to check itself.  Run with ``pytest -s tests/test_acceptance.py``
to see the line-per-criterion summary.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from typing import Callable

from sawcascade.antiderivative import (
    darboux_gap,
    enclose_integral,
    eval_Fk,
    normalization_center,
)
from sawcascade.cells import cell
from sawcascade.construction import eval_f1, eval_fk
from sawcascade.suites import (
    SuiteConfig,
    _random_rational,
    suite_darboux,
    suite_local_min,
    suite_no_extrema,
    suite_nowhere_monotone,
    suite_oscillation,
    suite_quotient_bound,
    tapered_endpoints,
)
from sawcascade.verifier import non_extremum_witness, non_monotone_witness, structure_check

_WIDTH = 54


def _criterion(number: int, label: str, budget_s: float, body: Callable[[], None]) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[{number:2d}/11] FAIL  {label:<{_WIDTH}} {elapsed:7.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{number:2d}/11] PASS  {label:<{_WIDTH}} {elapsed:7.2f}s")
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 1. base map spot values (exact equality)
# ---------------------------------------------------------------------------


def test_criterion_01_base_map_spot_values() -> None:
    def body() -> None:
        expected = {
            F(0): F(0),
            F(1, 2): F(1),
            F(3, 5): F(-1, 5),
            F(7, 10): F(-1, 5),
            F(7, 12): F(0),
            F(2, 3): F(-1),
            F(5, 6): F(1),
            F(1): F(0),
            F(-1): F(0),
        }
        for x, want in expected.items():
            assert eval_f1(x) == want, (x, eval_f1(x), want)
            assert eval_f1(-x) == -want, "odd symmetry"

    _criterion(1, "base map spot values, exact", 1.0, body)


# ---------------------------------------------------------------------------
# 2. middle-interval law: iterate k doubles k times around 0 (exact)
# ---------------------------------------------------------------------------


def test_criterion_02_middle_interval_law() -> None:
    def body() -> None:
        for k in range(1, 21):
            mid = cell((0,) * k)
            scale = F(2) ** k
            assert (mid.lo, mid.hi) == (-1 / scale, 1 / scale)
            assert (mid.slope, mid.intercept) == (scale, 0)
            for x in (
                mid.lo,
                -F(2, 3) / scale,
                F(0),
                F(1, 7) / scale,
                mid.hi,
            ):
                assert eval_fk(x, k) == scale * x, (k, x)

    _criterion(2, "middle-interval law, k <= 20, exact", 1.0, body)


# ---------------------------------------------------------------------------
# 3. layer antiderivative against the independent integral oracle
# ---------------------------------------------------------------------------


def test_criterion_03_layer_integral_oracle() -> None:
    def body() -> None:
        for k in range(1, 7):
            budget = 16384 * k
            for i in range(1, 21):
                x = F(2 * i - 21, 21)
                enc = enclose_integral(k, x, budget)
                assert enc.width <= F(1, 4096), (k, x, enc.width)
                assert enc.contains(eval_Fk(x, k)), (k, x)
        for k in range(1, 13):
            assert eval_Fk(F(0), k) == -F(1, 2 ** (k + 1)), k

    _criterion(
        3, "layer integrals in oracle enclosures, width <= 2^-12", 30.0, body
    )


# ---------------------------------------------------------------------------
# 4. series normalization constant, term-by-term
# ---------------------------------------------------------------------------


def test_criterion_04_normalization_constant() -> None:
    def body() -> None:
        for K in range(1, 31):
            per_term = sum(
                (eval_Fk(F(0), k) / F(2) ** k for k in range(1, K + 1)), F(0)
            )
            closed = -F(1, 6) * (1 - F(1, 4) ** K)
            assert normalization_center(K) == per_term == closed, K

    _criterion(4, "normalization constant, K <= 30, exact", 5.0, body)


# ---------------------------------------------------------------------------
# 5. reciprocal-distance quotient bound near the left endpoint
# ---------------------------------------------------------------------------


def test_criterion_05_quotient_bound() -> None:
    def body() -> None:
        reports = list(suite_quotient_bound(SuiteConfig()))
        assert len(reports) == 8 * 49 * 3
        bad = [r for r in reports if not r.verdict]
        assert not bad, bad[:3]

    _criterion(5, "quotient bound, k <= 8, n = 2..50, exact", 30.0, body)


# ---------------------------------------------------------------------------
# 6. oscillation witnesses at every tapered endpoint through level 6
# ---------------------------------------------------------------------------


def test_criterion_06_oscillation_everywhere() -> None:
    def body() -> None:
        cfg = SuiteConfig()
        reports = list(suite_oscillation(cfg))
        assert len(reports) == len(list(tapered_endpoints(cfg.max_level, cfg.index_budget)))
        assert len(reports) > 5000
        bad = [r for r in reports if not r.verdict]
        assert not bad, [(r.input("x0"), r.error) for r in bad[:3]]

    _criterion(6, "oscillation witnesses, all endpoints to level 6", 60.0, body)


# ---------------------------------------------------------------------------
# 7. no strict local extrema at sampled interior points
# ---------------------------------------------------------------------------


def test_criterion_07_no_extrema_sampled() -> None:
    def body() -> None:
        windows = (F(1, 10), F(1, 100), F(1, 1000))
        rng = random.Random(SuiteConfig().seed)
        xs = [_random_rational(rng, F(-1), F(1), 10**6) for _ in range(200)]
        reports = [non_extremum_witness(x, delta) for x in xs for delta in windows]
        assert len(reports) == 200 * 3
        bad = [r for r in reports if not r.verdict]
        assert not bad, [(r.input("x0"), r.error) for r in bad[:3]]
        # the suite's closed form covers every point off the cell endpoints
        closed = list(suite_no_extrema(SuiteConfig()))
        assert [F(r.input("delta")) for r in closed] == list(windows)
        assert all(r.verdict for r in closed)

    _criterion(7, "no-extremum witnesses, 200 points, deltas to 1/1000", 60.0, body)


# ---------------------------------------------------------------------------
# 8. a reversal of f inside every sampled interval
# ---------------------------------------------------------------------------


def test_criterion_08_nowhere_monotone_sampled() -> None:
    def body() -> None:
        rng = random.Random(SuiteConfig().seed)
        intervals = []
        while len(intervals) < 100:
            u = _random_rational(rng, F(-1), F(1), 1000)
            v = _random_rational(rng, F(-1), F(1), 1000)
            if abs(u - v) >= F(1, 1000):
                intervals.append((min(u, v), max(u, v)))
        reports = [non_monotone_witness(a, b) for a, b in intervals]
        bad = [r for r in reports if not r.verdict]
        assert not bad, [(r.input("a"), r.input("b"), r.error) for r in bad[:3]]
        # the suite's closed form covers every interval of each length
        closed = list(suite_nowhere_monotone(SuiteConfig()))
        assert [F(r.input("length")) for r in closed] == [F(1, 10), F(1, 100), F(1, 1000)]
        assert all(r.verdict for r in closed)

    _criterion(8, "non-monotony witnesses, 100 intervals >= 1/1000", 60.0, body)


# ---------------------------------------------------------------------------
# 9. strict local minimum of the signed series g = G' at 0 (g > 0 = g(0))
# ---------------------------------------------------------------------------


def test_criterion_09_local_min_sampled() -> None:
    def body() -> None:
        reports = list(suite_local_min(SuiteConfig(count=100)))
        assert len(reports) == 100
        for r in reports:
            assert F(0) < F(r.input("x")) < F(1, 4)
        bad = [r for r in reports if not r.verdict]
        assert not bad, [(r.input("x"), r.error) for r in bad[:3]]

    _criterion(9, "local-minimum margins, 100 samples in (0, 1/4)", 10.0, body)


# ---------------------------------------------------------------------------
# 10. Riemann integrability: U - L <= eps for f and for g
# ---------------------------------------------------------------------------


def test_criterion_10_darboux_bound_within_epsilon() -> None:
    def body() -> None:
        reports = list(suite_darboux(SuiteConfig()))
        assert [r.input("epsilon") for r in reports] == ["1/10", "1/100", "1/1000"]
        for report in reports:
            eps, M = F(report.input("epsilon")), int(report.input("level"))
            gap = darboux_gap(M, int(report.input("index_budget")))
            assert gap <= eps and gap + F(4, 2**M) <= eps, (eps, gap)
            assert report.verdict and [c.lhs for c in report.certificate] == [gap, gap + F(4, 2**M)]

    _criterion(10, "U - L <= eps for f and g, eps = 1/10, 1/100, 1/1000", 30.0, body)


# ---------------------------------------------------------------------------
# 11. exhaustive structural scan of the cell hierarchy
# ---------------------------------------------------------------------------


def test_criterion_11_structure_scan() -> None:
    def body() -> None:
        for k in (1, 2, 3):
            rep = structure_check(k, 6)
            assert rep.verdict, (k, rep.failed_checks(), rep.error)

    _criterion(11, "structural scan, levels 1..3, budget 6", 60.0, body)
