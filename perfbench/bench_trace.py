"""Layer tracing from outside the program.

The tracer wraps the public functions of the seven sawcascade layers and
patches every reference to them: the attribute in each ``sawcascade``
module that imported the name, and the values of module-level dicts (the
suite registry).  Nothing under ``src/`` changes; ``unpatch`` restores every
original object.

Every wrapped call pushes a frame on one stack, so each call's self time is
its duration minus the durations of the wrapped calls it made.  The sum of
all self times plus the time spent directly in the benchmark's own root
frame equals the traced wall time exactly.

Functions called hundreds of thousands of times (``HOT``) are aggregated
into call counts and times only.  Every other wrapped call also records a
span ``(id, name, start, end, parent id, item id)`` in memory; ``spans`` are
written out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable, Optional

LAYERS = ("construction", "cells", "antiderivative", "verifier", "reports", "suites", "cli")

#: Public functions wrapped per layer.  Argument-coercion helpers
#: (as_rational, require_unit_interval, tooth_index, validate_address,
#: parse_rational) are left out: their time counts towards their caller.
WRAPPED = {
    "construction": ("eval_f1", "orbit", "eval_fk", "partial_sum", "eval_f", "eval_g"),
    "cells": (
        "level1_cell", "level1_ids_at", "child_cell", "cell", "children",
        "child_map", "locate", "e_points", "first_level_of",
    ),
    "antiderivative": (
        "eval_F0", "eval_Fk", "covered_length", "enclose_integral", "eval_F",
        "normalization_center", "eval_G", "darboux_gap", "quotient_bound_check",
    ),
    "verifier": (
        "oscillation_witness", "non_extremum_witness", "non_monotone_witness",
        "local_min_check", "structure_check", "integral_crosscheck",
    ),
    "reports": ("check", "make_report", "recheck", "rat_str", "report_to_dict", "report_from_dict"),
    "suites": (
        "tapered_endpoints", "suite_oscillation", "suite_no_extrema",
        "suite_nowhere_monotone", "suite_local_min", "suite_quotient_bound",
        "suite_integral_crosscheck", "suite_structure", "suite_darboux",
        "run_suite_reports",
    ),
    "cli": ("build_parser", "run", "run_suite", "emit_samples", "render_intervals"),
}

#: Aggregated only: no span per call.
HOT = frozenset({
    "construction.eval_f1", "construction.orbit", "construction.eval_fk",
    "construction.partial_sum", "cells.level1_cell", "cells.level1_ids_at",
    "cells.child_cell", "cells.cell", "cells.locate", "cells.first_level_of",
    "antiderivative.eval_F0", "antiderivative.eval_Fk",
    "antiderivative.covered_length", "antiderivative.normalization_center",
    "reports.check", "reports.rat_str",
})

#: Witnesses that scan an endpoint fan; child_cell calls made directly
#: under one of these frames are counted as fan children.
FAN_WITNESSES = frozenset({
    "verifier.oscillation_witness", "verifier.non_extremum_witness",
    "verifier.non_monotone_witness",
})


class Tracer:
    """Patch the layers, record frames, and aggregate per function.

    ``stats[key]`` is ``[calls, self_s, total_s]`` for ``key`` of the form
    ``layer.function``.  Use as: ``patch(modules)``, then ``begin()``,
    the traced work, ``end()``, and finally ``unpatch()``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.spans: list[tuple[int, str, float, float, Optional[int], int]] = []
        self.item = 0
        self.orbit_steps = 0
        self.orbit_absorbed = 0
        self.fan_children = 0
        self.fan_max = 0
        self.suite_cases: dict[str, int] = {}
        self.suite_names: dict[str, str] = {}
        self.run_s = 0.0
        self.bench_self_s = 0.0
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._t0 = 0.0

    # -- frames -----------------------------------------------------------

    def _wrap(self, fn: Callable, key: str) -> Callable:
        stack = self._stack
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        perf = time.perf_counter
        on_return = self._return_hook(key)
        fan_child = key == "cells.child_cell"
        if key in HOT:

            def hot(*args: Any, **kwargs: Any) -> Any:
                parent = stack[-1]
                if fan_child:
                    parent[2] += 1
                frame = [0.0, parent[1], 0, key]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    parent[0] += dur
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    stat[2] += dur
                if on_return is not None:
                    on_return(result)
                return result

            return hot

        spans = self.spans
        fan_witness = key in FAN_WITNESSES

        def spanned(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id, 0, key]
            stack.append(frame)
            item = self.item
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                spans[span_id] = (span_id, key, t0 - self._t0, t1 - self._t0, parent[1], item)
                if fan_witness:
                    self.fan_children += frame[2]
                    self.fan_max = max(self.fan_max, frame[2])
            if on_return is not None:
                on_return(result)
            return result

        return spanned

    def _return_hook(self, key: str) -> Optional[Callable[[Any], None]]:
        if key == "construction.orbit":

            def orbit_done(info: Any) -> None:
                self.orbit_steps += len(info.values)
                self.orbit_absorbed += info.absorbed_step is not None

            return orbit_done
        if key == "reports.make_report":

            def report_done(_report: Any) -> None:
                self.item += 1

            return report_done
        if key in self.suite_names:
            suite = self.suite_names[key]

            def suite_done(reports: Any) -> None:
                self.suite_cases[suite] = self.suite_cases.get(suite, 0) + len(reports)

            return suite_done
        return None

    # -- patching ---------------------------------------------------------

    def patch(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every function in WRAPPED wherever the program refers to it.

        ``modules`` maps layer name to the imported module.
        """
        for suite, fn in modules["suites"].SUITES.items():
            self.suite_names[f"suites.{fn.__name__}"] = suite
        wrappers = {}
        for layer, names in WRAPPED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrappers[id(original)] = (original, self._wrap(original, f"{layer}.{name}"))
        self._patched = patch_everywhere(wrappers)

    def unpatch(self) -> None:
        unpatch(self._patched)
        self._patched = []

    # -- the traced window --------------------------------------------------

    def begin(self) -> None:
        self._stack.clear()
        self._stack.append([0.0, None, 0, "bench"])
        self._t0 = time.perf_counter()

    def end(self) -> None:
        self.run_s = time.perf_counter() - self._t0
        root = self._stack.pop()
        self.bench_self_s = self.run_s - root[0]

    # -- results ------------------------------------------------------------

    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0, 0.0, 0.0))[0])

    def self_s(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0, 0.0))[1])

    def total_s(self, key: str) -> float:
        return float(self.stats.get(key, (0, 0.0, 0.0))[2])

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(stat[1] for key, stat in self.stats.items() if key.startswith(prefix))


def patch_everywhere(wrappers: dict[int, tuple[Any, Any]]) -> list[tuple[Any, Any, Any]]:
    """Replace each original by its wrapper wherever the program holds it.

    ``wrappers`` maps ``id(original)`` to ``(original, wrapper)``.  Every
    loaded ``sawcascade`` module is searched: its attributes, and the values
    of its upper-case module-level dicts (registries such as ``SUITES``).
    Returns the undo list for ``unpatch``.
    """
    undo: list[tuple[Any, Any, Any]] = []
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "sawcascade"]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((holder, attr, value))
                setattr(holder, attr, hit[1])
            elif isinstance(value, dict) and attr.isupper():
                for key, entry in list(value.items()):
                    hit = wrappers.get(id(entry))
                    if hit is not None and hit[0] is entry:
                        undo.append((value, key, entry))
                        value[key] = hit[1]
    return undo


def unpatch(undo: list[tuple[Any, Any, Any]]) -> None:
    """Put back every original recorded by ``patch_everywhere``."""
    for holder, attr, original in reversed(undo):
        if isinstance(holder, dict):
            holder[attr] = original
        else:
            setattr(holder, attr, original)


class FractionCounter:
    """Count ``Fraction.__new__`` calls while active.

    Replacing the class attribute counts exactly the calls that cProfile
    attributes to ``fractions.py:__new__``, without profiling every other
    Python call (the self-test checks that the two counts agree).
    """

    def __init__(self) -> None:
        self.calls = 0
        self._saved: Any = None

    def __enter__(self) -> "FractionCounter":
        self._saved = Fraction.__dict__["__new__"]
        original = Fraction.__new__

        def counting_new(cls: type, *args: Any, **kwargs: Any) -> Fraction:
            self.calls += 1
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        return self

    def __exit__(self, *exc: object) -> None:
        Fraction.__new__ = self._saved
