"""Exact construction and certified verification of a sawtooth-cascade derivative.

The package builds, layer by layer, a bounded derivative that is positive
and negative on every subinterval, together with its antiderivative and a
signed variant of the pair.  Everything is computed in exact rational
arithmetic; approximate answers always come with a certified error radius.
"""

from sawcascade.antiderivative import (
    darboux_gap,
    enclose_integral,
    eval_F,
    eval_Fk,
    eval_G,
    quotient_bound_check,
)
from sawcascade.cells import Cell, cell, level1_cell, locate
from sawcascade.construction import (
    Certified,
    DomainError,
    eval_f,
    eval_f1,
    eval_fk,
    eval_g,
    orbit,
    partial_sum,
)
from sawcascade.reports import (
    Check,
    WitnessReport,
    recheck,
    report_from_dict,
    report_to_dict,
)
from sawcascade.suites import SUITES, SuiteConfig, run_suite_reports
from sawcascade.verifier import (
    NotAnEPointError,
    integral_crosscheck,
    local_min_check,
    non_extremum_witness,
    non_monotone_witness,
    oscillation_witness,
    structure_check,
)

__all__ = [
    "Cell",
    "Certified",
    "Check",
    "DomainError",
    "NotAnEPointError",
    "SUITES",
    "SuiteConfig",
    "WitnessReport",
    "cell",
    "darboux_gap",
    "enclose_integral",
    "eval_F",
    "eval_Fk",
    "eval_G",
    "eval_f",
    "eval_f1",
    "eval_fk",
    "eval_g",
    "integral_crosscheck",
    "level1_cell",
    "local_min_check",
    "locate",
    "non_extremum_witness",
    "non_monotone_witness",
    "orbit",
    "oscillation_witness",
    "partial_sum",
    "quotient_bound_check",
    "recheck",
    "report_from_dict",
    "report_to_dict",
    "run_suite_reports",
    "structure_check",
]

__version__ = "0.1.0"
