"""Time-space constrained rewriting codes for phase-change memories.

A write sequence over n binary cells satisfies the (alpha, beta, p)
constraint when every window of alpha consecutive rewrites changes every
beta contiguous cells at most p times in total.  This package bundles a
constraint checker, the window-weight-limited enumerative codec behind
the space-based constructions, several rewriting-code families, capacity
bounds, and a greedy search for syndrome-based codes.
"""

from .bounds import (Array2DCount, BoundReport, bounds_report, count_2d_arrays,
                     emit_tables, lower_bound, upper_bound)
from .constructions import (BitPerWriteWom, DilutedSpaceCode, DilutedTimeCode,
                            RsWom, SpaceCode, TabulatedWom, TimeCode,
                            TimePCode, TrivialCode, WomCode, parse_wom_table,
                            timep_code, timep_theoretical_rate)
from .core import (ConstraintParams, ConstraintVerdict, ConvergenceError,
                   RateReport, ResourceLimitError, RewritingCode,
                   SimulationResult, WriteSequence, check_constraint,
                   check_lines, flip_matrix, format_state, measure_rate, parse_state,
                   simulate)
from .cosets import (CosetCode, GoodCodeSearch, GreedyStep, find_good_code,
                     is_s_good, xor_autocorrelation)
from .wwl import (CapacityBracket, CountTable, EigenEstimate, WwlParams,
                  build_transition_matrix, count_wwl,
                  dominant_eigenvalue, enumerate_wwl, is_irreducible, is_wwl,
                  rank, unrank, wwl_capacity)

__all__ = [
    "Array2DCount", "BitPerWriteWom", "BoundReport", "CapacityBracket",
    "ConstraintParams", "ConstraintVerdict", "ConvergenceError", "CosetCode",
    "CountTable", "DilutedSpaceCode", "DilutedTimeCode", "EigenEstimate",
    "GoodCodeSearch", "GreedyStep", "RateReport", "ResourceLimitError",
    "RewritingCode", "RsWom", "SimulationResult", "SpaceCode", "TabulatedWom",
    "TimeCode", "TimePCode", "TrivialCode", "WomCode", "WriteSequence",
    "WwlParams", "bounds_report", "build_transition_matrix",
    "check_constraint", "check_lines", "count_2d_arrays", "count_wwl",
    "dominant_eigenvalue", "emit_tables", "enumerate_wwl", "find_good_code",
    "flip_matrix", "format_state", "is_irreducible", "is_s_good", "is_wwl",
    "lower_bound", "measure_rate", "parse_state", "parse_wom_table", "rank",
    "simulate", "timep_code", "timep_theoretical_rate", "unrank", "upper_bound",
    "wwl_capacity", "xor_autocorrelation",
]

__version__ = "0.1.0"
