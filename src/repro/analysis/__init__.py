"""BLOCKWATCH static analysis: similarity inference and its supporting
structural analyses (loops, critical sections) over the CFG library
in :mod:`repro.ir.cfg`.

The one-call entry point is :func:`analyze_module`; its
:class:`SimilarityResult` feeds both the reporting layer (Tables IV/V)
and the instrumentation pass.
"""

from repro.analysis.categories import (
    Category,
    TABLE_II,
    fold_operands,
    propagate,
    rank,
)
from repro.analysis.critical_sections import CriticalSections
from repro.analysis.loops import Loop, LoopInfo, find_loops
from repro.analysis.report import (
    CategoryStatistics,
    ProgramCharacteristics,
    category_statistics,
    count_branches,
    format_table,
    program_characteristics,
    source_loc,
)
from repro.analysis.similarity import (
    CHECK_PARTIAL,
    CHECK_SHARED,
    CHECK_TID_EQ,
    CHECK_TID_MONOTONE,
    CHECK_UNIFORM,
    AnalysisConfig,
    BranchRecord,
    FunctionAnalysis,
    SimilarityResult,
    analyze_module,
)
from repro.analysis.threadid_patterns import find_tid_counters

__all__ = [
    "Category", "TABLE_II", "fold_operands", "propagate", "rank",
    "CriticalSections",
    "Loop", "LoopInfo", "find_loops",
    "CategoryStatistics", "ProgramCharacteristics", "category_statistics",
    "count_branches", "format_table", "program_characteristics", "source_loc",
    "CHECK_PARTIAL", "CHECK_SHARED", "CHECK_TID_EQ", "CHECK_TID_MONOTONE",
    "CHECK_UNIFORM",
    "AnalysisConfig", "BranchRecord", "FunctionAnalysis", "SimilarityResult",
    "analyze_module", "find_tid_counters",
]
