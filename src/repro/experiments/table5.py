"""Table V — similarity-category statistics of the parallel-section
branches, as discovered by the static analysis phase.

The headline claim this table carries: between ~50 % and ~98 % of the
branches in every program are statically similar (shared + threadID +
partial), with FMM and raytrace at the low end because their conditions
are dominated by thread-local data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import (
    Category,
    CategoryStatistics,
    category_statistics,
    format_table,
)
from repro.splash2 import PAPER_NAMES, all_kernels

#: Paper Table V percentages: (shared, threadID, partial, none).
PAPER_TABLE_V: Dict[str, tuple] = {
    "ocean_contig": (4, 2, 92, 2),
    "fft": (32, 25, 41, 2),
    "fmm": (16, 2, 31, 51),
    "ocean_noncontig": (5, 24, 69, 2),
    "radix": (31, 26, 20, 23),
    "raytrace": (4, 1, 44, 51),
    "water_nsquared": (33, 12, 25, 30),
}


@dataclass
class Table5Row:
    ours: CategoryStatistics
    paper: tuple


def compute(opt_level: Optional[int] = None) -> List[Table5Row]:
    rows = []
    for spec in all_kernels():
        prog = spec.program(opt_level=opt_level)
        stats = category_statistics(spec.name, prog.analysis)
        rows.append(Table5Row(ours=stats, paper=PAPER_TABLE_V[spec.name]))
    return rows


def render(rows: List[Table5Row]) -> str:
    table = []
    for row in rows:
        o, p = row.ours, row.paper
        cells = [PAPER_NAMES[o.name], o.total]
        for index, category in enumerate((Category.SHARED, Category.THREADID,
                                          Category.PARTIAL, Category.NONE)):
            cells.append("%d (%.0f%%; paper %d%%)"
                         % (o.count(category), o.percent(category), p[index]))
        cells.append("%.0f%%" % (100 * o.similar_fraction))
        table.append(cells)
    return format_table(
        ["benchmark", "total", "shared", "threadID", "partial", "none",
         "similar"],
        table,
        title="Table V: similarity category statistics of parallel-section "
              "branches (ours vs paper)")
