"""Table IV — characteristics of the benchmark programs.

Columns as in the paper: total lines of code, lines in the parallel
section, total branch count, branches in the parallel section.  Our
kernels are scaled-down skeletons, so absolute LoC is much smaller than
SPLASH-2's; the per-program *relative* ordering (raytrace the largest,
radix/FFT the smallest) is preserved and reported next to the paper's
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import ProgramCharacteristics, format_table, program_characteristics
from repro.splash2 import PAPER_NAMES, all_kernels

#: The paper's Table IV rows: (total LoC, parallel LoC, total branches,
#: parallel-section branches).
PAPER_TABLE_IV: Dict[str, tuple] = {
    "ocean_contig": (5329, 4217, 876, 785),
    "fft": (1086, 561, 110, 44),
    "fmm": (4772, 3246, 395, 321),
    "ocean_noncontig": (3549, 2487, 543, 478),
    "radix": (1112, 441, 99, 35),
    "raytrace": (10861, 7709, 726, 268),
    "water_nsquared": (2564, 1474, 144, 103),
}


@dataclass
class Table4Row:
    ours: ProgramCharacteristics
    paper: tuple


def compute(opt_level: Optional[int] = None) -> List[Table4Row]:
    rows = []
    for spec in all_kernels():
        prog = spec.program(opt_level=opt_level)
        ours = program_characteristics(spec.name, spec.source, prog.baseline,
                                       spec.entry)
        rows.append(Table4Row(ours=ours, paper=PAPER_TABLE_IV[spec.name]))
    return rows


def render(rows: List[Table4Row]) -> str:
    table = []
    for row in rows:
        o, p = row.ours, row.paper
        table.append([
            PAPER_NAMES[o.name],
            "%d (paper %d)" % (o.total_loc, p[0]),
            "%d (paper %d)" % (o.parallel_loc, p[1]),
            "%d (paper %d)" % (o.total_branches, p[2]),
            "%d (paper %d)" % (o.parallel_branches, p[3]),
        ])
    return format_table(
        ["benchmark", "total LOC", "LOC parallel", "branches",
         "branches parallel"],
        table,
        title="Table IV: characteristics of benchmark programs "
              "(ours vs paper)")
