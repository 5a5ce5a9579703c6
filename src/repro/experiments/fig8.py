"""Figure 8 — SDC coverage under **branch-flip** faults.

Paper: average original coverage 83 %, average BLOCKWATCH coverage 97 %
(4 threads) / 98 % (32 threads); every program except raytrace lands in
the 99–100 % band with BLOCKWATCH, while raytrace stays near its
unprotected ~85 % (function pointers + >6-deep nesting leave its
branches unchecked or incomparable).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.coverage import (
    CoverageResult,
    compute_coverage,
    render_coverage,
)
from repro.faults import FaultType

#: (original, BLOCKWATCH) percentages read off the paper's Figure 8.
PAPER_FIG_8: Dict[str, Tuple[float, float]] = {
    "ocean_contig": (85, 100),
    "fft": (90, 99),
    "fmm": (98, 100),
    "ocean_noncontig": (80, 99),
    "radix": (60, 99),
    "raytrace": (85, 85),
    "water_nsquared": (82, 99),
}
PAPER_AVERAGES = {"original": "83%", "protected": "97-98%"}


def compute(**kwargs) -> CoverageResult:
    return compute_coverage(FaultType.BRANCH_FLIP, **kwargs)


def render(result: CoverageResult) -> str:
    return render_coverage(result, "Figure 8", PAPER_FIG_8, PAPER_AVERAGES)
