"""Figure 9 — SDC coverage under **branch-condition** faults.

Paper: average original coverage 90 % (higher than Figure 8's 83 %
because a condition-bit flip does not necessarily flip the branch),
rising to ~97 % with BLOCKWATCH for both 4 and 32 threads; raytrace is
again the program BLOCKWATCH barely helps.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.coverage import (
    CoverageResult,
    compute_coverage,
    render_coverage,
)
from repro.faults import FaultType

#: (original, BLOCKWATCH) percentages read off the paper's Figure 9.
PAPER_FIG_9: Dict[str, Tuple[float, float]] = {
    "ocean_contig": (90, 100),
    "fft": (92, 99),
    "fmm": (98, 100),
    "ocean_noncontig": (88, 99),
    "radix": (78, 98),
    "raytrace": (88, 88),
    "water_nsquared": (90, 99),
}
PAPER_AVERAGES = {"original": "90%", "protected": "97%"}


def compute(**kwargs) -> CoverageResult:
    return compute_coverage(FaultType.BRANCH_CONDITION, **kwargs)


def render(result: CoverageResult) -> str:
    return render_coverage(result, "Figure 9", PAPER_FIG_9, PAPER_AVERAGES)
