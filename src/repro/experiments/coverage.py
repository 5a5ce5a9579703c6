"""Shared machinery for the coverage figures (Figures 8 and 9).

Each figure is a full fault-injection campaign matrix: every benchmark ×
{4, 32} threads × N injections of one fault type, reporting the paper's
paired bars — ``coverage_original`` (the unprotected program's natural
coverage from crashes, hangs and masking) and ``coverage_BLOCKWATCH``
(detections included).

Campaign sizes and process settings are arguments of
:func:`compute_coverage`; ``repro figures`` passes its flags on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import format_table
from repro.faults import CampaignSpec, CampaignStats, FaultType, run_campaign
from repro.splash2 import PAPER_NAMES, all_kernels


@dataclass
class CoverageResult:
    fault_type: FaultType
    thread_counts: Tuple[int, ...]
    injections: int
    #: (program, nthreads) -> campaign statistics
    stats: Dict[Tuple[str, int], CampaignStats] = field(default_factory=dict)

    def average(self, attribute: str, nthreads: int) -> float:
        values = [getattr(s, attribute) for (name, n), s in self.stats.items()
                  if n == nthreads]
        return sum(values) / len(values) if values else 0.0


def compute_coverage(fault_type: FaultType,
                     thread_counts: Tuple[int, ...] = (4, 32),
                     injections: int = 60,
                     seed: int = 2012,
                     jobs: Optional[int] = None,
                     opt_level: Optional[int] = None,
                     store=None) -> CoverageResult:
    """The campaign matrix (the paper injects 1000 faults per cell).
    ``jobs`` fans each campaign's injections across worker processes;
    every campaign's statistics are identical to a serial run."""
    result = CoverageResult(fault_type=fault_type,
                            thread_counts=thread_counts,
                            injections=injections)
    for spec in all_kernels():
        for nthreads in thread_counts:
            campaign = run_campaign(
                CampaignSpec.for_kernel(
                    spec.name, fault=fault_type, injections=injections,
                    nthreads=nthreads, seed=seed, opt_level=opt_level),
                jobs=jobs, store=store)
            result.stats[(spec.name, nthreads)] = campaign.stats
    return result


def render_coverage(result: CoverageResult, figure: str,
                    paper: Dict[str, Tuple[float, float]],
                    paper_averages: Dict[str, float]) -> str:
    rows = []
    for spec in all_kernels():
        for nthreads in result.thread_counts:
            stats = result.stats.get((spec.name, nthreads))
            if stats is None:
                continue
            expected = paper.get(spec.name)
            note = ""
            if expected is not None:
                note = " (paper ~%.0f%%/~%.0f%%)" % expected
            rows.append([
                PAPER_NAMES[spec.name], nthreads, stats.activated,
                "%.1f%%" % (100 * stats.coverage_original),
                "%.1f%%%s" % (100 * stats.coverage_protected, note),
            ])
    for nthreads in result.thread_counts:
        rows.append([
            "average", nthreads, "",
            "%.1f%% (paper %s)" % (
                100 * result.average("coverage_original", nthreads),
                paper_averages.get("original", "?")),
            "%.1f%% (paper %s)" % (
                100 * result.average("coverage_protected", nthreads),
                paper_averages.get("protected", "?")),
        ])
    return format_table(
        ["benchmark", "threads", "activated", "coverage original",
         "coverage BLOCKWATCH"],
        rows,
        title="%s: SDC coverage under %s faults (%d injections each; "
              "higher is better)" % (figure, result.fault_type.value,
                                     result.injections))


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
