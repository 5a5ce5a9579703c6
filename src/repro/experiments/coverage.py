"""Shared machinery for the coverage figures (Figures 8 and 9).

Each figure is a full fault-injection campaign matrix: every benchmark ×
{4, 32} threads × N injections of one fault type, reporting the paper's
paired bars — ``coverage_original`` (the unprotected program's natural
coverage from crashes, hangs and masking) and ``coverage_BLOCKWATCH``
(detections included).

Knobs (environment variables, so the pytest-benchmark harnesses can be
scaled without editing code):

``REPRO_FAULTS``   injections per (program, fault type, thread count);
                   default 60 (the paper uses 1000 — feasible with a
                   few cores, see ``REPRO_JOBS``).
``REPRO_THREADS``  comma-separated thread counts; default ``4,32``.
``REPRO_JOBS``     worker processes per campaign (0 = all cores);
                   results are bit-identical to serial execution.
``REPRO_STORE``    artifact-store root: kernel compiles are cached
                   there, and golden runs in the store's memory, so
                   Figures 8 and 9 run in one process (same kernels,
                   same seeds, different fault type) share one golden
                   run per configuration instead of recomputing it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis import format_table
from repro.faults import CampaignSpec, CampaignStats, FaultType, run_campaign
from repro.splash2 import PAPER_NAMES, all_kernels


def env_injections(default: int = 60) -> int:
    return int(os.environ.get("REPRO_FAULTS", default))


def env_threads(default: str = "4,32") -> Tuple[int, ...]:
    raw = os.environ.get("REPRO_THREADS", default)
    return tuple(int(part) for part in raw.split(",") if part.strip())


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
                     thread_counts: Tuple[int, ...] = None,
                     injections: int = None,
                     seed: int = 2012,
                     jobs: int = None) -> CoverageResult:
    """The campaign matrix.  ``jobs`` fans each campaign's injections
    across worker processes (``None`` reads ``REPRO_JOBS``); every
    campaign's statistics are identical to a serial run."""
    thread_counts = thread_counts if thread_counts is not None else env_threads()
    injections = injections if injections is not None else env_injections()
    result = CoverageResult(fault_type=fault_type,
                            thread_counts=thread_counts,
                            injections=injections)
    for spec in all_kernels():
        for nthreads in thread_counts:
            campaign = run_campaign(
                CampaignSpec.for_kernel(
                    spec.name, fault=fault_type, injections=injections,
                    nthreads=nthreads, seed=seed),
                jobs=jobs)
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
