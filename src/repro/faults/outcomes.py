"""Fault-run outcome classification and coverage arithmetic.

The paper's coverage metric (Section IV): among *activated* faults,

    coverage = 1 − SDC_fraction

i.e. crashes, hangs, detections, and masked faults all count as covered —
only Silent Data Corruptions (program "finishes" but output differs from
the golden run) hurt.  ``coverage_original`` is computed from the same
campaign with detections ignored (what would have happened without
BLOCKWATCH's verdicts — the unprotected program's natural coverage).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List


class Outcome(enum.Enum):
    #: Fault site never reached (thread executed fewer dynamic branches).
    NOT_ACTIVATED = "not_activated"
    #: Program finished with the golden output.
    MASKED = "masked"
    #: The BLOCKWATCH monitor flagged a similarity violation.
    DETECTED = "detected"
    #: Simulated signal: OOB access, div0, wild call...
    CRASH = "crash"
    #: Cycle budget exceeded or barrier deadlock.
    HANG = "hang"
    #: Finished, wrong output, nobody noticed: the bad case.
    SDC = "sdc"


@dataclass
class CampaignStats:
    """Aggregated outcomes of one injection campaign."""

    program: str = ""
    fault_type: str = ""
    nthreads: int = 0
    injections: int = 0
    counts: Dict[Outcome, int] = field(default_factory=dict)
    #: Outcomes the *unprotected* program would have seen (detection
    #: replaced by what happened underneath).
    baseline_counts: Dict[Outcome, int] = field(default_factory=dict)
    #: Trials that stopped checking after their first violation, and
    #: trials that stopped at an exact golden re-join (the work the
    #: campaign skipped; not part of its result, so not compared).
    settled: int = field(default=0, compare=False)
    rejoined: int = field(default=0, compare=False)

    def note(self, outcome: Outcome, baseline_outcome: Outcome,
             cut: str = "") -> None:
        self.injections += 1
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        self.baseline_counts[baseline_outcome] = (
            self.baseline_counts.get(baseline_outcome, 0) + 1)
        if cut == "settled":
            self.settled += 1
        elif cut == "rejoined":
            self.rejoined += 1

    @property
    def activated(self) -> int:
        return self.injections - self.counts.get(Outcome.NOT_ACTIVATED, 0)

    def _coverage(self, counts: Dict[Outcome, int]) -> float:
        activated = self.activated
        if activated == 0:
            return 1.0
        return 1.0 - counts.get(Outcome.SDC, 0) / activated

    @property
    def coverage_protected(self) -> float:
        """coverage with BLOCKWATCH = 1 - SDC/activated."""
        return self._coverage(self.counts)

    @property
    def coverage_original(self) -> float:
        """coverage the unprotected program gets from natural redundancy,
        crashes and OS memory protection."""
        return self._coverage(self.baseline_counts)

    @property
    def detection_gain(self) -> float:
        return self.coverage_protected - self.coverage_original

    def rate(self, outcome: Outcome) -> float:
        if self.activated == 0:
            return 0.0
        return self.counts.get(outcome, 0) / self.activated

    def summary_row(self) -> List:
        return [self.program, self.fault_type, self.nthreads, self.injections,
                self.activated,
                "%.1f%%" % (100 * self.coverage_original),
                "%.1f%%" % (100 * self.coverage_protected),
                self.counts.get(Outcome.DETECTED, 0),
                self.counts.get(Outcome.SDC, 0),
                self.counts.get(Outcome.CRASH, 0)
                + self.counts.get(Outcome.HANG, 0),
                self.counts.get(Outcome.MASKED, 0)]

    SUMMARY_HEADERS = ["program", "fault", "threads", "inj", "act",
                       "cov(orig)", "cov(BW)", "det", "sdc", "crash+hang",
                       "masked"]
