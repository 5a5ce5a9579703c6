"""Section IV, *False Positives* — the 100-error-free-runs experiment.

"To verify there are no false positives, we perform 100 error-free runs
for each program instrumented by BLOCKWATCH and check if there are
errors reported by it.  The results show that BLOCKWATCH does not report
any errors."

We run each program under ``runs`` (default 100) different
seeds — every seed is a different legal interleaving, which is a
*stronger* setup than re-running one schedule — and count monitor
reports.  The expected total is zero, by construction: every check is a
static superset of correct behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis import format_table
from repro.faults import run_false_positive_trial
from repro.splash2 import PAPER_NAMES, all_kernels


@dataclass
class FalsePositiveResult:
    runs_per_program: int
    nthreads: int
    #: program -> number of runs with any monitor report (expected: 0)
    false_positives: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.false_positives.values())


def compute(runs: int = 100, nthreads: int = 4, base_seed: int = 555,
            jobs: Optional[int] = None,
            opt_level: Optional[int] = None) -> FalsePositiveResult:
    result = FalsePositiveResult(runs_per_program=runs, nthreads=nthreads)
    for spec in all_kernels():
        prog = spec.program(opt_level=opt_level)
        result.false_positives[spec.name] = run_false_positive_trial(
            prog, nthreads, runs, base_seed, setup=spec.setup(nthreads),
            output_globals=spec.output_globals, jobs=jobs)
    return result


def render(result: FalsePositiveResult) -> str:
    rows = [[PAPER_NAMES[name], result.runs_per_program, count]
            for name, count in result.false_positives.items()]
    rows.append(["TOTAL (paper: 0)", "", result.total])
    return format_table(
        ["benchmark", "error-free runs", "false positives"],
        rows,
        title="False-positive experiment: %d error-free runs per program "
              "at %d threads, distinct schedules"
              % (result.runs_per_program, result.nthreads))
