"""Figure 7 — geometric-mean BLOCKWATCH overhead vs thread count.

The paper's curve has two features our cost model reproduces:

* a **bump from 1 to 2 threads**: the OS scatters two threads across
  sockets, and the instrumented program (which does strictly more memory
  traffic — the queue writes) suffers more from the NUMA penalty than the
  baseline;
* a **monotone decline from 2 to 32 threads**: each doubling halves the
  per-thread branch executions (and hence the absolute instrumentation
  work) while synchronization/communication costs grow, so the baseline
  shrinks more slowly than the instrumentation does — ending at the
  paper's 1.16× for 32 threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import format_table
from repro.experiments.fig6 import overheads

DEFAULT_THREADS = (1, 2, 4, 8, 16, 32)

#: Approximate geomean values read off the paper's Figure 7.
PAPER_FIG_7 = {1: 1.9, 2: 2.4, 4: 2.15, 8: 1.9, 16: 1.5, 32: 1.16}


@dataclass
class Fig7Result:
    thread_counts: List[int] = field(default_factory=lambda: list(DEFAULT_THREADS))
    per_program: Dict[str, List[float]] = field(default_factory=dict)
    geomean: List[float] = field(default_factory=list)

    @property
    def has_numa_bump(self) -> bool:
        return len(self.geomean) >= 2 and self.geomean[1] > self.geomean[0]

    @property
    def declines_after_bump(self) -> bool:
        tail = self.geomean[1:]
        return all(a >= b for a, b in zip(tail, tail[1:]))


def compute(thread_counts=DEFAULT_THREADS, seed: int = 0,
            jobs: Optional[int] = None,
            opt_level: Optional[int] = None) -> Fig7Result:
    result = Fig7Result(thread_counts=list(thread_counts),
                        per_program=overheads(thread_counts, seed, jobs,
                                              opt_level))
    for index in range(len(thread_counts)):
        values = [row[index] for row in result.per_program.values()]
        result.geomean.append(
            math.exp(sum(math.log(v) for v in values) / len(values)))
    return result


def render(result: Fig7Result) -> str:
    rows = []
    for index, nthreads in enumerate(result.thread_counts):
        paper = PAPER_FIG_7.get(nthreads)
        rows.append([
            nthreads,
            "%.2fx" % result.geomean[index],
            "~%.2fx" % paper if paper is not None else "-",
        ])
    shape = []
    shape.append("1->2 bump: %s" % ("yes" if result.has_numa_bump else "NO"))
    shape.append("monotone decline 2->32: %s"
                 % ("yes" if result.declines_after_bump else "NO"))
    return format_table(
        ["threads", "geomean overhead (ours)", "paper (approx)"],
        rows,
        title="Figure 7: geomean BLOCKWATCH overhead vs thread count "
              "[%s]" % "; ".join(shape))
