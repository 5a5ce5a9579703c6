"""Section VI — quantitative comparison with software-based duplication.

Duplication (running two copies and comparing outputs) is the only other
generic technique with near-100 % SDC coverage, so the paper compares
against it on two axes:

* **Overhead.**  Software duplication (SWIFT/DAFT-style instruction
  duplication + compare) costs 200–300 % on sequential programs; for
  parallel programs it additionally needs *determinism enforcement*
  (Kendo-style), whose cost grows with the thread count because every
  synchronization operation must be sequenced identically in both
  replicas.  We model it on top of measured baseline runs:

      T_dup(n) = T_base(n) · dup_factor
                 + (locks + n·barriers) · enforce_per_op · n

  with ``dup_factor`` = 2.5 (the midpoint of the 200-300 % the paper
  cites) and the enforcement term scaled by the sync-op census the
  simulator actually measured.

* **Scalability.**  BLOCKWATCH needs neither determinism nor locks, so
  its overhead *falls* with thread count while duplication's rises —
  comparable extra cost at 4 threads, about an order of magnitude apart
  at 32 (paper: 115 % vs ~200 %+ at 4 threads; 16 % vs ~200 %+ at 32).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import format_table
from repro.splash2 import PAPER_NAMES, all_kernels

#: In-thread instruction-duplication slowdown (paper cites 200-300%).
DUP_FACTOR = 2.5
#: Determinism-enforcement cycles per sequenced sync op per thread.
ENFORCE_PER_OP = 120.0
TOTAL_CORES = 32


@dataclass
class DuplicationResult:
    thread_counts: Tuple[int, ...] = (4, 32)
    #: program -> [(blockwatch overhead, duplication overhead), ...]
    rows: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def averages(self, index: int) -> Tuple[float, float]:
        bw = [r[index][0] for r in self.rows.values()]
        dup = [r[index][1] for r in self.rows.values()]
        return sum(bw) / len(bw), sum(dup) / len(dup)


def modeled_duplication_overhead(base_time: float, locks: int, barriers: int,
                                 nthreads: int) -> float:
    """Normalized duplication time per the model in the module docstring."""
    enforcement = (locks + nthreads * barriers) * ENFORCE_PER_OP * nthreads
    return (base_time * DUP_FACTOR + enforcement) / base_time


def compute(thread_counts: Tuple[int, ...] = (4, 32), seed: int = 0,
            opt_level: Optional[int] = None) -> DuplicationResult:
    result = DuplicationResult(thread_counts=thread_counts)
    for spec in all_kernels():
        prog = spec.program(opt_level=opt_level)
        row = []
        for nthreads in thread_counts:
            setup = spec.setup(nthreads)
            base = prog.run_baseline(nthreads, seed=seed, setup=setup)
            bw = prog.overhead(nthreads, seed=seed, setup=setup)
            dup = modeled_duplication_overhead(
                base.parallel_time, base.lock_acquisitions,
                base.barrier_episodes, nthreads)
            row.append((bw, dup))
        result.rows[spec.name] = row
    return result


def render(result: DuplicationResult) -> str:
    rows = []
    for name, values in result.rows.items():
        cells = [PAPER_NAMES[name]]
        for pair in values:
            cells.append("%.2fx vs %.2fx" % pair)
        rows.append(cells)
    avg = ["average"]
    for index in range(len(result.thread_counts)):
        avg.append("%.2fx vs %.2fx" % result.averages(index))
    rows.append(avg)
    return format_table(
        ["benchmark"] + ["BW vs duplication @%d thr" % n
                         for n in result.thread_counts],
        rows,
        title="Section VI: BLOCKWATCH vs software duplication overhead "
              "(paper: comparable at 4 threads, ~order of magnitude apart "
              "at 32)")
