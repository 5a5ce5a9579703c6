"""Figure 6 — normalized execution time (protected / baseline) per
program, at 4 and 32 threads.

Measured exactly as the paper does: the time of the parallel section
with BLOCKWATCH divided by the time without, where the protected run
feeds the monitor's queues but the monitor itself is disabled (mode
``feed``) so the asynchronous checker cannot perturb the measurement.
Lower is better; the paper's geometric means are 2.15× at 4 threads and
1.16× at 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import format_table
from repro.parallel import run_tasks
from repro.runtime.program import resolve_opt_level
from repro.splash2 import PAPER_NAMES, all_kernels, kernel

#: Approximate per-program normalized times read off the paper's Figure 6.
PAPER_FIG_6 = {
    "ocean_contig": (2.3, 1.2),
    "fft": (1.9, 1.1),
    "fmm": (2.4, 1.2),
    "ocean_noncontig": (1.6, 1.05),
    "radix": (1.8, 1.15),
    "raytrace": (2.6, 1.25),
    "water_nsquared": (2.5, 1.2),
}
PAPER_GEOMEAN = {4: 2.15, 32: 1.16}


@dataclass
class Fig6Result:
    thread_counts: List[int] = field(default_factory=lambda: [4, 32])
    #: program -> [overhead at each thread count]
    overheads: Dict[str, List[float]] = field(default_factory=dict)

    def geomean(self, index: int) -> float:
        values = [v[index] for v in self.overheads.values()]
        return math.exp(sum(math.log(v) for v in values) / len(values))


def _overhead_task(context, task) -> float:
    """One independent timing run: (kernel name, thread count), under
    the context's (seed, opt level)."""
    seed, opt_level = context
    name, nthreads = task
    spec = kernel(name)
    return spec.program(opt_level=opt_level).overhead(
        nthreads, seed=seed, setup=spec.setup(nthreads))


def overheads(thread_counts, seed: int, jobs: Optional[int],
              opt_level: Optional[int]) -> Dict[str, List[float]]:
    """Every kernel's overhead at each thread count: kernel -> list."""
    opt_level = resolve_opt_level(opt_level)
    tasks = []
    for spec in all_kernels():
        spec.program(opt_level=opt_level)  # compiled here; forks inherit it
        tasks += [(spec.name, nthreads) for nthreads in thread_counts]
    values = run_tasks(_overhead_task, tasks, jobs=jobs,
                       context=(seed, opt_level))
    result: Dict[str, List[float]] = {}
    for (name, _), value in zip(tasks, values):
        result.setdefault(name, []).append(value)
    return result


def compute(thread_counts=(4, 32), seed: int = 0,
            jobs: Optional[int] = None,
            opt_level: Optional[int] = None) -> Fig6Result:
    return Fig6Result(thread_counts=list(thread_counts),
                      overheads=overheads(thread_counts, seed, jobs,
                                          opt_level))


def render(result: Fig6Result) -> str:
    rows = []
    for name, values in result.overheads.items():
        cells = [PAPER_NAMES[name]]
        for index, nthreads in enumerate(result.thread_counts):
            paper = PAPER_FIG_6.get(name)
            note = (" (paper ~%.2f)" % paper[index]
                    if paper and index < len(paper) else "")
            cells.append("%.2fx%s" % (values[index], note))
        rows.append(cells)
    geo = [PAPER_NAMES.get("geomean", "geometric mean")]
    for index, nthreads in enumerate(result.thread_counts):
        note = ""
        if nthreads in PAPER_GEOMEAN:
            note = " (paper %.2f)" % PAPER_GEOMEAN[nthreads]
        geo.append("%.2fx%s" % (result.geomean(index), note))
    rows.append(geo)
    return format_table(
        ["benchmark"] + ["%d threads" % n for n in result.thread_counts],
        rows,
        title="Figure 6: normalized execution time with BLOCKWATCH "
              "(protected/baseline; lower is better)")
