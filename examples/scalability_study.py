#!/usr/bin/env python
"""Scalability study: BLOCKWATCH overhead vs thread count (paper Fig. 7).

For one or more kernels, measures the parallel-section time of the
baseline and the protected image (monitor fed but disabled, exactly the
paper's measurement protocol) at 1..32 threads, and prints the overhead
curve.  Look for the two shape features the paper explains:

* the bump from 1 to 2 threads (NUMA penalty hits the instrumented
  program's extra memory traffic harder), and
* the monotone decline toward 32 threads (per-thread instrumentation
  work halves with each doubling while synchronization costs grow).

Run:  python examples/scalability_study.py [kernel ...]
"""

import sys

from repro.analysis import format_table
from repro.monitor import MonitorMode
from repro.splash2 import KERNELS, kernel

THREADS = (1, 2, 4, 8, 16, 32)


def study(name: str):
    spec = kernel(name)
    prog = spec.program()
    rows = []
    single_thread_time = None
    for nthreads in THREADS:
        setup = spec.setup(nthreads)
        base = prog.run_baseline(nthreads, setup=setup)
        prot = prog.run_protected(nthreads, setup=setup,
                                  monitor_mode=MonitorMode.FEED)
        if single_thread_time is None:
            single_thread_time = base.parallel_time
        rows.append([
            nthreads,
            "%.0f" % base.parallel_time,
            "%.0f" % prot.parallel_time,
            "%.2fx" % (prot.parallel_time / base.parallel_time),
            "%.1fx" % (single_thread_time / base.parallel_time),
        ])
    print(format_table(
        ["threads", "baseline cycles", "protected cycles", "overhead",
         "baseline speedup"],
        rows, title="%s: overhead vs thread count" % name))
    print()


def main():
    names = sys.argv[1:] or ["ocean_contig", "radix"]
    for name in names:
        if name not in KERNELS:
            print("unknown kernel %r (available: %s)"
                  % (name, ", ".join(sorted(KERNELS))))
            return
        study(name)


if __name__ == "__main__":
    main()
