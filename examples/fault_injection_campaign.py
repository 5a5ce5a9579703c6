#!/usr/bin/env python
"""Fault-injection campaign on a SPLASH-2-style kernel.

Reproduces one cell of the paper's Figures 8/9 in miniature: inject N
single-bit faults (branch-flip and branch-condition) into random dynamic
branches of the radix-sort benchmark and report the outcome breakdown
and the coverage pair (original vs BLOCKWATCH).

Run:  python examples/fault_injection_campaign.py [injections]
"""

import sys

from repro.analysis import format_table
from repro.faults import CampaignSpec, FaultType, Outcome, run_campaign
from repro.splash2 import kernel


def main():
    injections = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    spec = kernel("radix")
    prog = spec.program()
    print("program: %s — %s" % (spec.name, spec.description))
    print("checked branches: %d; injections per fault type: %d"
          % (prog.checked_branch_count(), injections))

    rows = []
    for fault_type in (FaultType.BRANCH_FLIP, FaultType.BRANCH_CONDITION):
        # The kernel's output globals and SDC quantization come along.
        campaign_spec = CampaignSpec.for_kernel(
            "radix", fault=fault_type, nthreads=4, injections=injections,
            seed=7)
        campaign = run_campaign(campaign_spec, program=prog,
                                setup=spec.setup(4), keep_records=True)
        stats = campaign.stats
        rows.append([
            fault_type.value,
            stats.activated,
            stats.counts.get(Outcome.DETECTED, 0),
            stats.counts.get(Outcome.MASKED, 0),
            stats.counts.get(Outcome.CRASH, 0),
            stats.counts.get(Outcome.HANG, 0),
            stats.counts.get(Outcome.SDC, 0),
            "%.1f%%" % (100 * stats.coverage_original),
            "%.1f%%" % (100 * stats.coverage_protected),
        ])
        # Show a few concrete detections.
        shown = 0
        for record in campaign.records:
            if record.outcome is Outcome.DETECTED and shown < 2:
                print("  e.g. %s -> %s (detected)"
                      % (record.spec.describe(), record.detail))
                shown += 1
    print()
    print(format_table(
        ["fault type", "activated", "detected", "masked", "crash", "hang",
         "sdc", "cov(original)", "cov(BLOCKWATCH)"],
        rows, title="Campaign outcomes (radix, 4 threads)"))
    print("\ncoverage = 1 - SDC/activated (crashes, hangs, masks and")
    print("detections all count as covered — the paper's Section IV metric)")


if __name__ == "__main__":
    main()
