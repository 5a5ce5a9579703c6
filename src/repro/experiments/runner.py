"""Command-line entry point: regenerate any table/figure of the paper.

Installed as ``repro-blockwatch``::

    repro-blockwatch list
    repro-blockwatch table3 table4 table5
    repro-blockwatch fig6 fig7
    REPRO_FAULTS=200 repro-blockwatch fig8 fig9
    repro-blockwatch --jobs 8 fig8          # 8 worker processes
    REPRO_FAULTS=1000 REPRO_JOBS=0 repro-blockwatch fig8 fig9  # paper scale
    repro-blockwatch --store ~/.cache/repro-store fig8 fig9
    repro-blockwatch all

``--jobs`` (or the ``REPRO_JOBS`` environment variable) fans every
campaign-shaped workload out across worker processes; results are
bit-identical to serial runs.

``--store`` (or ``REPRO_STORE``) routes every kernel compile and every
campaign golden run through a durable :mod:`repro.store` artifact
cache, so fig6/fig7/fig8/fig9 on the same kernels share one compiled
program and one golden run per configuration — across figures *and*
across invocations.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from repro.experiments import (
    duplication,
    false_positives,
    fig6,
    fig7,
    fig8,
    fig9,
    table3,
    table4,
    table5,
    vuln_validation,
)

EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table3": table3.render,
    "table4": table4.render,
    "table5": table5.render,
    "fig6": fig6.render,
    "fig7": fig7.render,
    "fig8": fig8.render,
    "fig9": fig9.render,
    "false-positives": false_positives.render,
    "duplication": duplication.render,
    "vuln-validation": vuln_validation.render,
}

DESCRIPTIONS = {
    "table3": "category-propagation trace on the Figure 2 example",
    "table4": "benchmark program characteristics",
    "table5": "similarity category statistics",
    "fig6": "normalized execution time at 4 and 32 threads",
    "fig7": "geomean overhead vs thread count (1..32)",
    "fig8": "SDC coverage, branch-flip faults",
    "fig9": "SDC coverage, branch-condition faults",
    "false-positives": "error-free runs, zero reports expected",
    "duplication": "comparison against software duplication (Section VI)",
    "vuln-validation": "static vulnerability predictions vs measured "
                       "campaign outcomes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-blockwatch",
        description="Regenerate the tables and figures of BLOCKWATCH "
                    "(Wei & Pattabiraman, DSN 2012) on the simulated "
                    "32-core substrate.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment names, 'list', or 'all'")
    from repro.cliutil import add_shared_options
    add_shared_options(parser, "jobs", "store", "opt")
    args = parser.parse_args(argv)
    if args.jobs is not None:
        # The experiment thunks take no arguments; the jobs policy flows
        # through the environment (read by repro.parallel.resolve_jobs).
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.opt_level is not None:
        # Same channel: ParallelProgram resolves this env knob at
        # construction, and spawn-pool workers inherit them.
        os.environ["REPRO_OPT_LEVEL"] = str(args.opt_level)
    from repro.store import open_store
    store = open_store(args.store, install=True)
    if store is not None:
        # Spawn-pool workers rebuild contexts from scratch; the env var
        # lets them hit the same store instead of recompiling.
        os.environ.setdefault("REPRO_STORE", store.root)
        print("artifact store: %s" % store.root)

    requested = list(args.experiments)
    if requested == ["list"]:
        for name in EXPERIMENTS:
            print("%-16s %s" % (name, DESCRIPTIONS[name]))
        return 0
    if requested == ["all"]:
        requested = list(EXPERIMENTS)

    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        print("available: %s" % ", ".join(EXPERIMENTS), file=sys.stderr)
        return 2

    for name in requested:
        started = time.time()
        print(EXPERIMENTS[name]())
        print("[%s took %.1fs]" % (name, time.time() - started))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
