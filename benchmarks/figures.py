"""Paper-figure wall-clock trajectory: Figures 8 and 9, serial, storeless.

Runs the Figure 8 (branch-flip) and Figure 9 (branch-condition) coverage
matrices one after the other in this process, at 60 injections per
campaign, serially (``jobs=1``) and without an artifact store (so every
campaign records its own golden run and its trials resume from that
run's checkpoints).  The settings are arguments of ``compute``;
``$REPRO_STORE`` would still install a default store, so the script
refuses to run with it set.  Appends one JSON line to
``BENCH_figures.json`` at the repository root:

* per figure: wall-clock and process CPU seconds, injections, the
  protected and unprotected outcome census, the trials cut short, and
  the SHA-256 of the rendered table;
* the host's CPU count and Python version.

The injection count is fixed so that lines compare: the table hashes
are the identity gate, and a change must leave both rendered tables
byte-identical.  Usage::

    PYTHONPATH=src python benchmarks/figures.py [--out PATH]

The file is named so that pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Injections per campaign.
FAULTS = 60


def _census(counts) -> dict:
    return {outcome.value: count
            for outcome, count in sorted(counts.items(),
                                         key=lambda kv: kv[0].value)}


def run_figure(module) -> dict:
    """Compute and render one coverage figure; its line entry."""
    wall = time.perf_counter()
    cpu = time.process_time()
    result = module.compute(injections=FAULTS, jobs=1, store=None)
    table = module.render(result)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    counts: dict = {}
    baseline: dict = {}
    for stats in result.stats.values():
        for outcome, count in stats.counts.items():
            counts[outcome] = counts.get(outcome, 0) + count
        for outcome, count in stats.baseline_counts.items():
            baseline[outcome] = baseline.get(outcome, 0) + count
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(cpu, 3),
        "campaigns": len(result.stats),
        "injections": sum(s.injections for s in result.stats.values()),
        "outcomes": _census(counts),
        "baseline_outcomes": _census(baseline),
        "cut_short": {kind: sum(getattr(stats, kind)
                                for stats in result.stats.values())
                      for kind in ("settled", "rejoined")},
        "table_sha256": hashlib.sha256(table.encode("utf-8")).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_figures.json"),
                        help="JSONL file to append the line to")
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_STORE", "").strip():
        parser.error("unset REPRO_STORE: the trajectory is storeless")
    from repro.experiments import fig8, fig9
    line = {
        "benchmark": "figures",
        "faults": FAULTS,
        "jobs": 1,
        "store": False,
        "figures": {"fig8": run_figure(fig8), "fig9": run_figure(fig9)},
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version()},
    }
    with open(args.out, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    json.dump(line, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
