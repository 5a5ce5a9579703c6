"""Golden-trace fingerprints: run behaviour pinned against history.

``golden_fingerprints.json`` (next to this module) holds the observable
facts of fixed runs — steps, per-thread cycles, branch counts,
synchronization wait and monitor-queue stall, the output signature, and
the violations — plus the per-record outcomes of short injection
campaigns.  The file was recorded by the tree-walking interpreter that
the block-closure engine replaced, so the tests that compare against it
pin today's engine to the semantics every earlier result was measured
with, instead of comparing two live implementations.

Quantum 1 makes every scheduling decision dispatch a single
instruction, so it exercises the engine's per-instruction closures and
the per-kind replay of optimizer ghosts; quantum 32 exercises the fused
units.

Regenerate only when a change is *meant* to alter traces::

    PYTHONPATH=src python -m tests.runtime.fingerprints --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

FINGERPRINTS = Path(__file__).with_name("golden_fingerprints.json")

KERNEL_THREADS = 4
KERNEL_SEED = 3
OPT_LEVELS = (0, 1, 2)
QUANTA = (32, 1)

#: Figure-1 runs: (nthreads, seed) for baseline and protected images.
FIGURE1_RUNS = ((1, 0), (1, 1), (1, 7), (4, 0), (4, 1), (4, 7))
#: Figure-1 injections: (fault model, thread, dynamic branch index).
FIGURE1_FAULTS = tuple((fault, tid, index)
                       for fault in ("branch-flip", "branch-condition")
                       for tid in (0, 2) for index in (1, 8))

#: Per-kernel campaigns: (fault model, injections, seed).
CAMPAIGNS = (("flip", 4, 2012), ("condition", 4, 2012))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def run_fingerprint(result, output_globals=()) -> Dict:
    """The pinned facts of one run.  A crashed run keeps no step or
    cycle counts: a crash inside a fused unit drops that unit's partial
    accounting (see ``repro.runtime.closures``)."""
    from repro.triage.witness import normalize_detail
    tids = sorted(result.cycles)
    crashed = result.status == "crash"
    return {
        "status": result.status,
        "steps": None if crashed else result.steps,
        "cycles": None if crashed else [result.cycles[t] for t in tids],
        "branches": [result.branch_counts[t] for t in tids],
        "sync_wait": [result.thread_sync_wait[t] for t in tids],
        "queue_stall": [result.thread_queue_stall[t] for t in tids],
        "outputs": _digest(result.output_signature(output_globals)),
        "violations": [normalize_detail(str(v)) for v in result.violations],
    }


def kernel_run_key(name: str, opt_level: int, quantum: int) -> str:
    return "%s/O%d/q%d" % (name, opt_level, quantum)


def kernel_run(name: str, opt_level: int, quantum: int) -> Dict:
    from repro.runtime import ParallelProgram, RunConfig
    from repro.splash2 import kernel
    spec = kernel(name)
    program = ParallelProgram(spec.source, spec.name, entry=spec.entry,
                              opt_level=opt_level)
    result = program.run(RunConfig(nthreads=KERNEL_THREADS, seed=KERNEL_SEED,
                                   quantum=quantum),
                         setup=spec.setup(KERNEL_THREADS))
    return run_fingerprint(result, spec.output_globals)


def figure1_runs(opt_level: int = 0) -> Dict[str, Dict]:
    from repro.runtime import ParallelProgram
    from tests.conftest import FIGURE_1, figure1_setup
    program = ParallelProgram(FIGURE_1, "figure1", opt_level=opt_level)
    facts = {}
    for nthreads, seed in FIGURE1_RUNS:
        setup = figure1_setup(nthreads)
        facts["protected/t%d/s%d" % (nthreads, seed)] = run_fingerprint(
            program.run_protected(nthreads, seed=seed, setup=setup))
        facts["baseline/t%d/s%d" % (nthreads, seed)] = run_fingerprint(
            program.run_baseline(nthreads, seed=seed, setup=setup))
    return facts


def figure1_injections(opt_level: int = 0) -> Dict[str, Dict]:
    from repro.faults import FaultSpec, FaultType, InjectingHook
    from repro.runtime import ParallelProgram
    from repro.triage.witness import normalize_detail
    from tests.conftest import FIGURE_1, figure1_setup
    program = ParallelProgram(FIGURE_1, "figure1", opt_level=opt_level)
    facts = {}
    for fault, tid, index in FIGURE1_FAULTS:
        hook = InjectingHook(FaultSpec(FaultType(fault), tid, index))
        result = program.run_protected(4, seed=0, setup=figure1_setup(4),
                                       fault_hook=hook)
        facts["%s/t%d/b%d" % (fault, tid, index)] = {
            "run": run_fingerprint(result),
            "activated": hook.activated,
            "flipped_branch": hook.flipped_branch,
            "detail": normalize_detail(hook.detail),
        }
    return facts


def kernel_campaign(name: str, fault: str, injections: int,
                    seed: int) -> List[List]:
    """Per-record (thread, branch index, outcome, baseline outcome,
    flipped branch, normalized detail) of a short full-sweep campaign."""
    from repro.faults import CampaignSpec, run_campaign
    from repro.triage.witness import normalize_detail
    spec = CampaignSpec.for_kernel(name, fault=fault, injections=injections,
                                   nthreads=KERNEL_THREADS, seed=seed)
    result = run_campaign(spec, keep_records=True, jobs=1, store=None)
    return [[r.spec.thread_id, r.spec.branch_index, r.outcome.value,
             r.baseline_outcome.value, r.flipped_branch,
             normalize_detail(r.detail)] for r in result.records]


def campaign_key(name: str, fault: str, injections: int, seed: int) -> str:
    return "%s/%s/n%d/s%d" % (name, fault, injections, seed)


def record_all() -> Dict:
    from repro.splash2 import all_kernels
    names = [spec.name for spec in all_kernels()]
    return {
        "kernel_threads": KERNEL_THREADS,
        "kernel_seed": KERNEL_SEED,
        "figure1_runs": figure1_runs(),
        "figure1_injections": figure1_injections(),
        "kernel_runs": {kernel_run_key(name, level, quantum):
                        kernel_run(name, level, quantum)
                        for name in names for level in OPT_LEVELS
                        for quantum in QUANTA},
        "kernel_campaigns": {campaign_key(name, *campaign):
                             kernel_campaign(name, *campaign)
                             for name in names for campaign in CAMPAIGNS},
    }


def load() -> Dict:
    with open(FINGERPRINTS) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print("usage: python -m tests.runtime.fingerprints --write",
              file=sys.stderr)
        return 2
    data = record_all()
    with open(FINGERPRINTS, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % FINGERPRINTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
