"""Thread similarity classes for triage.

BLOCKWATCH's static analysis groups *branches* by similarity category;
triage needs the dual grouping of *threads*: which threads execute the
same code and are therefore comparable, both for mapping a witness's
thread id to a stable class rank and for the performance-anomaly arm's
within-class centroid comparison.

The precise grouping comes from one passive observation run (the exact
golden schedule — same seed, same monitor) with a hook that writes
down, per thread, the ``(function, block)`` stream of every dynamic
branch.  Threads with identical streams executed the same blocks in
the same order: one similarity class.  When re-running the program is
not possible (a result fetched over the wire, say) the golden run's
per-thread dynamic branch counts give a coarser but still
deterministic fallback grouping.

Classes are canonicalized as sorted thread-id lists ordered by their
least member, so the rank of a class — the number witnesses carry in
place of raw thread ids — is independent of dict ordering, process
boundaries, and ``jobs=N``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.runtime.machine import FaultHook


class BlockStreamHook(FaultHook):
    """Record each thread's ``(function, block, decision)`` branch stream.

    Purely observational: decisions pass through unchanged, so the
    recorded run *is* the golden run (same seed, same schedule).  The
    decision bit matters: two threads can evaluate the same branches in
    the same blocks yet walk different paths (straight-line then/else
    arms contain no further branches), and only the taken direction
    tells them apart.
    """

    def __init__(self) -> None:
        self.streams: Dict[int, List[tuple]] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        block = getattr(branch, "parent", None)
        function = getattr(block, "parent", None) if block is not None else None
        self.streams.setdefault(thread.tid, []).append(
            (function.name if function is not None else "?",
             block.name if block is not None else "?",
             bool(taken)))
        return taken


def group_streams(streams: Dict[int, Sequence],
                  nthreads: int) -> List[List[int]]:
    """Group thread ids by identical branch streams; classes are sorted
    tid lists, ordered by least member tid."""
    by_stream: Dict[tuple, List[int]] = {}
    for tid in range(nthreads):
        by_stream.setdefault(tuple(streams.get(tid, ())), []).append(tid)
    return sorted((sorted(tids) for tids in by_stream.values()),
                  key=lambda cls: cls[0])


def observe_thread_classes(program, config, setup=None) -> List[List[int]]:
    """One observation run of ``program`` under the campaign's golden
    configuration; returns the thread similarity classes."""
    from repro.monitor import MODE_FULL
    from repro.runtime.program import RunConfig

    hook = BlockStreamHook()
    result = program.run(
        RunConfig(nthreads=config.nthreads, seed=config.seed,
                  monitor_mode=MODE_FULL, quantum=config.quantum),
        setup=setup, fault_hook=hook)
    if result.status != "ok":
        raise RuntimeError("observation run failed: %s (%s)"
                           % (result.status, result.failure_message))
    if result.detected:
        raise RuntimeError("false positive in observation run: %s"
                           % result.violations[0])
    return group_streams(hook.streams, config.nthreads)


def classes_from_counts(branch_counts: Dict[int, int]) -> List[List[int]]:
    """Fallback grouping when the program cannot be re-run: threads with
    equal golden dynamic-branch counts share a class.  Coarser than the
    stream grouping (two different code paths can execute the same
    number of branches) but derived from the same deterministic run."""
    by_count: Dict[int, List[int]] = {}
    for tid, count in branch_counts.items():
        by_count.setdefault(int(count), []).append(int(tid))
    return sorted((sorted(tids) for tids in by_count.values()),
                  key=lambda cls: cls[0])


def class_ranks(classes: Sequence[Sequence[int]]) -> Dict[int, int]:
    """``tid -> class rank`` over canonicalized classes."""
    return {tid: rank
            for rank, tids in enumerate(classes)
            for tid in tids}


def default_classes(result) -> Optional[List[List[int]]]:
    """Best class grouping derivable from a bare campaign result: the
    golden run's branch counts when present, else one class holding
    every thread the campaign targeted."""
    golden = getattr(result, "golden", None)
    if golden is not None and getattr(golden, "branch_counts", None):
        return classes_from_counts(golden.branch_counts)
    nthreads = result.stats.nthreads
    if nthreads:
        return [list(range(nthreads))]
    tids = sorted({record.spec.thread_id
                   for record in result.records if record is not None})
    return [tids] if tids else []
