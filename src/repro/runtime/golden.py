"""What a campaign's one golden run records for everything after it.

:class:`GoldenRecorder` rides along the golden run as its (passive)
fault hook and collects two things:

* **Thread similarity classes.**  Per thread, a digest of the
  ``(function, block, taken)`` stream of every dynamic branch.  Threads
  with equal digests (and equal branch counts) executed the same blocks
  in the same order and took the same decisions: one class.  Triage
  maps witness thread ids to class ranks and compares performance
  vectors within a class (:mod:`repro.triage`).
* **Checkpoints.**  At most :data:`CHECKPOINTS` machine states
  (:class:`~repro.runtime.machine.Checkpoint`), taken at scheduling
  quantum boundaries evenly spaced over the run.  An injection whose
  fault site lies after a checkpoint resumes from it instead of
  re-executing the fault-free prefix (:func:`select_checkpoint`): the
  prefix of a faulty run is bit-identical to the golden run's, because
  the schedule is a function of the seed alone.

The run's length is not known while it runs, so checkpoints are taken
every ``interval`` steps and thinned: when all :data:`CHECKPOINTS`
slots are full, every other one is dropped and the interval doubles.
The run ends holding between half and all of the slots, evenly spaced.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.runtime.machine import Checkpoint, FaultHook

#: Checkpoint slots of one golden run.  Each checkpoint costs memory
#: (its monitor part from 11 KB to 2.4 MB on the SPLASH-2 kernels at
#: 4 threads: the open instances and their occurrence counters) and
#: 0.1-7 ms of golden-run time to take; see docs/INTERNALS.md for the
#: measured trade-off behind this value.
CHECKPOINTS = 8

#: Steps between checkpoints before the first thinning.
FIRST_INTERVAL = 4096

#: Stream digests are polynomial hashes modulo this Mersenne prime.
_PRIME = (1 << 61) - 1
_BASE = 0x9E3779B97F4A7C15 % _PRIME


def group_streams(streams: Dict[int, Sequence],
                  nthreads: int) -> List[List[int]]:
    """Group thread ids by equal streams (any sequence; a thread without
    one has the empty stream).  Classes are sorted tid lists ordered by
    their least member, so a class's rank is independent of dict order,
    process boundaries and ``jobs=N``."""
    by_stream: Dict[tuple, List[int]] = {}
    for tid in range(nthreads):
        by_stream.setdefault(tuple(streams.get(tid, ())), []).append(tid)
    return sorted((sorted(tids) for tids in by_stream.values()),
                  key=lambda cls: cls[0])


class GoldenRecorder(FaultHook):
    """Records branch-stream digests and checkpoints during one run
    (pass it to :meth:`repro.runtime.program.ParallelProgram.run` as
    ``recorder=``).  Decisions pass through unchanged."""

    def __init__(self) -> None:
        #: Oldest first; at most CHECKPOINTS.
        self.checkpoints: List[Checkpoint] = []
        self.interval = FIRST_INTERVAL
        #: Total step count at which the machine calls :meth:`capture`.
        self.next_at = FIRST_INTERVAL
        self._digests: Dict[int, int] = {}
        #: Branch instruction -> its stream symbol (even, > 0: the low
        #: bit carries the decision).
        self._symbols: Dict[object, int] = {}
        self._symbol_of_site: Dict[tuple, int] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        symbol = self._symbols.get(branch)
        if symbol is None:
            symbol = self._new_symbol(branch)
        tid = thread.tid
        self._digests[tid] = ((self._digests.get(tid, 0) * _BASE
                               + symbol + bool(taken)) % _PRIME)
        return taken

    def _new_symbol(self, branch) -> int:
        # Keyed by (function, block) names, not by instruction identity:
        # the stream is the sequence of blocks a thread branched from.
        block = branch.parent
        site = (block.parent.name, block.name)
        symbol = self._symbol_of_site.setdefault(
            site, 2 * (len(self._symbol_of_site) + 1))
        self._symbols[branch] = symbol
        return symbol

    def capture(self, machine) -> int:
        """Take the checkpoint due at this quantum boundary (thinning
        first when every slot is full); returns the next due step."""
        if len(self.checkpoints) == CHECKPOINTS:
            self.checkpoints = self.checkpoints[1::2]
            self.interval *= 2
        if machine.total_steps >= (len(self.checkpoints) + 1) * self.interval:
            self.checkpoints.append(machine.checkpoint())
        self.next_at = (len(self.checkpoints) + 1) * self.interval
        return self.next_at

    def thread_classes(self, branch_counts: Dict[int, int]
                       ) -> List[List[int]]:
        """The recorded run's thread similarity classes."""
        keys: Dict[int, Hashable] = {
            tid: (count, self._digests.get(tid, 0))
            for tid, count in branch_counts.items()}
        return group_streams(keys, len(branch_counts))


def select_checkpoint(checkpoints: Sequence[Checkpoint], thread_id: int,
                      branch_index: int) -> Optional[Checkpoint]:
    """The latest checkpoint taken before thread ``thread_id`` executed
    its ``branch_index``-th (1-based) dynamic branch, or None (start at
    step 0).  ``checkpoints`` are in run order, so branch counts only
    grow along it."""
    chosen = None
    for checkpoint in checkpoints:
        if checkpoint.branch_counts[thread_id] >= branch_index:
            break
        chosen = checkpoint
    return chosen
