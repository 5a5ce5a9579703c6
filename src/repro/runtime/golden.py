"""What a campaign's one golden run records for everything after it.

:class:`GoldenRecorder` rides along the golden run as its (passive)
fault hook and collects two things:

* **Branch streams.**  Per thread, one symbol per dynamic branch: the
  symbol of the ``(function, block)`` the branch ends plus its decision
  bit.  ``streams[tid][k-1]`` is thread ``tid``'s ``k``-th dynamic
  branch, the ``(thread, k)`` coordinates a fault targets, so the
  stratified planner and the predictor's validation map the streams to
  static fault sites (:func:`repro.faults.campaign.site_streams`)
  instead of observing the schedule again.  Threads with equal streams
  executed the same blocks in the same order and took the same
  decisions: one thread similarity class (:func:`group_streams`).
  Triage maps witness thread ids to class ranks and compares
  performance vectors within a class (:mod:`repro.triage`).
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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.machine import Checkpoint, FaultHook

#: Checkpoint slots of one golden run.  Each checkpoint costs memory
#: (its monitor part from 11 KB to 2.4 MB on the SPLASH-2 kernels at
#: 4 threads: the open instances and their occurrence counters) and
#: 0.1-7 ms of golden-run time to take; see docs/INTERNALS.md for the
#: measured trade-off behind this value.
CHECKPOINTS = 8

#: Steps between checkpoints before the first thinning.
FIRST_INTERVAL = 4096


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
    """Records branch streams and checkpoints during one run (pass it
    to :meth:`repro.runtime.program.ParallelProgram.run` as
    ``recorder=``).  Decisions pass through unchanged."""

    def __init__(self) -> None:
        #: Oldest first; at most CHECKPOINTS.
        self.checkpoints: List[Checkpoint] = []
        self.interval = FIRST_INTERVAL
        #: Total step count at which the machine calls :meth:`capture`.
        self.next_at = FIRST_INTERVAL
        #: Per thread that branched, one symbol per dynamic branch:
        #: ``2 * i + taken`` for the branch ending ``sites[i]``.
        self.streams: Dict[int, List[int]] = {}
        #: ``(function, block)`` of each symbol pair, in first-seen order.
        self.sites: List[Tuple[str, str]] = []
        #: Branch instruction -> its even symbol.
        self._symbols: Dict[object, int] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        symbol = self._symbols.get(branch)
        if symbol is None:
            symbol = self._new_symbol(branch)
        try:
            self.streams[thread.tid].append(symbol + bool(taken))
        except KeyError:
            self.streams[thread.tid] = [symbol + bool(taken)]
        return taken

    def _new_symbol(self, branch) -> int:
        # Keyed by (function, block) names, not by instruction identity:
        # the stream is the sequence of blocks a thread branched from.
        block = branch.parent
        site = (block.parent.name, block.name)
        if site not in self.sites:
            self.sites.append(site)
        symbol = self._symbols[branch] = 2 * self.sites.index(site)
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
