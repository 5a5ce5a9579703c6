"""The runtime monitor (paper Section III-B, Figure 4).

Architecture, as in the paper:

* one lock-free SPSC front-end queue per program thread
  (:mod:`repro.monitor.queue`);
* the monitor drains the queues round-robin, asynchronously with the
  program;
* a two-level back-end hash table files reports per dynamic branch
  instance (:mod:`repro.monitor.hashtable`);
* once every thread has reported an instance, the category check runs
  (:mod:`repro.monitor.checker`); instances never completed (a branch not
  reached by all threads) are checked in the final sweep at join time.

Modes mirror the paper's experimental setups:

``full``
    normal operation — drain, file, check.
``feed``
    the 32-thread performance configuration: "the threads still send the
    branch information to the front-end queues of the monitor — the only
    difference is that the monitor does not do anything with the
    information."  Messages are dropped on arrival and producers never
    stall.
"""

from __future__ import annotations

import enum
import time
from typing import List, Optional, Union

from repro.instrument.config import InstrumentationMetadata
from repro.monitor.checker import CheckStatistics, Violation, check_instance
from repro.monitor.hashtable import BranchTable, InstanceEntry
from repro.monitor.messages import BranchMessage
from repro.monitor.queue import SpscQueue
from repro.telemetry import Telemetry, active


class MonitorMode(str, enum.Enum):
    """The monitor's operating modes (a ``str`` subclass, so the loose
    ``"full"``/``"feed"`` strings the API accepted historically compare
    equal and remain accepted everywhere a mode is expected)."""

    FULL = "full"
    FEED = "feed"

    @classmethod
    def coerce(cls, mode: Union["MonitorMode", str]) -> "MonitorMode":
        try:
            return cls(mode)
        except ValueError:
            raise ValueError("unknown monitor mode %r" % (mode,)) from None


#: Legacy aliases (now enum members; still ``== "full"`` / ``== "feed"``).
MODE_FULL = MonitorMode.FULL
MODE_FEED = MonitorMode.FEED


class Monitor:
    """One monitor serving ``nthreads`` producer threads."""

    def __init__(self, metadata: InstrumentationMetadata, nthreads: int,
                 mode: Union[MonitorMode, str] = MonitorMode.FULL,
                 telemetry: Optional[Telemetry] = None):
        self.metadata = metadata
        self.nthreads = nthreads
        self.mode = MonitorMode.coerce(mode)
        #: Hot-path booleans: one attribute load instead of an enum
        #: comparison per message.
        self._full = self.mode is MonitorMode.FULL
        self._feed = self.mode is MonitorMode.FEED
        #: Live collector or None — the disabled path is one identity
        #: check (see repro.telemetry).
        self.telemetry = active(telemetry)
        capacity = metadata.config.queue_capacity
        self.queues: List[SpscQueue[BranchMessage]] = [
            SpscQueue(capacity) for _ in range(nthreads)]
        self.table = BranchTable()
        self.violations: List[Violation] = []
        self.stats = CheckStatistics()
        self.messages_received = 0
        self.messages_processed = 0
        self._round_robin = 0
        self._checks_since_discard = 0
        self._finalized = False

    # -- producer side (called from the machine) -----------------------------

    def try_send(self, thread_id: int, message: BranchMessage) -> bool:
        """Enqueue a message from ``thread_id``.  False = queue full, the
        producer must stall and retry (full mode only)."""
        queue = self.queues[thread_id]
        if self._feed and queue.is_full:
            # Disabled monitor: the queue is never consumed; model the
            # paper's setup by discarding the oldest entry so producers
            # never block on a thread nobody will read.
            queue.try_pop()
        if queue.try_push(message):
            self.messages_received += 1
            tel = self.telemetry
            if tel is not None:
                tel.gauge_max("monitor.queue_hwm", len(queue))
            return True
        tel = self.telemetry
        if tel is not None:
            tel.count("monitor.producer_stalls")
        return False

    # -- consumer side (the monitor "thread") --------------------------------

    def drain(self, limit: int) -> int:
        """Round-robin drain of up to ``limit`` messages; returns the
        number processed."""
        processed = 0
        empty_streak = 0
        nqueues = len(self.queues)
        if nqueues == 0:
            return 0
        while processed < limit and empty_streak < nqueues:
            queue = self.queues[self._round_robin]
            self._round_robin = (self._round_robin + 1) % nqueues
            message = queue.try_pop()
            if message is None:
                empty_streak += 1
                continue
            empty_streak = 0
            processed += 1
            if self._full:
                self._process(message)
        self.messages_processed += processed
        tel = self.telemetry
        if tel is not None and processed:
            tel.count("monitor.drains")
            tel.observe("monitor.drain_batch", processed)
        return processed

    def _process(self, message: BranchMessage) -> None:
        if message.is_outcome:
            entry = self.table.record_outcome(
                message.info, message.key, message.thread_id, message.taken)
        else:
            entry = self.table.record_condition(
                message.info, message.key, message.thread_id, message.values)
        if not entry.checked and entry.complete_for(self.nthreads):
            self._check(entry)

    def _check(self, entry: InstanceEntry) -> None:
        entry.checked = True
        self.stats.note_check(entry.info.check_kind)
        tel = self.telemetry
        if tel is None:
            violation = check_instance(entry)
        else:
            started = time.perf_counter_ns()
            violation = check_instance(entry)
            tel.add_time_ns("monitor.check_ns",
                            time.perf_counter_ns() - started)
            tel.count("monitor.checks")
            tel.count("monitor.check.%s" % entry.info.check_kind)
        if violation is not None:
            self.stats.note_violation(entry.info.check_kind)
            self.violations.append(violation)
            if tel is not None:
                tel.count("monitor.violation.%s" % entry.info.check_kind)
        # Bound the back-end table on long runs: periodically free
        # instances whose check already ran.
        self._checks_since_discard += 1
        if self._checks_since_discard >= 512:
            self._checks_since_discard = 0
            self.table.discard_checked()

    # -- end of run -----------------------------------------------------

    def finalize(self) -> List[Violation]:
        """Drain everything and sweep-check incomplete instances.

        Called when the program joins (or crashes/hangs — the monitor
        outlives the program threads, so evidence already in the queues
        still produces detections)."""
        while self.drain(1024):
            pass
        tel = self.telemetry if not self._finalized else None
        self._finalized = True
        if self._full:
            pending = self.table.pending_entries()
            if tel is not None:
                tel.count("monitor.incomplete_swept", len(pending))
            for entry in pending:
                self._check(entry)
        if tel is not None:
            tel.count("monitor.messages_received", self.messages_received)
            tel.count("monitor.messages_processed", self.messages_processed)
            tel.count("monitor.queue_full_events", self.queue_pressure())
        return self.violations

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def queue_pressure(self) -> int:
        """Total producer stall events across all queues (cost model)."""
        return sum(q.full_events for q in self.queues)
