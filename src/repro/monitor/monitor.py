"""The runtime monitor (paper Section III-B, Figure 4).

Architecture, as in the paper:

* one bounded FIFO front-end queue per program thread, a plain list
  filled by the generated send code (:mod:`repro.monitor.queue`);
* the monitor drains the queues round-robin, asynchronously with the
  program;
* a two-level back-end hash table files reports per dynamic branch
  instance (:mod:`repro.monitor.hashtable`);
* once every thread has reported an instance, the category check runs
  (:mod:`repro.monitor.checker`); instances never completed (a branch not
  reached by all threads) are checked in the final sweep at join time.

Modes mirror the paper's experimental setups:

``MonitorMode.FULL``
    normal operation — drain, file, check.
``MonitorMode.FEED``
    the 32-thread performance configuration: "the threads still send the
    branch information to the front-end queues of the monitor — the only
    difference is that the monitor does not do anything with the
    information."  Messages are dropped on arrival and producers never
    stall.
"""

from __future__ import annotations

import enum
import time
from typing import List, Optional

from repro.instrument.config import InstrumentationMetadata
from repro.monitor.checker import CheckStatistics, Violation
from repro.monitor.hashtable import BranchTable, InstanceEntry
from repro.monitor.queue import pop_round_robin
from repro.telemetry import Telemetry, active


class MonitorMode(enum.Enum):
    """The monitor's operating modes."""

    FULL = "full"
    FEED = "feed"


class Monitor:
    """One monitor serving ``nthreads`` producer threads.

    Messages are plain tuples ``(site, tid, key, payload, is_outcome)``:
    the branch's :class:`~repro.monitor.checker.CheckSite`, the sending
    thread, the runtime key (call-site path, loop iterations), and the
    condition basis values or the branch outcome.

    ``queues[tid]`` is thread ``tid``'s queue, a list the generated send
    code appends to while it is shorter than ``capacity``; a send that
    finds it full calls :meth:`try_send`.
    """

    def __init__(self, metadata: InstrumentationMetadata, nthreads: int,
                 mode: MonitorMode = MonitorMode.FULL,
                 telemetry: Optional[Telemetry] = None):
        if not isinstance(mode, MonitorMode):
            raise TypeError("monitor mode must be a MonitorMode, not %r"
                            % (mode,))
        self.metadata = metadata
        self.nthreads = nthreads
        self.mode = mode
        #: Hot-path booleans: one attribute load instead of an enum
        #: comparison per message.
        self._full = mode is MonitorMode.FULL
        self._feed = mode is MonitorMode.FEED
        #: Live collector or None — the disabled path is one identity
        #: check (see repro.telemetry).
        self.telemetry = active(telemetry)
        self.capacity = metadata.config.queue_capacity
        self.queues: List[List[tuple]] = [[] for _ in range(nthreads)]
        #: Per-thread producer stall events (see queue_pressure).
        self._stalls = [0] * nthreads
        #: Oldest messages FEED mode discarded to make room.
        self._dropped = 0
        self.table = BranchTable()
        self.violations: List[Violation] = []
        self.stats = CheckStatistics()
        self.messages_processed = 0
        self._round_robin = 0
        self._checks_since_discard = 0
        self._finalized = False

    # -- producer side (called from the machine) -----------------------------

    def try_send(self, thread_id: int, message: tuple) -> bool:
        """Enqueue a message from ``thread_id``.  False = queue full, the
        producer must stall and retry (full mode only).  Generated send
        code appends to a queue with room itself and calls this only
        when it is full."""
        queue = self.queues[thread_id]
        if len(queue) < self.capacity:
            queue.append(message)
            return True
        if self._feed:
            # Disabled monitor: model the paper's setup by discarding
            # the oldest entry so producers never block on a queue
            # nobody acts on.
            del queue[0]
            queue.append(message)
            self._dropped += 1
            return True
        self._stalls[thread_id] += 1
        tel = self.telemetry
        if tel is not None:
            tel.count("monitor.producer_stalls")
        return False

    @property
    def messages_received(self) -> int:
        """Messages accepted from producers: processed, still queued,
        or dropped by FEED mode."""
        return (self.messages_processed + sum(map(len, self.queues))
                + self._dropped)

    # -- consumer side (the monitor "thread") --------------------------------

    def drain(self, limit: int) -> int:
        """Round-robin drain of up to ``limit`` messages; returns the
        number processed."""
        tel = self.telemetry
        if tel is not None:
            gauge_queues(tel, self.queues)
        messages, self._round_robin = pop_round_robin(
            self.queues, self._round_robin, limit)
        processed = len(messages)
        if not processed:
            return 0
        if self._full:
            self.table.file(messages, self.nthreads, self._check)
        self.messages_processed += processed
        if tel is not None:
            tel.count("monitor.drains")
            tel.observe("monitor.drain_batch", processed)
        return processed

    def _check(self, entry: InstanceEntry) -> None:
        entry.checked = True
        site = entry.site
        self.stats.note_check(site.info.check_kind)
        tel = self.telemetry
        if tel is None:
            violation = site.check(entry)
        else:
            started = time.perf_counter_ns()
            violation = site.check(entry)
            tel.add_time_ns("monitor.check_ns",
                            time.perf_counter_ns() - started)
            tel.count("monitor.checks")
            tel.count(site.check_metric)
        if violation is not None:
            self.stats.note_violation(site.info.check_kind)
            self.violations.append(violation)
            if tel is not None:
                tel.count(site.violation_metric)
        # Bound the back-end table on long runs: periodically free
        # instances whose check already ran.
        self._checks_since_discard += 1
        if self._checks_since_discard >= 512:
            self._checks_since_discard = 0
            self.table.discard_checked()

    # -- checkpoints ----------------------------------------------------

    def save_state(self) -> dict:
        """Everything a run's later behaviour depends on, copied: the
        queued messages and stall counts, the table, the check
        statistics and the cursors (see
        :meth:`repro.runtime.machine.Machine.checkpoint`)."""
        stats = self.stats
        return {
            "queues": [list(queue) for queue in self.queues],
            "stalls": list(self._stalls),
            "table": self.table.save_state(),
            "violations": list(self.violations),
            "stats": (stats.instances_checked, dict(stats.checks_by_kind),
                      dict(stats.violations_by_kind)),
            "counters": (self._dropped, self.messages_processed,
                         self._round_robin, self._checks_since_discard,
                         self._finalized),
        }

    def load_state(self, state: dict) -> None:
        """Assign :meth:`save_state` output into this freshly built
        monitor (fresh objects keep the hot paths as fast as a new
        run's)."""
        # In place: a hierarchical monitor's leaves share these lists.
        for queue, saved in zip(self.queues, state["queues"]):
            queue[:] = saved
        self._stalls = list(state["stalls"])
        self.table.load_state(state["table"])
        self.violations = list(state["violations"])
        checked, by_kind, violations_by_kind = state["stats"]
        self.stats = CheckStatistics(checked, dict(by_kind),
                                     dict(violations_by_kind))
        (self._dropped, self.messages_processed,
         self._round_robin, self._checks_since_discard,
         self._finalized) = state["counters"]

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
        # Every instance is checked and no message can follow: release
        # the table (a finished run's result keeps its monitor).
        self.table = BranchTable()
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
        return sum(self._stalls)


def gauge_queues(tel: Telemetry, queues: List[List[tuple]]) -> None:
    """Gauge ``monitor.queue_hwm`` from ``queues`` before a drain pops
    them.  Between drains a queue only grows, and every run ends with a
    drain, so this is the maximum length any push reached."""
    longest = max(map(len, queues), default=0)
    if longest:
        tel.gauge_max("monitor.queue_hwm", longest)
