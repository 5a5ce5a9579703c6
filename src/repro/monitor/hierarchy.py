"""Hierarchical multi-monitor (the paper's Section VI extension).

"As we scale BLOCKWATCH to higher numbers of threads, it is possible
that the monitor itself becomes a bottleneck.  To alleviate this, we can
have multiple monitor threads structured in a hierarchical fashion, each
of which is assigned to a sub-group of threads."

This module implements that sketch: ``groups`` leaf monitors each own
the front-end queues of a contiguous sub-group of program threads and
drain them concurrently (one scheduling quantum drains every leaf), all
filing into one shared back-end table at the root, where the cross-
thread checks run exactly as in the flat monitor.

The measurable effect on the simulator is drain *bandwidth*: with G
leaves, one drain invocation retires up to G× the flat monitor's batch,
so producer backpressure (queue-full stalls) at high thread counts drops
— ``benchmarks/bench_hierarchy.py`` quantifies this.
"""

from __future__ import annotations

from typing import List, Optional

from repro.instrument.config import InstrumentationMetadata
from repro.monitor.monitor import Monitor, MonitorMode, gauge_queues
from repro.monitor.queue import pop_round_robin
from repro.telemetry import Telemetry


class HierarchicalMonitor(Monitor):
    """A tree of monitor threads: G leaves + one checking root.

    Producer and consumer APIs are identical to :class:`Monitor`, so the
    runtime can use either interchangeably.
    """

    def __init__(self, metadata: InstrumentationMetadata, nthreads: int,
                 groups: int = 2, mode: MonitorMode = MonitorMode.FULL,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(metadata, nthreads, mode=mode, telemetry=telemetry)
        if groups < 1:
            raise ValueError("need at least one monitor group")
        self.groups = min(groups, nthreads) if nthreads else 1
        #: leaf index -> the producer thread ids it serves
        self.group_members: List[List[int]] = [[] for _ in range(self.groups)]
        for tid in range(nthreads):
            self.group_members[tid % self.groups].append(tid)
        self._leaf_queues = [[self.queues[tid] for tid in members]
                             for members in self.group_members]
        self._group_cursor = [0] * self.groups
        #: messages retired per leaf (for the ablation report)
        self.leaf_processed = [0] * self.groups

    def drain(self, limit: int) -> int:
        """One quantum of the whole monitor tree.

        Every leaf runs concurrently on its own core, so each gets the
        full ``limit`` budget; the shared back-end table is the paper's
        hierarchical aggregation point.
        """
        return sum(self._drain_leaf(leaf, limit)
                   for leaf in range(self.groups))

    def save_state(self) -> dict:
        state = super().save_state()
        state["leaves"] = (list(self._group_cursor),
                           list(self.leaf_processed))
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        cursors, processed = state["leaves"]
        self._group_cursor = list(cursors)
        self.leaf_processed = list(processed)

    def _drain_leaf(self, leaf: int, limit: int) -> int:
        queues = self._leaf_queues[leaf]
        tel = self.telemetry
        if tel is not None:
            gauge_queues(tel, queues)
        messages, self._group_cursor[leaf] = pop_round_robin(
            queues, self._group_cursor[leaf], limit)
        processed = len(messages)
        if not processed:
            return 0
        if self._full:
            self.table.file(messages, self.nthreads, self._check)
        self.leaf_processed[leaf] += processed
        self.messages_processed += processed
        if tel is not None:
            tel.observe("monitor.leaf_drain_batch", processed)
        return processed
