"""Differential test of the monitor's drain against the round-robin it
replaced.

The reference below is the paper's drain as first written: visit every
queue in turn, pop one message from each, and stop after a whole cycle
of visits in a row found nothing (or at the limit).  The monitor now
visits only the non-empty queues; it must pop the same messages in the
same order, leave the same cursor, return the same count and reach the
same checks and violations.
"""

import random

import pytest

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import CheckSite, HierarchicalMonitor, Monitor, MonitorMode


def reference_drain(queues, cursor, limit, monitor):
    """The empty-streak round-robin; returns (processed, next cursor)."""
    processed = 0
    empty_streak = 0
    nqueues = len(queues)
    while processed < limit and empty_streak < nqueues:
        queue = queues[cursor]
        cursor = (cursor + 1) % nqueues
        if not queue:
            empty_streak += 1
            continue
        message = queue.pop(0)
        empty_streak = 0
        processed += 1
        monitor.table.file([message], monitor.nthreads, monitor._check)
    return processed, cursor


class ReferenceMonitor(Monitor):
    def drain(self, limit):
        processed, self._round_robin = reference_drain(
            self.queues, self._round_robin, limit, self)
        self.messages_processed += processed
        return processed


class ReferenceHierarchy(HierarchicalMonitor):
    def _drain_leaf(self, leaf, limit):
        queues = [self.queues[tid] for tid in self.group_members[leaf]]
        processed, self._group_cursor[leaf] = reference_drain(
            queues, self._group_cursor[leaf], limit, self)
        self.leaf_processed[leaf] += processed
        self.messages_processed += processed
        return processed


SITES = [CheckSite(CheckedBranchInfo(
    static_id=sid, function_name="f", block_name="b", check_kind=kind,
    category=Category.SHARED)) for sid, kind in
    enumerate(("shared", "partial", "uniform", "store_shared"))]


def random_message(rng, tid):
    site = rng.choice(SITES)
    key = ((rng.randrange(2),), (rng.randrange(3),))
    if site.values_only or rng.random() < 0.5:
        return (site, tid, key, (rng.randrange(2),), False)
    return (site, tid, key, rng.random() < 0.9, True)


def spied(monitor):
    """Record every message the monitor files, in filing order."""
    log = []
    table = monitor.table
    file = table.file

    def recording(messages, nthreads, on_complete):
        log.extend(messages)
        file(messages, nthreads, on_complete)

    table.file = recording
    return log


def observed(monitor):
    stats = monitor.stats
    return (monitor.messages_processed, monitor._round_robin,
            list(getattr(monitor, "leaf_processed", ())),
            list(getattr(monitor, "_group_cursor", ())),
            stats.instances_checked, stats.checks_by_kind,
            stats.violations_by_kind, monitor.violations)


def build(cls, nthreads, capacity, groups):
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity))
    if groups:
        return cls(metadata, nthreads, groups=groups, mode=MonitorMode.FULL)
    return cls(metadata, nthreads, mode=MonitorMode.FULL)


@pytest.mark.parametrize("nthreads", [1, 2, 4, 32])
@pytest.mark.parametrize("groups", [0, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_drain_matches_reference(nthreads, groups, seed):
    rng = random.Random(seed * 1000 + nthreads * 10 + groups)
    capacity = rng.choice((1, 3, 16))
    if groups:
        fast = build(HierarchicalMonitor, nthreads, capacity, groups)
        ref = build(ReferenceHierarchy, nthreads, capacity, groups)
        for leaf, members in enumerate(fast.group_members):
            cursor = rng.randrange(max(1, len(members)))
            fast._group_cursor[leaf] = ref._group_cursor[leaf] = cursor
    else:
        fast = build(Monitor, nthreads, capacity, 0)
        ref = build(ReferenceMonitor, nthreads, capacity, 0)
        fast._round_robin = ref._round_robin = rng.randrange(nthreads)
    fast_log, ref_log = spied(fast), spied(ref)
    for _ in range(40):
        for tid in range(nthreads):
            if rng.random() < 0.5:
                continue
            for _ in range(rng.randrange(capacity + 2)):
                message = random_message(rng, tid)
                sent = fast.try_send(tid, message)
                assert ref.try_send(tid, message) == sent
        limit = rng.choice((1, 1, 2, 3, rng.randrange(1, 4 * nthreads + 2),
                            10_000))
        if groups and rng.random() < 0.3:
            leaf = rng.randrange(fast.groups)
            assert fast._drain_leaf(leaf, limit) == \
                ref._drain_leaf(leaf, limit)
        else:
            assert fast.drain(limit) == ref.drain(limit)
        assert fast_log == ref_log
        assert observed(fast) == observed(ref)
    assert fast.finalize() == ref.finalize()
    assert fast_log == ref_log
    assert observed(fast) == observed(ref)
    assert len(fast_log) == (sum(fast.leaf_processed) if groups
                             else fast.messages_processed)
    assert fast.stats.instances_checked > 0
