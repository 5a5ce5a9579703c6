"""Tests for the two-level branch table and the monitor protocol."""

import pytest

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import CheckSite, Monitor, MonitorMode


def make_site(static_id=0, kind="shared", **kwargs) -> CheckSite:
    defaults = dict(static_id=static_id, function_name="f", block_name="b",
                    check_kind=kind, category=Category.SHARED)
    defaults.update(kwargs)
    return CheckSite(CheckedBranchInfo(**defaults))


KEY = ((), ())


def condition(site, tid, values, key=KEY):
    return (site, tid, key, values, False)


def outcome(site, tid, taken, key=KEY):
    return (site, tid, key, taken, True)


def make_monitor(nthreads=2, mode=MonitorMode.FULL, capacity=64) -> Monitor:
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity))
    return Monitor(metadata, nthreads, mode=mode)


def file_all(monitor, *messages):
    """Send each message from the thread it names, then drain them all."""
    for message in messages:
        assert monitor.try_send(message[1], message)
    assert monitor.drain(len(messages)) == len(messages)
    return monitor.table.pending_entries()


class TestBranchTable:
    def test_reports_merge_into_one_instance(self):
        site = make_site()
        (entry,) = file_all(make_monitor(nthreads=3),
                            condition(site, 0, (5,)), outcome(site, 0, True),
                            condition(site, 1, (5,)))
        assert entry.site is site
        assert entry.values == {0: (5,), 1: (5,)}
        assert entry.outcomes == {0: True}

    def test_levels_separate_instances(self):
        site = make_site()
        entries = file_all(make_monitor(nthreads=2),
                           outcome(site, 0, True, ((1,), (0,))),
                           outcome(site, 0, True, ((2,), (0,))),  # call path
                           outcome(site, 0, True, ((1,), (1,))),  # loop iter
                           outcome(make_site(static_id=9), 0, True,
                                   ((1,), (0,))))
        assert len({id(x) for x in entries}) == 4

    def test_occurrence_counter_separates_repeats(self):
        """Same (call path, static id, loop iters) executed twice by the
        same thread must produce two instances, aligned by occurrence."""
        site = make_site()
        monitor = make_monitor(nthreads=3)
        first, second = file_all(monitor,
                                 outcome(site, 0, True), outcome(site, 0, False),
                                 outcome(site, 1, True), outcome(site, 1, False))
        assert first.outcomes == {0: True, 1: True}
        assert second.outcomes == {0: False, 1: False}

    def test_complete_for(self):
        """An instance is checked the moment its last report arrives."""
        site = make_site()
        monitor = make_monitor(nthreads=2)
        file_all(monitor, condition(site, 0, ()), outcome(site, 0, True),
                 condition(site, 1, ()))
        assert monitor.stats.instances_checked == 0
        file_all(monitor, outcome(site, 1, True))
        assert monitor.stats.instances_checked == 1

    def test_store_kind_completes_on_values_alone(self):
        site = make_site(kind="store_shared")
        assert site.values_only and not make_site().values_only
        monitor = make_monitor(nthreads=2)
        file_all(monitor, condition(site, 0, (3,)), condition(site, 1, (4,)))
        assert monitor.stats.checks_by_kind == {"store_shared": 1}
        assert monitor.first_violation().rule == "store-shared"

    def test_checked_instance_is_deleted_and_its_counters_pruned(self):
        """A checked instance leaves the table; once no thread is ahead
        on its key, the key's occurrence counters go too, and the next
        report restarts at occurrence 0."""
        site = make_site()
        monitor = make_monitor(nthreads=2)
        table = monitor.table
        file_all(monitor, outcome(site, 0, True), outcome(site, 0, False),
                 condition(site, 0, ()), condition(site, 0, ()),
                 condition(site, 1, ()), outcome(site, 1, True))
        # Instance 0 is checked and gone; thread 0 is ahead on instance 1.
        assert monitor.stats.instances_checked == 1
        (entry,) = table.pending_entries()
        assert entry.outcomes == {0: False}
        assert list(table._levels[((), 0)]) == [((), 1)]
        assert len(table._occurrence) == 1
        file_all(monitor, condition(site, 1, ()), outcome(site, 1, False))
        assert monitor.stats.instances_checked == 2
        assert table.pending_entries() == [] and table._occurrence == {}
        # The level-1 dict stays (sweep order); numbering restarts at 0.
        assert table._levels == {((), 0): {}}
        file_all(monitor, outcome(site, 1, True))
        assert list(table._levels[((), 0)]) == [((), 0)]
        assert table._occurrence[((), 0), ()] == [0, 0, 0, 1]

    def test_values_only_key_prunes_without_outcomes(self):
        site = make_site(kind="store_shared")
        monitor = make_monitor(nthreads=2)
        file_all(monitor, condition(site, 0, (3,)), condition(site, 1, (3,)))
        assert monitor.stats.checks_by_kind == {"store_shared": 1}
        assert monitor.table._occurrence == {}
        assert monitor.table.pending_entries() == []


class TestMonitor:
    def send_pair(self, monitor, site, tid, values, taken, key=KEY):
        assert monitor.try_send(tid, condition(site, tid, values, key))
        assert monitor.try_send(tid, outcome(site, tid, taken, key))

    def test_clean_instance_checks_quietly(self):
        monitor = make_monitor()
        site = make_site()
        self.send_pair(monitor, site, 0, (5,), True)
        self.send_pair(monitor, site, 1, (5,), True)
        monitor.drain(100)
        assert monitor.stats.instances_checked == 1
        assert not monitor.detected

    def test_violation_recorded(self):
        monitor = make_monitor()
        site = make_site()
        self.send_pair(monitor, site, 0, (5,), True)
        self.send_pair(monitor, site, 1, (5,), False)
        monitor.drain(100)
        assert monitor.detected
        assert monitor.first_violation().rule == "shared-outcome"
        assert monitor.first_violation().info is site.info

    def test_incomplete_instance_checked_at_finalize(self):
        monitor = make_monitor(nthreads=3)
        site = make_site()
        self.send_pair(monitor, site, 0, (5,), True)
        self.send_pair(monitor, site, 1, (5,), False)  # thread 2 never reports
        monitor.drain(100)
        assert not monitor.detected  # incomplete: not checked eagerly
        monitor.finalize()
        assert monitor.detected

    def test_round_robin_drain_interleaves(self):
        monitor = make_monitor()
        site = make_site()
        for _ in range(3):
            monitor.try_send(0, outcome(site, 0, True))
        monitor.try_send(1, outcome(site, 1, True))
        assert monitor.drain(2) == 2
        # one from each queue despite queue 0 having more
        assert len(monitor.queues[0]) == 2
        assert len(monitor.queues[1]) == 0

    def test_full_queue_reports_backpressure(self):
        monitor = make_monitor(capacity=2)
        site = make_site()
        assert monitor.try_send(0, outcome(site, 0, True))
        assert monitor.try_send(0, outcome(site, 0, True))
        assert not monitor.try_send(0, outcome(site, 0, True))
        assert monitor.queue_pressure() == 1

    def test_feed_mode_discards_without_checking(self):
        monitor = make_monitor(mode=MonitorMode.FEED)
        site = make_site()
        self.send_pair(monitor, site, 0, (5,), True)
        self.send_pair(monitor, site, 1, (5,), False)   # would be a violation
        monitor.drain(100)
        monitor.finalize()
        assert not monitor.detected
        assert monitor.stats.instances_checked == 0
        assert monitor.messages_received == 4

    def test_feed_mode_never_blocks_producers(self):
        monitor = make_monitor(mode=MonitorMode.FEED, capacity=2)
        site = make_site()
        for _ in range(50):
            assert monitor.try_send(0, outcome(site, 0, True))

    def test_string_mode_rejected(self):
        for mode in ("full", "feed"):
            with pytest.raises(TypeError, match="must be a MonitorMode"):
                make_monitor(mode=mode)
