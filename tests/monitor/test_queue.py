"""Tests for the monitor's front-end queues (one bounded FIFO list per
thread), driven through ``Monitor.try_send`` and ``Monitor.drain``,
including a property test that model-checks FIFO behaviour under
arbitrary send/drain interleavings."""

import pytest
from hypothesis import given, strategies as st

from repro.instrument.config import InstrumentConfig, InstrumentationMetadata
from repro.monitor import Monitor, MonitorMode


def queue_monitor(capacity, nthreads=1):
    """A monitor whose table only records what the drain hands it."""
    monitor = Monitor(InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity)), nthreads,
        mode=MonitorMode.FULL)
    monitor.drained = []
    monitor.table.file = (
        lambda messages, nthreads, on_complete:
        monitor.drained.extend(messages))
    return monitor


def pop(monitor, limit=1):
    start = len(monitor.drained)
    monitor.drain(limit)
    return monitor.drained[start:]


class TestBasics:
    def test_empty_initially(self):
        monitor = queue_monitor(4)
        assert monitor.queues == [[]]
        assert monitor.drain(1) == 0
        assert pop(monitor) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            InstrumentConfig(queue_capacity=0)

    def test_push_pop_order(self):
        monitor = queue_monitor(8)
        for i in range(5):
            assert monitor.try_send(0, i)
        assert pop(monitor, 5) == [0, 1, 2, 3, 4]
        assert monitor.queues == [[]]

    def test_full_rejects_and_counts(self):
        monitor = queue_monitor(2)
        assert monitor.try_send(0, "a") and monitor.try_send(0, "b")
        assert not monitor.try_send(0, "c")
        assert monitor.queue_pressure() == 1
        assert monitor.queues[0] == ["a", "b"]

    def test_capacity_is_usable_slots(self):
        monitor = queue_monitor(3)
        assert monitor.capacity == 3
        assert all(monitor.try_send(0, i) for i in range(3))
        assert not monitor.try_send(0, 99)

    def test_wraparound(self):
        monitor = queue_monitor(3)
        for round_ in range(10):
            assert monitor.try_send(0, round_)
            assert pop(monitor) == [round_]

    def test_drain_limit(self):
        monitor = queue_monitor(8)
        for i in range(6):
            monitor.try_send(0, i)
        assert pop(monitor, 4) == [0, 1, 2, 3]
        assert pop(monitor, 10) == [4, 5]


class TestFifoProperty:
    @given(st.lists(
        st.one_of(st.tuples(st.just("push"), st.integers()),
                  st.tuples(st.just("pop"), st.just(0))),
        max_size=200),
        st.integers(min_value=1, max_value=7))
    def test_behaves_like_bounded_deque(self, ops, capacity):
        """Differential test against a plain list model."""
        monitor = queue_monitor(capacity)
        model = []
        stalls = 0
        for op, value in ops:
            if op == "push":
                ok = monitor.try_send(0, value)
                assert ok == (len(model) < capacity)
                if ok:
                    model.append(value)
                else:
                    stalls += 1
            else:
                expected = [model.pop(0)] if model else []
                assert pop(monitor) == expected
            assert monitor.queues[0] == model
            assert monitor.queue_pressure() == stalls
            assert monitor.messages_received == (len(monitor.drained)
                                                 + len(model))
