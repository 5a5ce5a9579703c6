"""The checked-branch message path: list queues, the drain's high-water
gauge and the table's pair filing.

* Pair filing (a condition message immediately followed by its outcome
  is filed with one table lookup) is compared against a one-message-at-
  a-time reference filer on random batches.
* The drain-time ``monitor.queue_hwm`` gauge is compared against a
  push-time reference.
* The monitor counters and ``monitor.*`` telemetry of Figure-1 and radix
  runs are pinned in ``monitor_counters.json``, recorded with the ring
  queues, the push-time gauge and one-message filing.  Regenerate only
  when a change is *meant* to alter them::

      PYTHONPATH=src python -m tests.monitor.test_message_path --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis import Category
from repro.instrument import InstrumentConfig
from repro.instrument.config import CheckedBranchInfo, InstrumentationMetadata
from repro.monitor import (BranchTable, CheckSite, HierarchicalMonitor,
                           Monitor, MonitorMode)
from repro.monitor.hashtable import InstanceEntry
from repro.runtime import ParallelProgram, RunConfig
from repro.splash2 import kernel
from repro.telemetry import Telemetry

COUNTERS = Path(__file__).with_name("monitor_counters.json")

#: Pinned runs: program x (queue capacity, monitor batch) x (mode, groups).
PROGRAMS = ("figure1", "radix")
CONFIGS = {"default": None, "cap3-batch2": (3, 2)}
MONITORS = {"full": (MonitorMode.FULL, 1), "feed": (MonitorMode.FEED, 1),
            "groups2": (MonitorMode.FULL, 2)}


def _program(name, config):
    instrument = (None if config is None else
                  InstrumentConfig(queue_capacity=config[0],
                                   monitor_batch=config[1]))
    if name == "figure1":
        from tests.conftest import FIGURE_1, figure1_setup
        return (ParallelProgram(FIGURE_1, name, instrument_config=instrument),
                figure1_setup(4))
    spec = kernel(name)
    return (ParallelProgram(spec.source, name, entry=spec.entry,
                            instrument_config=instrument),
            spec.setup(4))


def monitor_counters(name, config):
    """{monitor label: counters} for one program and queue config."""
    program, setup = _program(name, CONFIGS[config])
    facts = {}
    for label, (mode, groups) in MONITORS.items():
        tel = Telemetry()
        result = program.run(RunConfig(nthreads=4, seed=2012,
                                       monitor_mode=mode,
                                       monitor_groups=groups, telemetry=tel),
                             setup=setup)
        monitor, snap = result.monitor, result.telemetry
        stats = monitor.stats
        facts[label] = {
            "status": result.status,
            "messages_received": monitor.messages_received,
            "messages_processed": monitor.messages_processed,
            "queue_pressure": monitor.queue_pressure(),
            "instances_checked": stats.instances_checked,
            "checks_by_kind": dict(sorted(stats.checks_by_kind.items())),
            "violations": len(monitor.violations),
            "counters": {k: v for k, v in sorted(snap.counters.items())
                         if k.startswith("monitor.")},
            "gauges": {k: v for k, v in sorted(snap.gauges.items())
                       if k.startswith("monitor.")},
            "hists": {k: {str(b): c for b, c in sorted(v.items())}
                      for k, v in sorted(snap.hists.items())
                      if k.startswith("monitor.")},
        }
    return facts


def record():
    return {name: {config: monitor_counters(name, config)
                   for config in CONFIGS}
            for name in PROGRAMS}


# ---------------------------------------------------------------------------
# Pair filing vs one message at a time
# ---------------------------------------------------------------------------


class ReferenceTable(BranchTable):
    """The table filing one message at a time (no pairing)."""

    def file(self, messages, nthreads, on_complete):
        levels = self._levels
        occurrence = self._occurrence
        for site, tid, key, payload, is_outcome in messages:
            call_path, loop_iters = key
            level1_key = (call_path, site.info.static_id)
            occ_key = (level1_key, loop_iters, tid, is_outcome)
            seen = occurrence.get(occ_key, 0)
            occurrence[occ_key] = seen + 1
            level2 = levels.setdefault(level1_key, {})
            entry = level2.get((loop_iters, seen))
            if entry is None:
                entry = level2[(loop_iters, seen)] = InstanceEntry(site)
            if is_outcome:
                entry.outcomes[tid] = payload
            else:
                entry.values[tid] = payload
            if (not entry.checked and len(entry.values) == nthreads
                    and (site.values_only
                         or len(entry.outcomes) == nthreads)):
                on_complete(entry)


SITES = [CheckSite(CheckedBranchInfo(
    static_id=sid, function_name="f", block_name="b%d" % sid,
    check_kind=kind, category=Category.SHARED)) for sid, kind in
    enumerate(("shared", "partial", "uniform", "store_shared", "shared"))]


def traffic(rng, nthreads, events):
    """Per-thread message streams shaped like generated code's: a
    condition then an outcome sharing one key object, with key objects
    shared across threads and sites, repeated keys, and now and then a
    lone condition or outcome so occurrence counts drift apart."""
    keys = [((rng.randrange(2),), (rng.randrange(3),)) for _ in range(4)]
    streams = []
    for tid in range(nthreads):
        stream = []
        for _ in range(events):
            site = rng.choice(SITES)
            key = rng.choice(keys)
            values = (rng.randrange(2), rng.randrange(2))
            taken = rng.random() < 0.8
            shape = rng.random()
            if shape > 0.05:
                stream.append((site, tid, key, values, False))
            if shape < 0.92:
                stream.append((site, tid, key, taken, True))
        streams.append(stream)
    return streams


def logged_monitor(table, nthreads, capacity, groups):
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity))
    if groups:
        monitor = HierarchicalMonitor(metadata, nthreads, groups=groups)
    else:
        monitor = Monitor(metadata, nthreads)
    monitor.table = table
    monitor.checked = []
    check = monitor._check

    def logging_check(entry):
        monitor.checked.append((entry.site.info.static_id,
                                dict(entry.values), dict(entry.outcomes)))
        check(entry)

    monitor._check = logging_check
    return monitor


def table_facts(monitor):
    stats = monitor.stats
    return (monitor.table.save_state(),
            [(e.site.info.static_id, dict(e.values), dict(e.outcomes))
             for e in monitor.table.pending_entries()],
            monitor.checked, monitor.violations, stats.instances_checked,
            stats.checks_by_kind, stats.violations_by_kind,
            monitor.messages_processed, monitor.messages_received)


@pytest.mark.parametrize("nthreads", [1, 2, 4])
@pytest.mark.parametrize("groups", [0, 2])
@pytest.mark.parametrize("seed", range(5))
def test_pair_filing_matches_one_at_a_time(nthreads, groups, seed):
    rng = random.Random(seed * 100 + nthreads * 10 + groups)
    capacity = rng.choice((1, 2, 3, 64))
    streams = traffic(rng, nthreads, 300)
    fast = logged_monitor(BranchTable(), nthreads, capacity, groups)
    ref = logged_monitor(ReferenceTable(), nthreads, capacity, groups)
    positions = [0] * nthreads
    while any(pos < len(s) for pos, s in zip(positions, streams)):
        for tid in range(nthreads):
            # Send a burst until the queue is full: a pair is split by a
            # stall when its outcome finds no room.
            for _ in range(rng.randrange(4)):
                if positions[tid] == len(streams[tid]):
                    break
                message = streams[tid][positions[tid]]
                sent = fast.try_send(tid, message)
                assert ref.try_send(tid, message) == sent
                if not sent:
                    break
                positions[tid] += 1
        limit = rng.choice((1, 2, 3, 5, 64))
        assert fast.drain(limit) == ref.drain(limit)
        assert table_facts(fast) == table_facts(ref)
    assert fast.finalize() == ref.finalize()
    assert fast.checked == ref.checked
    assert fast.stats.instances_checked > 0
    assert table_facts(fast)[2:] == table_facts(ref)[2:]


def test_pairing_compares_the_thread():
    """Two threads' reports sharing one key object are not a pair."""
    site = SITES[0]
    key = ((), ())
    batch = [(site, 0, key, (5,), False), (site, 1, key, True, True),
             (site, 1, key, (5,), False), (site, 0, key, True, True)]
    fast, ref = BranchTable(), ReferenceTable()
    fast.file(batch, 3, lambda entry: None)
    ref.file(batch, 3, lambda entry: None)
    assert fast.save_state() == ref.save_state()
    (entry,) = fast.pending_entries()
    assert entry.values == {0: (5,), 1: (5,)}
    assert entry.outcomes == {0: True, 1: True}


def test_pairing_compares_the_site():
    """Reports of two branches sharing one key object are not a pair."""
    first, second = SITES[0], SITES[1]
    key = ((), ())
    batch = [(first, 0, key, (5,), False), (second, 0, key, True, True)]
    fast, ref = BranchTable(), ReferenceTable()
    fast.file(batch, 2, lambda entry: None)
    ref.file(batch, 2, lambda entry: None)
    assert fast.save_state() == ref.save_state()
    assert [(e.site, e.values, e.outcomes) for e in fast.pending_entries()] \
        == [(first, {0: (5,)}, {}), (second, {}, {0: True})]


def test_pairing_needs_equal_occurrences():
    """An outcome of a later occurrence than its condition files into
    its own instance."""
    site = SITES[0]
    key = ((), ())
    batch = [(site, 0, key, True, True), (site, 0, key, (1,), False),
             (site, 0, key, (2,), False), (site, 0, key, False, True)]
    fast, ref = BranchTable(), ReferenceTable()
    fast.file(batch, 2, lambda entry: None)
    ref.file(batch, 2, lambda entry: None)
    assert fast.save_state() == ref.save_state()
    first, second = fast.pending_entries()
    assert (first.values, first.outcomes) == ({0: (1,)}, {0: True})
    assert (second.values, second.outcomes) == ({0: (2,)}, {0: False})


def test_store_kinds_complete_on_the_condition():
    """A values-only site completes before its outcome is filed, so the
    outcome must not be paired into the checked instance's report."""
    site = SITES[3]
    assert site.values_only
    key = ((), ())
    checked = {}
    for cls in (BranchTable, ReferenceTable):
        seen = checked[cls] = []

        def check(entry, seen=seen):
            entry.checked = True
            seen.append(dict(entry.outcomes))

        cls().file([(site, 0, key, (1,), False), (site, 0, key, True, True)],
                   1, check)
    assert checked[BranchTable] == checked[ReferenceTable] == [{}]


# ---------------------------------------------------------------------------
# The drain-time queue high-water mark
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MonitorMode.FULL, MonitorMode.FEED])
@pytest.mark.parametrize("groups", [0, 3])
@pytest.mark.parametrize("seed", range(4))
def test_queue_hwm_equals_push_time_maximum(mode, groups, seed):
    rng = random.Random(seed)
    nthreads = 4
    metadata = InstrumentationMetadata(config=InstrumentConfig(
        queue_capacity=rng.choice((1, 3, 8))))
    tel = Telemetry()
    if groups:
        monitor = HierarchicalMonitor(metadata, nthreads, groups=groups,
                                      mode=mode, telemetry=tel)
    else:
        monitor = Monitor(metadata, nthreads, mode=mode, telemetry=tel)
    streams = traffic(rng, nthreads, 60)
    pushed = 0
    for _ in range(200):
        tid = rng.randrange(nthreads)
        if streams[tid] and monitor.try_send(tid, streams[tid][0]):
            streams[tid].pop(0)
            pushed = max(pushed, len(monitor.queues[tid]))
        if rng.random() < 0.2:
            monitor.drain(rng.choice((1, 2, 5)))
    monitor.finalize()
    assert pushed > 0
    assert tel.snapshot().gauge("monitor.queue_hwm") == pushed


# ---------------------------------------------------------------------------
# Pinned monitor counters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", PROGRAMS)
def test_monitor_counters_are_pinned(name, config):
    pinned = json.loads(COUNTERS.read_text())[name][config]
    assert monitor_counters(name, config) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.monitor.test_message_path --write")
    COUNTERS.write_text(json.dumps(record(), indent=1, sort_keys=True)
                        + "\n")
