"""Metrics collection: counters, gauges, histograms, timers, events.

The monitor is itself a runtime observer, yet until this module the
reproduction was opaque about its own behavior — queue depths, producer
stalls, check latencies, campaign throughput were all invisible.  A
:class:`Telemetry` instance threads through one simulated run (the
machine, the monitor, and the fault-injection driver all write to
the same instance), and :meth:`Telemetry.snapshot` freezes it into a
picklable :class:`TelemetrySnapshot` that crosses process boundaries
and merges deterministically.

Two properties are load-bearing:

**Zero cost when disabled.**  Every instrumented hot path holds a local
``tel`` that is ``None`` when telemetry is off, so the disabled cost is
one identity check per *rare* event (per scheduling quantum, per
monitor check, per run) — never per interpreted instruction.  The
high-frequency facts (steps, cycles, stalls) are aggregated from
counters the simulator already maintains, at end of run.

**Bit-identical merge.**  All merge arithmetic is integer: counters and
timer totals are ``int`` (timers in nanoseconds), gauges merge by
``max``, histograms are integer bucket counts, and events sort by the
total order ``(injection index, sequence number)``.  Integer addition
and ``max`` are associative and commutative, so *any* partitioning of a
campaign across worker processes merges to the same snapshot — the same
argument that makes the parallel engine's statistics partition-
independent.

Wall-clock time is deliberately quarantined in timers: events and
counters carry only facts that are deterministic in the seed, which is
what makes ``jobs=1`` and ``jobs=N`` traces record-identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple


def bucket_of(value) -> int:
    """Power-of-two histogram bucket: bucket ``b`` covers values in
    ``[2**(b-1), 2**b - 1]``; 0 and negatives land in bucket 0."""
    value = int(value)
    if value <= 0:
        return 0
    return value.bit_length()


def bucket_bounds(bucket: int) -> Tuple[int, int]:
    """Inclusive value range covered by ``bucket`` (see bucket_of)."""
    if bucket <= 0:
        return (0, 0)
    return (1 << (bucket - 1), (1 << bucket) - 1)


def event_sort_key(event: dict) -> Tuple[int, int]:
    """The total order on trace events: ``(injection index, seq)``.

    Campaign events carry an ``inj`` tag (``-1`` for the golden run and
    campaign-level events); within one tag, ``seq`` is the emitting
    instance's own monotone counter — so the key is unique per event and
    a sort by it is partition-independent.
    """
    return (event.get("inj", -1), event.get("seq", 0))


class TelemetrySnapshot:
    """Frozen, picklable telemetry state with deterministic merge."""

    __slots__ = ("counters", "gauges", "hists", "timers", "events")

    def __init__(self,
                 counters: Optional[Dict[str, int]] = None,
                 gauges: Optional[Dict[str, int]] = None,
                 hists: Optional[Dict[str, Dict[int, int]]] = None,
                 timers: Optional[Dict[str, Tuple[int, int]]] = None,
                 events: Optional[List[dict]] = None):
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.hists = {name: dict(buckets)
                      for name, buckets in (hists or {}).items()}
        #: name -> (sample count, total nanoseconds)
        self.timers = dict(timers or {})
        self.events = list(events or [])

    # -- accessors -----------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> int:
        return self.gauges.get(name, 0)

    def timer_seconds(self, name: str) -> float:
        return self.timers.get(name, (0, 0))[1] / 1e9

    def rate(self, counter: str, timer: str) -> float:
        """Per-second rate of ``counter`` over ``timer``'s total time
        (e.g. executed steps/s); 0.0 when the timer never ran."""
        seconds = self.timer_seconds(timer)
        if seconds <= 0:
            return 0.0
        return self.counter(counter) / seconds

    @property
    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.hists
                    or self.timers or self.events)

    # -- merge ---------------------------------------------------------

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """A new snapshot combining both operands.

        Associative and commutative over counters/gauges/hists/timers
        (integer sums and maxes).  Events are concatenated and re-sorted
        by :func:`event_sort_key`; as long as keys are unique across the
        merged set (the campaign contract), event order too is
        independent of how snapshots were grouped.
        """
        merged = TelemetrySnapshot(
            counters=self.counters, gauges=self.gauges, hists=self.hists,
            timers=self.timers, events=self.events)
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            merged.gauges[name] = max(merged.gauges.get(name, value), value)
        for name, buckets in other.hists.items():
            mine = merged.hists.setdefault(name, {})
            for bucket, count in buckets.items():
                mine[bucket] = mine.get(bucket, 0) + count
        for name, (count, total) in other.timers.items():
            have = merged.timers.get(name, (0, 0))
            merged.timers[name] = (have[0] + count, have[1] + total)
        merged.events.extend(other.events)
        merged.events.sort(key=event_sort_key)
        return merged

    @classmethod
    def merge_all(cls, snapshots: Iterable[Optional["TelemetrySnapshot"]]
                  ) -> "TelemetrySnapshot":
        merged = cls()
        for snapshot in snapshots:
            if snapshot is not None:
                merged = merged.merge(snapshot)
        return merged

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "hists": {name: {str(b): c for b, c in sorted(buckets.items())}
                      for name, buckets in sorted(self.hists.items())},
            "timers": {name: list(pair)
                       for name, pair in sorted(self.timers.items())},
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySnapshot":
        return cls(
            counters=data.get("counters", {}),
            gauges=data.get("gauges", {}),
            hists={name: {int(b): c for b, c in buckets.items()}
                   for name, buckets in data.get("hists", {}).items()},
            timers={name: tuple(pair)
                    for name, pair in data.get("timers", {}).items()},
            events=data.get("events", []))

    # -- reporting -------------------------------------------------------

    def format_summary(self) -> str:
        """Readable dump of everything except the raw event list."""
        lines = []
        for name, value in sorted(self.counters.items()):
            lines.append("%-36s %d" % (name, value))
        for name, value in sorted(self.gauges.items()):
            lines.append("%-36s %d (high-water)" % (name, value))
        for name, (count, total) in sorted(self.timers.items()):
            lines.append("%-36s %d samples, %.3f s total"
                         % (name, count, total / 1e9))
        for name, buckets in sorted(self.hists.items()):
            spread = ", ".join(
                "%d-%d:%d" % (bucket_bounds(b) + (c,))
                for b, c in sorted(buckets.items()))
            lines.append("%-36s {%s}" % (name, spread))
        if self.events:
            lines.append("%-36s %d" % ("trace.events", len(self.events)))
        return "\n".join(lines) if lines else "(empty)"

    def __repr__(self) -> str:
        return ("TelemetrySnapshot(%d counters, %d gauges, %d hists, "
                "%d timers, %d events)"
                % (len(self.counters), len(self.gauges), len(self.hists),
                   len(self.timers), len(self.events)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TelemetrySnapshot):
            return NotImplemented
        return (self.counters == other.counters
                and self.gauges == other.gauges
                and self.hists == other.hists
                and self.timers == other.timers
                and self.events == other.events)


class Telemetry:
    """Live collector for one run (or one injection of a campaign).

    ``context`` entries (typically ``inj`` and ``seed``) are stamped on
    every emitted event, which is what makes traces from differently
    partitioned campaigns mergeable: the ``(inj, seq)`` pair identifies
    an event globally, not per-process.
    """

    enabled = True

    def __init__(self, context: Optional[dict] = None):
        self.context = dict(context or {})
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, int] = {}
        self._hists: Dict[str, Dict[int, int]] = {}
        self._timers: Dict[str, List[int]] = {}
        self._events: List[dict] = []
        self._seq = 0

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def gauge_max(self, name: str, value) -> None:
        value = int(value)
        if value > self._gauges.get(name, -1):
            self._gauges[name] = value

    def observe(self, name: str, value) -> None:
        buckets = self._hists.setdefault(name, {})
        bucket = bucket_of(value)
        buckets[bucket] = buckets.get(bucket, 0) + 1

    def add_time_ns(self, name: str, ns: int) -> None:
        pair = self._timers.get(name)
        if pair is None:
            self._timers[name] = [1, int(ns)]
        else:
            pair[0] += 1
            pair[1] += int(ns)

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Add ``snapshot``'s metrics (not its events) to this collector,
        as if they had been recorded here."""
        for name, value in snapshot.counters.items():
            self.count(name, value)
        for name, value in snapshot.gauges.items():
            self.gauge_max(name, value)
        for name, buckets in snapshot.hists.items():
            mine = self._hists.setdefault(name, {})
            for bucket, count in buckets.items():
                mine[bucket] = mine.get(bucket, 0) + count
        for name, (count, total) in snapshot.timers.items():
            pair = self._timers.setdefault(name, [0, 0])
            pair[0] += count
            pair[1] += total

    @contextmanager
    def timer(self, name: str):
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_time_ns(name, time.perf_counter_ns() - started)

    # -- events ----------------------------------------------------------

    def event(self, kind: str, **fields) -> dict:
        """Record one structured trace event.

        Fields must be deterministic in the run's seed — never put wall
        clock, pids, or object ids in an event (timers exist for time).
        """
        record = dict(self.context)
        record.update(fields)
        record["kind"] = kind
        record["seq"] = self._seq
        self._seq += 1
        self._events.append(record)
        return record

    # -- export ----------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            counters=self._counters, gauges=self._gauges, hists=self._hists,
            timers={name: (pair[0], pair[1])
                    for name, pair in self._timers.items()},
            events=self._events)


class NullTelemetry(Telemetry):
    """No-op collector for callers that want unconditional calls.

    The runtime treats any telemetry with ``enabled = False`` as absent
    and keeps its hot paths on the ``tel is None`` fast check, so this
    class exists for *user* code that does not want to branch.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value) -> None:
        pass

    def observe(self, name: str, value) -> None:
        pass

    def add_time_ns(self, name: str, ns: int) -> None:
        pass

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        pass

    @contextmanager
    def timer(self, name: str):
        yield

    def event(self, kind: str, **fields) -> dict:
        return {}


#: Shared disabled singleton (stateless, so sharing is safe).
DISABLED = NullTelemetry()


def active(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalize to the runtime's fast-path convention: a live collector
    or ``None`` — disabled collectors become ``None``."""
    if telemetry is not None and telemetry.enabled:
        return telemetry
    return None
