"""Structured JSONL event traces: schema, writer, reader, validator.

One trace line = one JSON object = one :meth:`Telemetry.event`.  Every
event carries:

``kind``
    the event type (see :data:`EVENT_KINDS`);
``seq``
    the emitting collector's monotone sequence number;
``inj``
    the injection index for campaign events (``-1`` for the golden run
    and campaign-level events) — together with ``seq`` this totally
    orders a campaign trace, independent of worker partitioning;
``seed``
    the RNG seed governing the run the event came from.

Events are deterministic in the seed by construction (wall-clock lives
in snapshot timers, never in events), so a trace is a *reproducible
artifact*: two campaigns with the same seed produce byte-identical
sorted traces whatever ``jobs=`` they ran under.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, List

from repro.telemetry.core import event_sort_key


class TraceSchemaError(ValueError):
    """A trace event violates the schema."""


#: kind -> fields required beyond the universal ones.
EVENT_KINDS = {
    #: a campaign began: the fault model and planned volume.
    "campaign_start": ("fault", "injections", "nthreads"),
    #: a campaign finished: deterministic outcome totals.
    "campaign_end": ("outcomes",),
    #: one injection is about to run: its derived seed and fault plan.
    "injection_start": ("fault", "target_thread", "target_branch"),
    #: one injection was classified.
    "injection_end": ("outcome", "baseline_outcome", "activated"),
    #: a simulated machine started executing.
    "run_start": ("nthreads",),
    #: a simulated machine finished: status plus monitor facts.
    "run_end": ("status", "steps", "violations"),
    #: one thread's end-of-run runtime vector (simulated cycles only,
    #: never wall-clock) — the input to triage performance clustering.
    "thread_metrics": ("tid", "cycles", "steps", "branches",
                       "sync_wait", "queue_stall"),
}

#: Fields every event must carry.
REQUIRED_FIELDS = ("kind", "seq")


def validate_event(event: dict) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` is well-formed."""
    if not isinstance(event, dict):
        raise TraceSchemaError("event is not an object: %r" % (event,))
    for name in REQUIRED_FIELDS:
        if name not in event:
            raise TraceSchemaError("event missing %r: %r" % (name, event))
    if not isinstance(event["kind"], str):
        raise TraceSchemaError("event kind is not a string: %r" % (event,))
    if not isinstance(event["seq"], int):
        raise TraceSchemaError("event seq is not an int: %r" % (event,))
    if "inj" in event and not isinstance(event["inj"], int):
        raise TraceSchemaError("event inj is not an int: %r" % (event,))
    required = EVENT_KINDS.get(event["kind"])
    if required is not None:
        missing = [name for name in required if name not in event]
        if missing:
            raise TraceSchemaError(
                "%s event missing %s: %r"
                % (event["kind"], ", ".join(missing), event))


def sort_events(events: Iterable[dict]) -> List[dict]:
    """The canonical trace order: sorted by ``(inj, seq)``."""
    return sorted(events, key=event_sort_key)


def write_trace(path: str, events: Iterable[dict]) -> int:
    """Write events (in canonical order) as JSONL; returns the count."""
    ordered = sort_events(events)
    with open(path, "w") as handle:
        for event in ordered:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
    return len(ordered)


def iter_trace(path: str) -> Iterator[dict]:
    """Stream a JSONL trace one event dict at a time.

    Lazy: each line is read and parsed only when the consumer advances
    the iterator, so arbitrarily large campaign traces can be scanned
    in constant memory.  Blank lines are skipped.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    "%s:%d: not valid JSON: %s" % (path, lineno, exc))


def read_trace(path: str) -> List[dict]:
    """Read a JSONL trace back into a list of event dicts."""
    return list(iter_trace(path))


def validate_trace_file(path: str) -> int:
    """Validate every line of a JSONL trace; returns the event count.

    Streams via :func:`iter_trace` so validation never materializes the
    whole trace.
    """
    count = 0
    for index, event in enumerate(iter_trace(path)):
        try:
            validate_event(event)
        except TraceSchemaError as exc:
            raise TraceSchemaError("%s: event %d: %s" % (path, index, exc))
        count += 1
    return count


def _check_trace(args) -> int:
    """``repro check-trace``: validate each file, one line per file."""
    import sys
    status = 0
    for path in args.traces:
        try:
            count = validate_trace_file(path)
        except TraceSchemaError as exc:
            print("%s: INVALID: %s" % (path, exc), file=sys.stderr)
            status = 1
        else:
            print("%s: %d events, schema OK" % (path, count))
    return status


def register(sub) -> None:
    """The ``check-trace`` subcommand: exit 1 if any trace violates the
    schema (its first violation printed), 2 if one cannot be read."""
    parser = sub.add_parser("check-trace", help="validate JSONL traces")
    parser.add_argument("traces", nargs="+", metavar="TRACE.JSONL")
    parser.set_defaults(func=_check_trace)
