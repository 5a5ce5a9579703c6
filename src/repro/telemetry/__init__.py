"""Zero-cost-when-disabled metrics and tracing for the whole stack.

The machine, the monitor, and the fault-injection engine all write
into one :class:`Telemetry` collector per run; campaigns merge the
per-injection :class:`TelemetrySnapshot` objects bit-identically
regardless of how the work was partitioned across processes, and the
event stream serializes to a validated JSONL trace
(:mod:`repro.telemetry.trace`).

``python -m repro.telemetry trace.jsonl`` validates a trace file.
"""

from repro.telemetry.core import (
    DISABLED,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    active,
    bucket_bounds,
    bucket_of,
    event_sort_key,
)
from repro.telemetry.trace import (
    EVENT_KINDS,
    TraceSchemaError,
    iter_trace,
    read_trace,
    sort_events,
    validate_event,
    validate_trace_file,
    write_trace,
)

__all__ = [
    "DISABLED", "NullTelemetry", "Telemetry", "TelemetrySnapshot",
    "active", "bucket_bounds", "bucket_of", "event_sort_key",
    "EVENT_KINDS", "TraceSchemaError", "iter_trace", "read_trace",
    "sort_events", "validate_event", "validate_trace_file", "write_trace",
]
