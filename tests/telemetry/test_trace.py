"""JSONL trace schema: validation, writer/reader roundtrip, CLI validator."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.telemetry import (
    TraceSchemaError,
    iter_trace,
    read_trace,
    sort_events,
    validate_event,
    validate_trace_file,
    write_trace,
)


def _events():
    return [
        {"kind": "run_start", "seq": 0, "inj": 1, "seed": 7, "nthreads": 4},
        {"kind": "run_end", "seq": 1, "inj": 1, "seed": 7,
         "status": "ok", "steps": 100, "violations": 0},
        {"kind": "campaign_start", "seq": 0, "inj": -1, "seed": 7,
         "fault": "branch_flip", "injections": 2, "nthreads": 4},
    ]


def test_validate_event_accepts_well_formed():
    for event in _events():
        validate_event(event)


@pytest.mark.parametrize("event, fragment", [
    ({"seq": 0}, "missing 'kind'"),
    ({"kind": "run_start"}, "missing 'seq'"),
    ({"kind": 3, "seq": 0}, "kind is not a string"),
    ({"kind": "run_start", "seq": "x"}, "seq is not an int"),
    ({"kind": "run_start", "seq": 0, "inj": "x"}, "inj is not an int"),
    ({"kind": "run_start", "seq": 0}, "run_start event missing nthreads"),
    ({"kind": "run_end", "seq": 0, "status": "ok"},
     "run_end event missing steps, violations"),
    ("not a dict", "not an object"),
])
def test_validate_event_rejects_malformed(event, fragment):
    with pytest.raises(TraceSchemaError, match=fragment):
        validate_event(event)


def test_unknown_kind_passes_universal_checks():
    validate_event({"kind": "custom_marker", "seq": 0})


def test_write_read_roundtrip_in_canonical_order(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    count = write_trace(path, _events())
    assert count == 3
    back = read_trace(path)
    assert back == sort_events(_events())
    assert [e["inj"] for e in back] == [-1, 1, 1]
    assert validate_trace_file(path) == 3


def test_validator_flags_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "run_start", "seq": 0}\n')
    with pytest.raises(TraceSchemaError, match="event 0"):
        validate_trace_file(str(path))
    path.write_text("not json\n")
    with pytest.raises(TraceSchemaError, match="not valid JSON"):
        read_trace(str(path))


def test_iter_trace_is_lazy(tmp_path):
    # A malformed line deep in the file must not prevent reading the
    # events before it — proof the iterator consumes line by line
    # instead of slurping the whole file up front.
    path = tmp_path / "large.jsonl"
    with open(str(path), "w", encoding="utf-8") as handle:
        for seq in range(5000):
            handle.write('{"kind": "tick", "seq": %d, "inj": 0}\n' % seq)
        handle.write("THIS LINE IS NOT JSON\n")
    stream = iter_trace(str(path))
    assert iter(stream) is stream  # an iterator, not a list
    first = next(stream)
    assert first == {"kind": "tick", "seq": 0, "inj": 0}
    consumed = 1
    with pytest.raises(TraceSchemaError, match="5001: not valid JSON"):
        for _ in stream:
            consumed += 1
    assert consumed == 5000


def test_iter_trace_large_roundtrip(tmp_path):
    events = [{"kind": "tick", "seq": seq, "inj": seq % 7}
              for seq in range(20000)]
    path = str(tmp_path / "big.jsonl")
    assert write_trace(path, events) == 20000
    streamed = list(iter_trace(path))
    assert streamed == read_trace(path)
    assert len(streamed) == 20000
    assert validate_trace_file(path) == 20000


def test_iter_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"kind": "a", "seq": 0}\n\n\n{"kind": "b", "seq": 1}\n')
    assert [e["kind"] for e in iter_trace(str(path))] == ["a", "b"]


def test_module_cli_validator(tmp_path):
    good = str(tmp_path / "good.jsonl")
    write_trace(good, _events())
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check-trace", good],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "3 events, schema OK" in proc.stdout

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq": 0}\n')
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check-trace", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "INVALID" in proc.stderr
