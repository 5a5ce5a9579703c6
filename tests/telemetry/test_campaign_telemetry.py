"""Campaign telemetry: partition-independence and the disabled path.

The acceptance bar from the redesign: a ``jobs=N`` campaign's merged
snapshot must be bit-identical to the serial run's in everything except
wall-clock timers, and with telemetry off nothing may be collected.
"""

from __future__ import annotations

import pytest

from repro import BlockWatch
from repro.faults import CampaignResult, run_campaign
from repro.telemetry import Telemetry, sort_events, validate_event

from tests.conftest import figure1_setup

THREADS = 4
INJECTIONS = 8
SEED = 2012


def _campaign(program, jobs=None, injections=INJECTIONS, telemetry=True):
    spec = BlockWatch.from_program(program).spec(
        fault="flip", nthreads=THREADS, injections=injections, seed=SEED,
        output_globals=("result",), telemetry=telemetry)
    return run_campaign(spec, program=program,
                        setup=figure1_setup(THREADS), jobs=jobs)


@pytest.fixture(scope="module")
def serial_and_pooled(figure1_program):
    return _campaign(figure1_program, 1), _campaign(figure1_program, 4)


def test_partitioning_changes_only_timers(serial_and_pooled):
    serial, pooled = serial_and_pooled
    assert serial.stats == pooled.stats
    assert serial.telemetry.counters == pooled.telemetry.counters
    assert serial.telemetry.gauges == pooled.telemetry.gauges
    assert serial.telemetry.hists == pooled.telemetry.hists
    # Timers exist in both but carry wall-clock, so only names align.
    assert set(serial.telemetry.timers) <= set(pooled.telemetry.timers) | {
        "campaign.chunk_ns"}


def test_traces_are_record_identical(serial_and_pooled):
    serial, pooled = serial_and_pooled
    assert sort_events(serial.trace_events) == sort_events(pooled.trace_events)


def test_trace_is_schema_valid_and_complete(serial_and_pooled):
    serial, _ = serial_and_pooled
    events = serial.trace_events
    for event in events:
        validate_event(event)
    kinds = [e["kind"] for e in events]
    assert kinds.count("campaign_start") == 1
    assert kinds.count("campaign_end") == 1
    assert kinds.count("injection_start") == INJECTIONS
    assert kinds.count("injection_end") == INJECTIONS
    # Golden run + every injection each bracket a machine run.
    assert kinds.count("run_start") == INJECTIONS + 1
    assert kinds.count("run_end") == INJECTIONS + 1
    # Every event is seed-stamped and (inj, seq) keys are unique.
    keys = {(e["inj"], e["seq"]) for e in events}
    assert len(keys) == len(events)
    assert all("seed" in e for e in events)


def test_write_trace_roundtrip(serial_and_pooled, tmp_path):
    serial, _ = serial_and_pooled
    path = str(tmp_path / "campaign.jsonl")
    count = serial.write_trace(path)
    assert count == len(serial.trace_events)
    from repro.telemetry import read_trace
    assert read_trace(path) == sort_events(serial.trace_events)


def test_campaign_counters_cover_the_stack(serial_and_pooled):
    serial, _ = serial_and_pooled
    tel = serial.telemetry
    assert tel.counter("campaign.injections") == INJECTIONS
    outcome_total = sum(v for k, v in tel.counters.items()
                       if k.startswith("campaign.outcome."))
    assert outcome_total == INJECTIONS
    # Monitor + interpreter facts flowed into the same merged snapshot.
    assert tel.counter("interp.runs") == INJECTIONS + 1
    assert tel.counter("monitor.checks") > 0
    assert tel.counter("interp.steps") > 0


def test_disabled_campaign_collects_nothing(figure1_program):
    result = _campaign(figure1_program, injections=2, telemetry=False)
    assert isinstance(result, CampaignResult)
    assert result.telemetry is None
    assert result.trace_events == []
    with pytest.raises(ValueError, match="without telemetry"):
        result.write_trace("/tmp/never-written.jsonl")


def test_disabled_run_collects_nothing(figure1_program):
    result = figure1_program.run_protected(
        THREADS, seed=0, setup=figure1_setup(THREADS))
    assert result.telemetry is None


def test_enabled_run_snapshot_matches_result(figure1_program):
    tel = Telemetry(context={"inj": -1, "seed": 0})
    result = figure1_program.run_protected(
        THREADS, seed=0, setup=figure1_setup(THREADS), telemetry=tel)
    snap = result.telemetry
    assert snap is not None
    assert snap.counter("interp.steps") == result.steps
    assert snap.counter("interp.runs") == 1
    assert snap.gauge("interp.parallel_cycles") == int(result.parallel_time)
    kinds = [e["kind"] for e in snap.events]
    assert kinds == (["run_start"]
                     + ["thread_metrics"] * THREADS
                     + ["run_end"])
    metrics = [e for e in snap.events if e["kind"] == "thread_metrics"]
    assert [m["tid"] for m in metrics] == list(range(THREADS))
    assert sum(m["steps"] for m in metrics) == result.steps
    for m in metrics:
        assert m["cycles"] >= 0
        assert m["sync_wait"] >= 0
        assert m["queue_stall"] >= 0
