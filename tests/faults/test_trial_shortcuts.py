"""Trials that stop early give the records of trials that run in full.

A fault trial without telemetry stops checking after its monitor's
first violation ("settled") and stops at an exact re-join with a golden
checkpoint ("rejoined").  A campaign with telemetry takes neither
shortcut, so it is the full-run reference: every record must match it
on outcome, baseline outcome, ``flipped_branch`` and ``detail``, and
every re-joined trial must be masked/masked.

The direct tests pin the state comparison itself: states that differ
only in ``-0.0`` vs ``0.0``, NaN vs NaN or ``True`` vs ``1`` never
re-join, a trial whose fault is never reached never re-joins, and a
settled trial's program-side result equals the full trial's.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.faults import CampaignSpec, run_campaign
from repro.faults.campaign import (CampaignConfig, golden_run,
                                   plan_injection, run_one_injection)
from repro.faults.injector import InjectingHook
from repro.faults.models import FaultSpec, FaultType
from repro.faults.outcomes import Outcome
from repro.monitor import Monitor
from repro.runtime.golden import GoldenRecorder, select_checkpoint
from repro.runtime.machine import Machine
from repro.runtime.program import RunConfig
from repro.runtime.values import exactly_equal

KERNELS = ("radix", "water_nsquared", "fft")
FAULTS = ("flip", "condition")
SEED = 2012


def _cases():
    for kernel in KERNELS:
        for fault in FAULTS:
            yield pytest.param(kernel, fault, 4, 12,
                               id="%s@4-%s" % (kernel, fault))
            yield pytest.param(kernel, fault, 32, 4,
                               id="%s@32-%s" % (kernel, fault),
                               marks=pytest.mark.slow)


def spec_of(kernel, fault, nthreads, injections, **changes):
    return CampaignSpec.for_kernel(kernel, fault=fault, nthreads=nthreads,
                                   seed=SEED, injections=injections,
                                   **changes)


def rows(result):
    return [(record.spec, record.outcome, record.baseline_outcome,
             record.flipped_branch, record.detail)
            for record in result.records]


_CAMPAIGNS = {}


def campaigns(compiled_kernels, kernel, fault, nthreads, injections):
    """(cut-short campaign, full-run reference) of one case, run once."""
    key = (kernel, fault, nthreads, injections)
    if key not in _CAMPAIGNS:
        _, program = compiled_kernels[kernel]
        cut = run_campaign(spec_of(*key), keep_records=True, jobs=1,
                           store=None, program=program)
        full = run_campaign(spec_of(*key, telemetry=True),
                            keep_records=True, jobs=1, store=None,
                            program=program)
        _CAMPAIGNS[key] = cut, full
    return _CAMPAIGNS[key]


@pytest.mark.parametrize("kernel, fault, nthreads, injections", _cases())
def test_records_equal_full_runs(compiled_kernels, kernel, fault, nthreads,
                                 injections):
    cut, full = campaigns(compiled_kernels, kernel, fault, nthreads,
                          injections)
    assert rows(cut) == rows(full)
    assert cut.stats == full.stats
    assert all(record.cut == "" for record in full.records)
    assert (full.stats.settled, full.stats.rejoined) == (0, 0)
    for record in cut.records:
        if record.cut == "rejoined":
            assert (record.outcome, record.baseline_outcome) == (
                Outcome.MASKED, Outcome.MASKED)
        elif record.cut == "settled":
            assert record.outcome is Outcome.DETECTED
        else:
            assert record.cut == ""
    assert cut.stats.settled == sum(r.cut == "settled" for r in cut.records)
    assert cut.stats.rejoined == sum(r.cut == "rejoined"
                                     for r in cut.records)


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_kernel_settles(compiled_kernels, kernel):
    settled = sum(campaigns(compiled_kernels, kernel, fault, 4, 12)[0]
                  .stats.settled for fault in FAULTS)
    assert settled >= 1


def test_water_condition_rejoins(compiled_kernels):
    cut, _ = campaigns(compiled_kernels, "water_nsquared", "condition", 4,
                       12)
    assert cut.stats.rejoined >= 1


# -- counts across partitioning and resume ---------------------------------

RESUME_CASE = ("radix", "condition", 4, 12)


def cut_column(result):
    return [record.cut for record in result.records]


def test_counts_equal_under_a_worker_pool(compiled_kernels):
    serial, _ = campaigns(compiled_kernels, *RESUME_CASE)
    assert serial.stats.settled and serial.stats.rejoined
    pooled = run_campaign(spec_of(*RESUME_CASE), keep_records=True, jobs=4,
                          store=None)
    assert rows(pooled) == rows(serial)
    assert cut_column(pooled) == cut_column(serial)
    assert (pooled.stats.settled, pooled.stats.rejoined) == (
        serial.stats.settled, serial.stats.rejoined)


def test_counts_survive_kill_then_resume(compiled_kernels, tmp_path):
    serial, _ = campaigns(compiled_kernels, *RESUME_CASE)
    journal = str(tmp_path / "campaign.jsonl")
    run_campaign(spec_of(*RESUME_CASE, journal=journal), jobs=1, store=None)
    # The deterministic stand-in for a kill: the header and 5 records.
    lines = open(journal).read().splitlines()
    with open(journal, "w") as handle:
        handle.write("\n".join(lines[:6]) + "\n")
    again = run_campaign(spec_of(*RESUME_CASE, journal=journal, resume=True),
                         keep_records=True, jobs=1, store=None)
    assert cut_column(again) == cut_column(serial)
    assert (again.stats.settled, again.stats.rejoined) == (
        serial.stats.settled, serial.stats.rejoined)


def test_journal_without_cut_still_resumes():
    from repro.faults.campaign import InjectionRecord
    from repro.store.serialize import record_from_dict, record_to_dict
    fault = FaultSpec(FaultType.BRANCH_FLIP, thread_id=0, branch_index=3)
    payload = record_to_dict(0, InjectionRecord(
        spec=fault, outcome=Outcome.DETECTED,
        baseline_outcome=Outcome.SDC, flipped_branch=True, cut="settled"))
    assert record_from_dict(payload)[1].cut == "settled"
    del payload["cut"]
    assert record_from_dict(payload)[1].cut == ""


def test_served_result_recounts_cuts(compiled_kernels):
    from repro.store.serialize import result_from_dict, result_to_dict
    from repro.triage.report import result_fingerprint
    serial, full = campaigns(compiled_kernels, *RESUME_CASE)
    payload = result_to_dict(serial)
    assert "settled" not in payload["stats"]
    back = result_from_dict(payload)
    assert (back.stats.settled, back.stats.rejoined) == (
        serial.stats.settled, serial.stats.rejoined)
    # Shortcuts leave the result digest alone.
    assert result_fingerprint(serial) == result_fingerprint(full)


def test_golden_cache_hit_cuts_as_the_miss_does(compiled_kernels, tmp_path):
    # A hit resumes from the miss's checkpoints, so it re-joins too.
    from repro.store.artifacts import ArtifactStore
    serial, _ = campaigns(compiled_kernels, *RESUME_CASE)
    store = ArtifactStore(str(tmp_path / "store"))
    miss = run_campaign(spec_of(*RESUME_CASE), keep_records=True, jobs=1,
                        store=store)
    hit = run_campaign(spec_of(*RESUME_CASE), keep_records=True, jobs=1,
                       store=store)
    assert store.counters["store.golden.hit"] == 1
    assert cut_column(hit) == cut_column(miss) == cut_column(serial)
    assert hit.stats.rejoined == miss.stats.rejoined > 0
    assert hit.stats.settled == miss.stats.settled
    assert hit.records == miss.records
    assert hit.stats == miss.stats


# -- the state comparison ----------------------------------------------------

def test_exactly_equal_tells_apart_what_equality_does_not():
    nan = math.nan
    assert exactly_equal([1, 2.5, (3, True)], [1, 2.5, (3, True)])
    assert not exactly_equal(0.0, -0.0)
    assert not exactly_equal([0.0], [-0.0])
    assert not exactly_equal(nan, nan)
    assert not exactly_equal([nan], [nan])  # list == list says True
    assert not exactly_equal((1, (nan,)), (1, (nan,)))
    assert not exactly_equal(True, 1)
    assert not exactly_equal({"a": [1]}, {"a": [True]})
    assert not exactly_equal({1: 0, 2: 0}, {2: 0, 1: 0})
    assert not exactly_equal(1, 1.0)


@pytest.mark.parametrize("mine, theirs", [
    (0.0, -0.0), (0.0, False), (math.nan, math.nan),
], ids=["0.0!=-0.0", "0.0!=False", "nan!=nan"])
def test_long_and_many_sequences_are_checked_to_the_end(mine, theirs):
    # Sequences past the typed pass's slice size, alone and gathered.
    # Each pair is == (math.nan is one object), so only the typed pass
    # tells them apart.
    base = [0.0] * 4999
    assert exactly_equal({"a": base + [0.0]}, {"a": base + [0.0]})
    assert not exactly_equal({"a": base + [mine]}, {"a": base + [theirs]})
    rows = [[i, (i, 0.0)] for i in range(3000)]
    other = [list(row) for row in rows]
    assert exactly_equal(rows, other)
    rows[-1][1] = (2999, mine)
    other[-1][1] = (2999, theirs)
    assert not exactly_equal(rows, other)


@pytest.fixture(scope="module")
def radix_golden(compiled_kernels):
    spec, program = compiled_kernels["radix"]
    config = CampaignConfig(nthreads=4, seed=SEED)
    recorder = GoldenRecorder()
    golden = golden_run(program, config, spec.setup(4), recorder)
    return spec, program, config, golden, recorder.checkpoints


def restored(program, checkpoint, nthreads=4):
    machine = Machine(program.protected, nthreads, entry=program.entry,
                      monitor=Monitor(program.metadata, nthreads),
                      seed=SEED)
    machine.restore(checkpoint)
    return machine


def with_register(checkpoint, value):
    """``checkpoint`` with thread 0's top-frame register 0 set."""
    threads = list(checkpoint.threads)
    frames = list(threads[0][0])
    top = list(frames[-1])
    regs = list(top[5])
    regs[0] = value
    top[5] = regs
    frames[-1] = tuple(top)
    threads[0] = (frames,) + tuple(threads[0][1:])
    return dataclasses.replace(checkpoint, threads=threads)


def with_cell(checkpoint, name, value):
    """``checkpoint`` with element 0 of array ``name`` set."""
    scalars, arrays, loads, stores = checkpoint.memory
    arrays = dict(arrays)
    arrays[name] = [value] + list(arrays[name][1:])
    return dataclasses.replace(checkpoint,
                               memory=(scalars, arrays, loads, stores))


@pytest.mark.parametrize("mine, theirs, same", [
    (0.0, 0.0, True),
    (1, 1, True),
    (0.0, -0.0, False),
    (-0.0, 0.0, False),
    (math.nan, math.nan, False),
    (True, 1, False),
    (1, True, False),
], ids=["0.0=0.0", "1=1", "0.0!=-0.0", "-0.0!=0.0", "nan!=nan",
        "True!=1", "1!=True"])
def test_one_register_or_cell_decides(radix_golden, mine, theirs, same):
    _, program, _, _, checkpoints = radix_golden
    checkpoint = checkpoints[len(checkpoints) // 2]
    machine = restored(program, checkpoint)
    assert machine.same_state(checkpoint)

    machine.threads[0].frames[-1].regs[0] = mine
    assert machine.same_state(with_register(checkpoint, theirs)) is same

    machine = restored(program, checkpoint)
    name = next(iter(machine.memory.arrays))
    machine.memory.arrays[name][0] = mine
    assert machine.same_state(with_cell(checkpoint, name, theirs)) is same


def test_monitor_state_is_compared(radix_golden):
    _, program, _, _, checkpoints = radix_golden
    checkpoint = checkpoints[-1]
    machine = restored(program, checkpoint)
    machine.monitor.messages_processed += 1
    assert not machine.same_state(checkpoint)
    machine = restored(program, checkpoint)
    entry = next(entry for level2 in machine.monitor.table._levels.values()
                 for entry in level2.values() if entry.values)
    tid = next(iter(entry.values))
    entry.values[tid] = tuple(entry.values[tid]) + (0,)
    assert not machine.same_state(checkpoint)


def test_unreached_fault_never_rejoins(radix_golden):
    spec, program, config, golden, checkpoints = radix_golden
    fault = FaultSpec(FaultType.BRANCH_CONDITION, thread_id=1,
                      branch_index=golden.branch_counts[1] + 1)
    signature = golden.output_signature(config.output_globals)
    outcome, baseline, hook, cut = run_one_injection(
        program, fault, config, spec.setup(4), signature,
        golden.steps * 10, checkpoints=checkpoints)
    assert (outcome, baseline, cut) == (
        Outcome.NOT_ACTIVATED, Outcome.NOT_ACTIVATED, "")
    # Its state equals every checkpoint it passes, yet it runs to the end.
    run = program.run(RunConfig(nthreads=4, seed=SEED),
                      setup=spec.setup(4), fault_hook=InjectingHook(fault),
                      cut_short=checkpoints)
    assert run.cut == "" and run.steps == golden.steps


def _first_settled(radix_golden, fault_type):
    spec, program, config, golden, checkpoints = radix_golden
    signature = golden.output_signature(config.output_globals)
    for index in range(40):
        fault = plan_injection(fault_type, golden.branch_counts, SEED, index)
        outcome, _, _, cut = run_one_injection(
            program, fault, config, spec.setup(4), signature,
            golden.steps * 10, checkpoints=checkpoints)
        if cut == "settled":
            return fault
    pytest.fail("no settled %s trial in 40" % fault_type.value)


def program_view(result):
    monitor = result.monitor
    return (result.status, result.outputs, result.cycles, result.steps,
            result.branch_counts, result.parallel_time,
            result.thread_sync_wait, result.thread_queue_stall,
            result.memory.scalars, result.memory.arrays,
            monitor.messages_processed, monitor.messages_received,
            monitor.queue_pressure())


@pytest.mark.parametrize("fault_type", list(FaultType))
def test_settled_trial_runs_the_full_program(radix_golden, fault_type):
    spec, program, _, golden, checkpoints = radix_golden
    fault = _first_settled(radix_golden, fault_type)
    runs = []
    for cut_short in (checkpoints, None):
        runs.append(program.run(
            RunConfig(nthreads=4, seed=SEED, max_steps=golden.steps * 10),
            setup=spec.setup(4), fault_hook=InjectingHook(fault),
            resume=select_checkpoint(checkpoints, fault.thread_id,
                                     fault.branch_index),
            cut_short=cut_short))
    settled, full = runs
    assert (settled.cut, full.cut) == ("settled", "")
    assert settled.violations and full.violations
    assert settled.violations[0] == full.violations[0]
    assert program_view(settled) == program_view(full)
    # ... while its monitor stopped checking.
    assert (settled.monitor.stats.instances_checked
            < full.monitor.stats.instances_checked)


def test_cut_short_refuses_golden_and_telemetry_runs(radix_golden):
    from repro.telemetry import Telemetry
    _, program, _, _, checkpoints = radix_golden
    with pytest.raises(ValueError):
        program.run(RunConfig(nthreads=4, seed=SEED),
                    recorder=GoldenRecorder(), cut_short=checkpoints)
    with pytest.raises(ValueError):
        program.run(RunConfig(nthreads=4, seed=SEED,
                              telemetry=Telemetry()),
                    cut_short=checkpoints)
