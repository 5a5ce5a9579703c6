"""Checkpoint-and-branch injection: a trial resumed from a golden-run
checkpoint is record-for-record identical to the same trial replayed
from step 0.

Each case's campaign runs once normally (trials resume from the latest
checkpoint before their fault site) and once with checkpoint selection
forced to step 0; every record field must match, the per-injection
telemetry snapshot included (wall-clock timer totals excepted — only
their sample counts are deterministic).  The resumed records must also
hold under a worker pool (``jobs=2``), after a kill-then-resume from
the journal, and on a golden-cache hit (which resumes from the
checkpoints the miss recorded).
The cases include a crash trial (radix, water_nsquared, fft) and a
hang trial (ocean_noncontig).
"""

from __future__ import annotations

import contextlib

import pytest

import repro.faults.campaign as campaign
from repro.faults import CampaignSpec, run_campaign
from repro.faults.outcomes import Outcome
from repro.runtime.golden import CHECKPOINTS, GoldenRecorder, select_checkpoint
from repro.runtime.machine import Machine
from repro.runtime.program import ParallelProgram
from repro.store.artifacts import ArtifactStore
from repro.store.hashing import program_key_of

#: (kernel, threads, fault model, seed, injections, outcome that must
#: occur among the trials).
CASES = [
    ("radix", 4, "flip", 5, 8, Outcome.CRASH),
    ("water_nsquared", 4, "condition", 1, 6, Outcome.CRASH),
    ("fft", 32, "flip", 4, 2, Outcome.CRASH),
    ("ocean_noncontig", 4, "condition", 1, 11, Outcome.HANG),
]


def case_id(case):
    return "%s@%d-%s" % case[:3]


def spec_of(case, **changes):
    kernel, nthreads, fault, seed, injections, _ = case
    return CampaignSpec.for_kernel(kernel, fault=fault, nthreads=nthreads,
                                   seed=seed, injections=injections,
                                   telemetry=True).replace(**changes)


@contextlib.contextmanager
def counting_restores():
    """Collect the checkpoints trials resume from (in this process)."""
    restores = []
    original = Machine.restore

    def restore(machine, checkpoint):
        restores.append(checkpoint)
        return original(machine, checkpoint)

    Machine.restore = restore
    try:
        yield restores
    finally:
        Machine.restore = original


@contextlib.contextmanager
def from_step_zero():
    """Force every trial to replay its prefix from step 0."""
    original = campaign.select_checkpoint
    campaign.select_checkpoint = lambda checkpoints, tid, k: None
    try:
        yield
    finally:
        campaign.select_checkpoint = original


def comparable(record):
    """Every record field; telemetry with timer totals dropped."""
    tel = record.telemetry
    if tel is not None:
        tel = (tel.counters, tel.gauges, tel.hists,
               {name: count for name, (count, _ns) in tel.timers.items()},
               tel.events)
    return (record.spec, record.outcome, record.baseline_outcome,
            record.flipped_branch, record.detail, tel)


def rows(result):
    return [comparable(record) for record in result.records]


@pytest.fixture(scope="module", params=CASES, ids=case_id)
def case(request):
    return request.param


@pytest.fixture(scope="module")
def resumed(case):
    with counting_restores() as restores:
        result = run_campaign(spec_of(case), keep_records=True, jobs=1,
                              store=None)
    return result, restores


@pytest.fixture(scope="module")
def replayed(case):
    with from_step_zero(), counting_restores() as restores:
        result = run_campaign(spec_of(case), keep_records=True, jobs=1,
                              store=None)
    assert restores == []
    return result


def test_resumed_trials_equal_step_zero_replays(case, resumed, replayed):
    result, restores = resumed
    assert restores, "no trial resumed from a checkpoint"
    assert rows(result) == rows(replayed)
    assert result.stats.counts == replayed.stats.counts
    assert result.stats.baseline_counts == replayed.stats.baseline_counts
    assert result.telemetry.events == replayed.telemetry.events


def test_case_covers_its_outcome(case, resumed):
    outcome = case[-1]
    result, _ = resumed
    assert any(outcome in (record.outcome, record.baseline_outcome)
               for record in result.records)


def test_worker_pool_resumes_identically(case, resumed):
    pooled = run_campaign(spec_of(case), keep_records=True, jobs=2,
                          store=None)
    assert rows(pooled) == rows(resumed[0])


def test_journal_kill_then_resume(case, resumed, tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    run_campaign(spec_of(case, journal=journal), keep_records=True, jobs=1,
                 store=None)
    # The deterministic stand-in for a kill: keep the header and the
    # first two records.
    lines = open(journal).read().splitlines()
    with open(journal, "w") as handle:
        handle.write("\n".join(lines[:3]) + "\n")
    with counting_restores() as restores:
        again = run_campaign(spec_of(case, journal=journal, resume=True),
                             keep_records=True, jobs=1, store=None)
    assert rows(again) == rows(resumed[0])
    assert len(restores) <= case[4] - 2


def test_golden_cache_hit_restores_checkpoints(tmp_path):
    # A hit resumes its trials from the miss's checkpoints, in this
    # process and in forked workers: the same trials, the same rows.
    store = ArtifactStore(str(tmp_path / "store"))
    spec = spec_of(CASES[0], telemetry=False)
    with counting_restores() as miss_restores:
        miss = run_campaign(spec, keep_records=True, jobs=1, store=store)
    with counting_restores() as hit_restores:
        hit = run_campaign(spec, keep_records=True, jobs=1, store=store)
    assert (store.counters["store.golden.miss"],
            store.counters["store.golden.hit"]) == (1, 1)
    assert miss_restores and len(hit_restores) == len(miss_restores)
    assert all(mine is theirs
               for mine, theirs in zip(hit_restores, miss_restores))
    assert hit.golden is None
    assert rows(hit) == rows(miss)
    assert hit.thread_classes == miss.thread_classes
    pooled = run_campaign(spec, keep_records=True, jobs=2, store=store)
    assert store.counters["store.golden.hit"] == 2
    assert rows(pooled) == rows(miss)


def test_equal_program_of_another_object_misses(tmp_path):
    # Checkpoints point into the program that took them: a compile of
    # the same source under the same key gets a golden run of its own.
    store = ArtifactStore(str(tmp_path / "store"))
    spec = spec_of(CASES[0], telemetry=False)
    first = spec.resolve_program(None)
    other = ParallelProgram(first.source, first.name, entry=first.entry,
                            analysis_config=first.analysis_config,
                            instrument_config=first.instrument_config,
                            opt_level=first.opt_level)
    assert program_key_of(other) == program_key_of(first)
    theirs = run_campaign(spec, keep_records=True, jobs=1, store=store,
                          program=first)
    (entry,) = store._goldens.values()
    foreign = {id(checkpoint) for checkpoint in entry[2]}
    with counting_restores() as restores:
        mine = run_campaign(spec, keep_records=True, jobs=1, store=store,
                            program=other)
    assert store.counters["store.golden.miss"] == 2
    assert "store.golden.hit" not in store.counters
    assert restores and not foreign & {id(c) for c in restores}
    assert rows(mine) == rows(theirs)
    (entry,) = store._goldens.values()
    assert entry[0] is other


def test_checkpoints_are_bounded_and_evenly_spaced(compiled_kernels):
    spec, program = compiled_kernels["water_nsquared"]
    recorder = GoldenRecorder()
    golden = campaign.golden_run(
        program, campaign.CampaignConfig(nthreads=4, seed=2012),
        spec.setup(4), recorder)
    steps = [checkpoint.steps for checkpoint in recorder.checkpoints]
    assert CHECKPOINTS // 2 <= len(steps) <= CHECKPOINTS
    assert steps == sorted(steps) and steps[-1] < golden.steps
    interval = recorder.interval
    for n, step in enumerate(steps, start=1):
        # Taken at the first quantum boundary at or after n * interval.
        assert n * interval <= step < n * interval + 32


def test_select_checkpoint_picks_latest_before_the_fault():
    class Point:
        def __init__(self, counts):
            self.branch_counts = counts

    early, late = Point((3, 5)), Point((7, 9))
    assert select_checkpoint([early, late], 0, 3) is None
    assert select_checkpoint([early, late], 0, 4) is early
    assert select_checkpoint([early, late], 0, 8) is late
    assert select_checkpoint([early, late], 1, 9) is early
    assert select_checkpoint([], 0, 100) is None


class EveryBoundary(GoldenRecorder):
    """Keeps a checkpoint every ``spacing`` steps, never thinning."""

    def __init__(self, spacing):
        super().__init__()
        self.spacing = self.next_at = spacing

    def capture(self, machine):
        self.checkpoints.append(machine.checkpoint())
        self.next_at = machine.total_steps + self.spacing
        return self.next_at


def run_view(result):
    return (result.status, result.outputs, result.cycles,
            result.branch_counts, result.steps, result.parallel_time,
            result.thread_sync_wait, result.thread_queue_stall,
            result.sync_wait_cycles, result.lock_acquisitions,
            result.barrier_episodes, [str(v) for v in result.violations],
            result.memory.scalars, result.memory.arrays,
            result.monitor.stats, result.monitor.messages_processed,
            result.monitor.messages_received,
            result.monitor.queue_pressure())


@pytest.mark.parametrize("kernel, nthreads", [("fft", 32), ("radix", 4)])
def test_resume_from_any_boundary_reproduces_the_run(kernel, nthreads):
    # A small queue and drain batch keep messages queued between quanta
    # and producers stalled on full queues, so checkpoints catch both.
    from repro.instrument import InstrumentConfig
    from repro.runtime.program import ParallelProgram, RunConfig
    from repro.splash2 import kernel as lookup
    spec = lookup(kernel)
    program = ParallelProgram(
        spec.source, spec.name, entry=spec.entry,
        instrument_config=InstrumentConfig(queue_capacity=8,
                                           monitor_batch=4))
    config = RunConfig(nthreads=nthreads, seed=2012)
    recorder = EveryBoundary(997)
    full = program.run(config, setup=spec.setup(nthreads),
                       recorder=recorder)
    checkpoints = recorder.checkpoints[::5]
    assert any(any(cp.monitor["queues"]) for cp in checkpoints)
    assert any(any(thread[7] is not None for thread in cp.threads)
               for cp in checkpoints), "no producer caught stalled"
    for checkpoint in checkpoints:
        resumed = program.run(config, resume=checkpoint)
        assert run_view(resumed) == run_view(full), checkpoint.steps


CONTENDED = """
global int counter;
global lock l;
global barrier b;
global int out[8];

func slave() {
  local int t = tid();
  local int i;
  for (i = 0; i < 24; i = i + 1) {
    lock(l);
    counter = counter + t + i;
    output(counter);
    unlock(l);
    if (i == 12) { barrier(b); }
  }
  out[t] = counter;
  barrier(b);
}
"""


def test_resume_mid_lock_and_barrier_twice_from_each_checkpoint():
    # Checkpoints inside lock hand-offs and barrier episodes; resuming
    # twice from each one shows the checkpoint is not consumed.
    from repro.runtime.program import ParallelProgram, RunConfig
    program = ParallelProgram(CONTENDED, "contended")
    config = RunConfig(nthreads=4, seed=5, quantum=7)
    recorder = EveryBoundary(29)
    full = program.run(config, recorder=recorder)
    assert full.status == "ok" and not full.detected
    checkpoints = recorder.checkpoints
    assert any(any(waiters for _o, waiters, *_ in cp.mutexes.values())
               for cp in checkpoints), "no checkpoint inside a hand-off"
    assert any(any(arrived for _g, arrived, _e in cp.barriers.values())
               for cp in checkpoints), "no checkpoint inside a barrier"
    for checkpoint in checkpoints:
        for _ in range(2):
            resumed = program.run(config, resume=checkpoint)
            assert run_view(resumed) == run_view(full), checkpoint.steps
