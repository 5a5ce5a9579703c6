"""Tests for the fault models and the injecting hook."""

import random

import pytest

from repro.faults import FaultSpec, FaultType, InjectingHook, plan_fault
from repro.runtime import FaultHook, ParallelProgram, RunConfig
from repro.runtime.golden import GoldenRecorder, select_checkpoint
from repro.splash2 import kernel
from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def program():
    return ParallelProgram(FIGURE_1, "fig1")


class TestPlanning:
    def test_plan_respects_counts(self):
        rng = random.Random(0)
        counts = {0: 10, 1: 5, 2: 0}
        for _ in range(50):
            spec = plan_fault(FaultType.BRANCH_FLIP, counts, rng)
            assert spec.thread_id in (0, 1)
            assert 1 <= spec.branch_index <= counts[spec.thread_id]

    def test_plan_with_no_branches(self):
        rng = random.Random(0)
        assert plan_fault(FaultType.BRANCH_FLIP, {0: 0}, rng) is None

    def test_describe(self):
        spec = FaultSpec(FaultType.BRANCH_CONDITION, 2, 17)
        assert "thread 2" in spec.describe()
        assert "17" in spec.describe()


class TestBranchFlip:
    def test_activation_at_exact_site(self, program):
        hook = InjectingHook(FaultSpec(FaultType.BRANCH_FLIP, 1, 3))
        result = program.run_protected(4, setup=figure1_setup(4),
                                       fault_hook=hook)
        assert hook.activated
        assert hook.flipped_branch
        assert result is not None

    def test_not_activated_beyond_execution(self, program):
        hook = InjectingHook(FaultSpec(FaultType.BRANCH_FLIP, 1, 10 ** 9))
        program.run_protected(4, setup=figure1_setup(4), fault_hook=hook)
        assert not hook.activated

    def test_fires_exactly_once(self, program):
        hook = InjectingHook(FaultSpec(FaultType.BRANCH_FLIP, 0, 2))
        golden = program.run_protected(4, setup=figure1_setup(4))
        faulty = program.run_protected(4, setup=figure1_setup(4),
                                       fault_hook=hook)
        # same dynamic branch population outside the single perturbation
        assert abs(sum(faulty.branch_counts.values())
                   - sum(golden.branch_counts.values())) <= golden.steps


class TestConditionFault:
    def test_corruption_persists_in_register(self, program):
        """The corrupted operand must influence execution after the
        branch — we detect this via divergence from the flip-only run."""
        spec = FaultSpec(FaultType.BRANCH_CONDITION, 2, 4, bit=62, rng_seed=5)
        hook = InjectingHook(spec)
        result = program.run_protected(4, setup=figure1_setup(4),
                                       fault_hook=hook)
        assert hook.activated
        assert "bit 62" in hook.detail or "boolean" in hook.detail
        assert result is not None

    def test_low_bit_may_not_flip_branch(self, program):
        """Paper: 'a fault ... that flips the least significant bit of the
        condition variable may not affect the comparison'."""
        flipped = []
        for seed in range(16):
            hook = InjectingHook(FaultSpec(
                FaultType.BRANCH_CONDITION, 0, 2, bit=0, rng_seed=seed))
            program.run_protected(4, setup=figure1_setup(4), fault_hook=hook)
            if hook.activated:
                flipped.append(hook.flipped_branch)
        assert flipped and not all(flipped)

    def test_high_bit_usually_flips_compare(self, program):
        hook = InjectingHook(FaultSpec(
            FaultType.BRANCH_CONDITION, 0, 2, bit=63, rng_seed=1))
        # A sign-bit flip in the loop bound can send the loop spinning
        # toward INT_MIN; bound the run so the hang is classified instead
        # of eating the default 20M-step budget.
        program.run_protected(4, setup=figure1_setup(4), fault_hook=hook,
                              max_steps=400_000)
        assert hook.activated


class TestDetectionEndToEnd:
    def test_tid_branch_flip_detected(self, program):
        """Flipping `procid == 0` on a second thread makes two takers —
        the paper's Section II-D example."""
        detections = 0
        for thread in range(4):
            # branch 1 is the first dynamic branch of each thread
            hook = InjectingHook(FaultSpec(FaultType.BRANCH_FLIP, thread, 1))
            result = program.run_protected(4, setup=figure1_setup(4),
                                           fault_hook=hook)
            if result.detected:
                detections += 1
        assert detections >= 3  # non-taker flips give two takers

    def test_shared_loop_flip_detected(self, program):
        # inject into the shared loop region (branches 2..25 are loop
        # iterations); a flip ends/extends exactly one thread's loop
        hook = InjectingHook(FaultSpec(FaultType.BRANCH_FLIP, 2, 10))
        result = program.run_protected(4, setup=figure1_setup(4),
                                       fault_hook=hook)
        assert result.detected


def spy_on(hook):
    """Count, per thread, the calls the machine makes to ``hook``'s
    ``before_branch`` (an instance attribute: ``call_at`` still sees the
    class's own method)."""
    calls = {}
    original = hook.before_branch

    def spy(machine, thread, branch, frame, taken):
        calls.setdefault(thread.tid, []).append(thread.branch_count)
        return original(machine, thread, branch, frame, taken)

    hook.before_branch = spy
    return calls


class TestHookTrigger:
    """``FaultHook.call_at`` decides which branches reach the hook."""

    def test_no_op_hook_is_never_called(self, program):
        hook = FaultHook()
        assert hook.call_at(0) == 0
        calls = spy_on(hook)
        result = program.run_protected(4, setup=figure1_setup(4),
                                       fault_hook=hook)
        assert sum(result.branch_counts.values()) > 0
        assert calls == {}

    @pytest.mark.parametrize("make", [
        GoldenRecorder,
        lambda: type("Observer", (FaultHook,), {
            "before_branch": lambda self, m, t, b, f, taken: taken})()])
    def test_overriding_hooks_see_every_branch(self, program, make):
        hook = make()
        assert hook.call_at(0) == -1
        calls = spy_on(hook)
        kwargs = ({"recorder": hook} if isinstance(hook, GoldenRecorder)
                  else {"fault_hook": hook})
        result = program.run(RunConfig(nthreads=4), setup=figure1_setup(4),
                             **kwargs)
        assert {tid: len(seen) for tid, seen in calls.items()} == \
            result.branch_counts
        assert all(seen == list(range(1, len(seen) + 1))
                   for seen in calls.values())

    def test_injecting_hook_runs_once_per_activated_trial(self):
        """From step 0 and resumed from golden checkpoints alike, the
        injector is called exactly at its target branch, once."""
        spec = kernel("radix")
        program = spec.program()
        config = RunConfig(nthreads=4, seed=2012)
        recorder = GoldenRecorder()
        golden = program.run(config, setup=spec.setup(4), recorder=recorder)
        assert recorder.checkpoints
        rng = random.Random(5)
        for trial in range(12):
            fault_type = (FaultType.BRANCH_FLIP, FaultType.BRANCH_CONDITION)[
                trial % 2]
            fault = plan_fault(fault_type, golden.branch_counts, rng)
            if trial == 11:  # beyond the thread's last branch
                fault = FaultSpec(fault_type, 1, 10 ** 9)
            hook = InjectingHook(fault)
            assert hook.call_at(fault.thread_id) == fault.branch_index
            assert hook.call_at((fault.thread_id + 1) % 4) == 0
            calls = spy_on(hook)
            resume = (select_checkpoint(recorder.checkpoints,
                                        fault.thread_id, fault.branch_index)
                      if trial % 3 else None)
            program.run(config, setup=spec.setup(4), fault_hook=hook,
                        resume=resume)
            if trial == 11:
                assert not hook.activated and calls == {}
            else:
                assert hook.activated
                assert calls == {fault.thread_id: [fault.branch_index]}


def condition_details(program, store=None):
    """The detail of every injection of a small condition-fault campaign
    on water_nsquared (whose victims include unnamed registers)."""
    from repro.faults import CampaignSpec, run_campaign
    spec = CampaignSpec.for_kernel("water_nsquared", fault="condition",
                                   injections=12, nthreads=4)
    result = run_campaign(spec, keep_records=True, jobs=1, store=store,
                          program=program)
    return [record.detail for record in result.records]


def test_condition_details_do_not_depend_on_printing(tmp_path):
    """Printing a module numbers its values, and a default store
    pickles the program.  Neither may rename victims."""
    from repro.ir import print_module
    from repro.store import ArtifactStore
    from repro.store.runtime import set_default_store
    spec = kernel("water_nsquared")

    def fresh():
        return ParallelProgram(spec.source, spec.name)

    plain = condition_details(fresh())
    assert any("%<" in detail for detail in plain)
    printed = fresh()
    print_module(printed.protected)
    assert condition_details(printed) == plain
    store = ArtifactStore(str(tmp_path / "store"))
    set_default_store(store)
    try:
        assert condition_details(fresh(), store=store) == plain
    finally:
        set_default_store(None)
