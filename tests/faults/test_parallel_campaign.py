"""Campaign determinism across ``jobs`` values — the tentpole contract:
``run_campaign(..., jobs=N)`` is bit-identical to the serial run for any
``N`` and any chunking, and the per-injection fault plans match
spec-for-spec."""

import pickle

import pytest

from repro import BlockWatch
from repro.analysis import AnalysisConfig
from repro.faults import campaign as campaign_module
from repro.faults import (
    FaultType,
    injection_seed,
    plan_injection,
    run_campaign,
    run_false_positive_trial,
)
from repro.ir import print_module
from repro.runtime import ParallelProgram
from repro.splash2 import kernel
from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def program():
    return ParallelProgram(FIGURE_1, "fig1")


SEED = 9
INJECTIONS = 16

#: Checks fewer branches than the default profile (11 of radix's 14).
SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)


def campaign(program, fault_type=FaultType.BRANCH_FLIP, **kwargs):
    spec = BlockWatch.from_program(program).spec(
        fault=fault_type, nthreads=4, injections=INJECTIONS, seed=SEED,
        output_globals=("result",))
    return run_campaign(spec, program=program, setup=figure1_setup(4),
                        **kwargs)


class TestJobsDeterminism:
    @pytest.mark.parametrize("fault_type", list(FaultType))
    def test_jobs4_matches_serial(self, program, fault_type):
        serial = campaign(program, fault_type, keep_records=True, jobs=1)
        pooled = campaign(program, fault_type, keep_records=True, jobs=4)
        assert serial.stats == pooled.stats
        assert ([r.spec for r in serial.records]
                == [r.spec for r in pooled.records])
        assert ([r.outcome for r in serial.records]
                == [r.outcome for r in pooled.records])

    def test_partitioning_does_not_matter(self, program):
        """Different worker counts produce different chunkings; the
        statistics must not move."""
        stats = [campaign(program, jobs=jobs).stats for jobs in (2, 3)]
        assert stats[0] == stats[1]

    def test_plans_are_partition_independent(self, program):
        """The spec of injection i can be recomputed in isolation —
        exactly what each pool worker does."""
        serial = campaign(program, keep_records=True, jobs=1)
        golden = serial.golden
        for index, record in enumerate(serial.records):
            replanned = plan_injection(FaultType.BRANCH_FLIP,
                                       golden.branch_counts,
                                       SEED, index)
            assert replanned == record.spec

    def test_progress_callback_reaches_total(self, program):
        seen = []
        campaign(program, jobs=2,
                 progress=lambda done, total, secs:
                     seen.append((done, total)))
        assert seen and seen[-1][0] == INJECTIONS
        assert all(total == INJECTIONS for _, total in seen)

    def test_false_positive_trial_jobs_parity(self, program):
        serial = run_false_positive_trial(program, 4, 8, 321,
                                          setup=figure1_setup(4), jobs=1)
        pooled = run_false_positive_trial(program, 4, 8, 321,
                                          setup=figure1_setup(4), jobs=3)
        assert serial == pooled == 0


class TestSeedStability:
    def test_plans_stable_across_processes(self, program):
        """injection_seed is PYTHONHASHSEED-free, so a campaign's fault
        plan is a pure function of (seed, fault type, index) — this is
        what the old ``hash(fault_type.value)`` seeding violated."""
        first = [injection_seed(SEED, FaultType.BRANCH_CONDITION, i)
                 for i in range(4)]
        second = [injection_seed(SEED, FaultType.BRANCH_CONDITION, i)
                  for i in range(4)]
        assert first == second
        assert len(set(first)) == 4


class TestSpawnWorkersRunTheParentsProgram:
    """A spawn-started worker unpickles the parent's context: the
    program compiled with the parent's analysis and instrumentation
    configs, not a rebuild that could check another set of branches."""

    @pytest.fixture(scope="class")
    def sparse_radix(self):
        radix = kernel("radix")
        return radix, radix.program(analysis_config=SPARSE)

    def test_campaign_records_match_serial(self, sparse_radix, spawn_only):
        radix, program = sparse_radix
        spec = BlockWatch.from_program(program).spec(
            fault="flip", nthreads=4, injections=24, seed=99,
            output_globals=radix.output_globals)

        def records(jobs):
            return run_campaign(spec, program=program, setup=radix.setup(4),
                                keep_records=True, jobs=jobs).records

        assert records(2) == records(1)

    def test_false_positive_trial_worker_builds_the_same_image(
            self, sparse_radix, monkeypatch):
        radix, program = sparse_radix
        built = []

        def run_like_a_spawn_worker(task, items, context, **kwargs):
            ctx = pickle.loads(pickle.dumps(context))
            built.append(ctx.program)
            return [task(ctx, item) for item in items]

        monkeypatch.setattr(campaign_module, "run_tasks",
                            run_like_a_spawn_worker)
        assert run_false_positive_trial(program, 4, 1, 5,
                                        setup=radix.setup(4), jobs=2) == 0
        assert built[0] is not program
        assert (print_module(built[0].protected)
                == print_module(program.protected))

    def test_campaign_context_pickles_without_checkpoints(self,
                                                          sparse_radix):
        radix, program = sparse_radix
        spec = BlockWatch.from_program(program).spec(
            fault="flip", nthreads=4, injections=1, seed=99,
            output_globals=radix.output_globals)
        _golden, _summary, ctx = campaign_module._campaign_context(
            spec, None, program, radix.setup(4), None)
        assert ctx.checkpoints
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.checkpoints == ()
        assert clone.golden_fingerprint == ctx.golden_fingerprint
        assert (print_module(clone.program.protected)
                == print_module(program.protected))
