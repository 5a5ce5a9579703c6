"""Thread similarity classes: stream grouping, the classes the golden
run records, and their agreement with a reference observation run."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.faults.campaign import CampaignConfig, golden_run, run_campaign
from repro.faults.spec import CampaignSpec
from repro.runtime.golden import GoldenRecorder, group_streams
from repro.runtime.machine import FaultHook
from repro.runtime.program import RunConfig
from repro.splash2 import all_kernels
from repro.triage import class_ranks, observe_thread_classes
from tests.conftest import FIGURE_1, figure1_setup


class BlockStreamHook(FaultHook):
    """Reference recorder: each thread's full ``(function, block,
    decision)`` branch stream, kept as a list.  The golden run records
    the same stream as one symbol per branch; the classes must agree."""

    def __init__(self) -> None:
        self.streams: Dict[int, List[tuple]] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        block = branch.parent
        self.streams.setdefault(thread.tid, []).append(
            (block.parent.name, block.name, bool(taken)))
        return taken


def reference_classes(program, config, setup) -> List[List[int]]:
    """Classes from one hooked run of the golden schedule."""
    hook = BlockStreamHook()
    result = program.run(
        RunConfig(nthreads=config.nthreads, seed=config.seed,
                  quantum=config.quantum),
        setup=setup, fault_hook=hook)
    assert result.status == "ok" and not result.detected
    return group_streams(hook.streams, config.nthreads)


def recorded_classes(program, config, setup) -> List[List[int]]:
    recorder = GoldenRecorder()
    golden = golden_run(program, config, setup, recorder)
    return group_streams(recorder.streams, len(golden.branch_counts))


def figure1_campaign(program, seed):
    spec = CampaignSpec.build(FIGURE_1, name="figure1", nthreads=4,
                              seed=seed, injections=1)
    return run_campaign(spec, program=program, setup=figure1_setup(4),
                        store=None)


def test_group_streams_identical_streams_share_a_class():
    streams = {
        0: [("slave", "entry", True), ("slave", "loop", False)],
        1: [("slave", "entry", True), ("slave", "loop", False)],
        2: [("slave", "entry", False)],
        3: [],
    }
    assert group_streams(streams, 4) == [[0, 1], [2], [3]]


def test_group_streams_decision_bit_separates_paths():
    # Same blocks, different taken direction: different classes.
    streams = {
        0: [("slave", "entry", True)],
        1: [("slave", "entry", False)],
    }
    assert group_streams(streams, 2) == [[0], [1]]


def test_group_streams_missing_tids_get_empty_streams():
    assert group_streams({}, 3) == [[0, 1, 2]]


def test_class_ranks():
    assert class_ranks([[0, 2], [1], [3]]) == {0: 0, 2: 0, 1: 1, 3: 2}
    assert class_ranks([]) == {}


def test_observe_figure1_classes(figure1_program):
    # Figure 1 diverges three ways: the procid==0 thread, the threads
    # whose gp[procid] clears im-1, and those whose does not.  The
    # decision-aware streams see it; block identity alone would not
    # (the divergent arms are straight-line).
    classes = observe_thread_classes(figure1_campaign(figure1_program, 3))
    assert len(classes) == 3
    assert sorted(tid for cls in classes for tid in cls) == [0, 1, 2, 3]
    # Canonical form: each class sorted, classes ordered by least member.
    assert classes == sorted((sorted(cls) for cls in classes),
                             key=lambda cls: cls[0])
    # Exactly one class of two threads (the two gp=40 procids).
    assert sorted(len(cls) for cls in classes) == [1, 1, 2]


def test_observation_run_is_deterministic(figure1_program):
    first = observe_thread_classes(figure1_campaign(figure1_program, 12345))
    second = observe_thread_classes(figure1_campaign(figure1_program, 12345))
    assert first == second


def test_block_stream_hook_passes_decisions_through(figure1_program):
    hook = BlockStreamHook()
    result = figure1_program.run(RunConfig(nthreads=4, seed=3),
                                 setup=figure1_setup(4), fault_hook=hook)
    assert result.status == "ok"
    assert sorted(hook.streams) == [0, 1, 2, 3]
    for stream in hook.streams.values():
        assert stream, "every thread branches at least once in figure1"
        for function, block, taken in stream:
            assert isinstance(taken, bool)


def test_observe_reads_without_running():
    class Unrecorded:
        thread_classes: List[List[int]] = []

    with pytest.raises(ValueError, match="no thread classes"):
        observe_thread_classes(Unrecorded())


@pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
def test_recorded_classes_match_reference_run(compiled_kernels, kernel):
    spec, program = compiled_kernels[kernel]
    config = CampaignConfig(nthreads=4, seed=2012)
    setup = spec.setup(4)
    assert (recorded_classes(program, config, setup)
            == reference_classes(program, config, setup))


def test_recorded_classes_match_reference_run_figure1(figure1_program):
    config = CampaignConfig(nthreads=4, seed=3)
    assert (recorded_classes(figure1_program, config, figure1_setup(4))
            == reference_classes(figure1_program, config,
                                 figure1_setup(4)))
