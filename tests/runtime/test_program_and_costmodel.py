"""Tests for the ParallelProgram facade and the cost model."""

import pytest

from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.monitor import MODE_FEED, MODE_FULL
from repro.runtime import CostModel, Machine, ParallelProgram, RunConfig
from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def program():
    return ParallelProgram(FIGURE_1, "fig1")


class TestParallelProgram:
    def test_two_images_compiled(self, program):
        assert program.baseline.bw_metadata is None
        assert program.protected.bw_metadata is not None
        assert program.checked_branch_count() == 4

    def test_monitor_mode_none_runs_baseline(self, program):
        result = program.run(RunConfig(nthreads=4, monitor_mode=None),
                             setup=figure1_setup(4))
        assert result.monitor is None
        assert result.status == "ok"

    def test_monitor_mode_full_checks(self, program):
        result = program.run(RunConfig(nthreads=4, monitor_mode=MODE_FULL),
                             setup=figure1_setup(4))
        assert result.monitor is not None
        assert result.monitor.stats.instances_checked > 0

    def test_monitor_mode_feed_sends_without_checking(self, program):
        result = program.run(RunConfig(nthreads=4, monitor_mode=MODE_FEED),
                             setup=figure1_setup(4))
        assert result.monitor.messages_received > 0
        assert result.monitor.stats.instances_checked == 0

    def test_unknown_monitor_mode_rejected(self, program):
        with pytest.raises(ValueError):
            program.run(RunConfig(nthreads=4, monitor_mode="half"))

    def test_nonpositive_threads_or_quantum_rejected(self, program):
        # quantum <= 0 used to spin the scheduler forever; nthreads <= 0
        # used to "succeed" with no work done.
        for config in (RunConfig(nthreads=4, quantum=0),
                       RunConfig(nthreads=4, quantum=-3),
                       RunConfig(nthreads=0), RunConfig(nthreads=-2)):
            with pytest.raises(ValueError, match="at least 1"):
                program.run(config, setup=figure1_setup(4))

    def test_instrumented_module_requires_monitor(self, program):
        with pytest.raises(SimulationError):
            Machine(program.protected, 2, entry="slave", monitor=None)

    def test_overhead_uses_feed_mode(self, program):
        overhead = program.overhead(4, setup=figure1_setup(4))
        assert 1.0 < overhead < 10.0

    def test_overhead_shrinks_with_threads(self, program):
        at2 = program.overhead(2, setup=figure1_setup(2))
        at16 = program.overhead(16, setup=figure1_setup(16))
        assert at16 < at2

    def test_entry_mismatch_rejected(self):
        from repro.analysis import AnalysisConfig
        with pytest.raises(ValueError):
            ParallelProgram(FIGURE_1, entry="slave",
                            analysis_config=AnalysisConfig(entry="other"))


class TestCostModel:
    def test_single_socket_for_one_thread(self):
        cm = CostModel()
        assert cm.sockets_used(1) == 1
        assert cm.sockets_used(2) == 2
        assert cm.sockets_used(32) == 4  # 4 sockets x 8 cores

    def test_numa_multiplier(self):
        cm = CostModel()
        assert cm.memory_cost(1) == cm.mem_local
        assert cm.memory_cost(2) == cm.mem_local * cm.numa_factor
        assert cm.memory_cost(32) == cm.memory_cost(2)  # capped at remote

    def test_send_cost_tracks_memory(self):
        cm = CostModel()
        assert cm.send_cost(2) > cm.send_cost(1)
        assert cm.send_cost(1) == cm.send_fixed + cm.send_mem_writes * cm.mem_local

    def test_barrier_cost_grows_linearly(self):
        cm = CostModel()
        assert (cm.barrier_cost(32) - cm.barrier_cost(16)
                == pytest.approx(16 * cm.barrier_per_thread))

    def test_binop_costs(self):
        cm = CostModel()
        assert cm.binop_cost("add", is_float=False) == cm.alu
        assert cm.binop_cost("add", is_float=True) == cm.fp
        assert cm.binop_cost("mul", is_float=False) == cm.mul
        assert cm.binop_cost("div", is_float=False) == cm.div
        assert cm.binop_cost("mod", is_float=False) == cm.div


class TestOutputSignature:
    def test_signature_structure(self, program):
        result = program.run_protected(2, setup=figure1_setup(2))
        status, streams, arrays = result.output_signature(("result",))
        assert status == "ok"
        assert len(streams) == 2
        assert arrays[0][0] == "result"

    def test_signature_differs_on_output_change(self, program):
        a = program.run_protected(2, setup=figure1_setup(2))
        def other_setup(mem):
            figure1_setup(2)(mem)
            mem.set_array("gp", [40] * 64)
        b = program.run_protected(2, setup=other_setup)
        assert (a.output_signature(("result",))
                != b.output_signature(("result",)))
