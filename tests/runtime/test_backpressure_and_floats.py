"""Corner-path tests: monitor backpressure (full queues block producers,
who must resume correctly) and floating-point guest programs."""

import pytest

from repro.analysis import AnalysisConfig
from repro.instrument import InstrumentConfig
from repro.monitor import MonitorMode
from repro.runtime import ParallelProgram, RunConfig

BRANCH_HEAVY = """
global int nprocs;
global int n = 40;
global int out[32];
global barrier bar;

func slave() {
  local int t = tid();
  local int acc = 0;
  local int i;
  for (i = 0; i < n; i = i + 1) {
    if (i %% 2 == 0) { acc = acc + 1; }
    if (i %% 3 == 0) { acc = acc + 2; }
  }
  out[t] = acc;
  barrier(bar);
}
""".replace("%%", "%")


class TestBackpressure:
    def test_tiny_queues_still_complete_and_check(self):
        program = ParallelProgram(
            BRANCH_HEAVY, "bp",
            instrument_config=InstrumentConfig(queue_capacity=3,
                                               monitor_batch=2))
        result = program.run(
            RunConfig(nthreads=4, monitor_mode=MonitorMode.FULL, quantum=64),
            setup=lambda m: m.set_scalar("nprocs", 4))
        assert result.status == "ok", result.failure_message
        assert not result.detected
        assert result.monitor.queue_pressure() > 0  # stalls really happened
        assert result.monitor.stats.instances_checked > 0

    def test_backpressure_result_equals_roomy_result(self):
        tiny = ParallelProgram(
            BRANCH_HEAVY, "bp.tiny",
            instrument_config=InstrumentConfig(queue_capacity=3,
                                               monitor_batch=2))
        roomy = ParallelProgram(BRANCH_HEAVY, "bp.roomy")
        setup = lambda m: m.set_scalar("nprocs", 4)  # noqa: E731
        a = tiny.run(RunConfig(nthreads=4), setup=setup)
        b = roomy.run(RunConfig(nthreads=4), setup=setup)
        assert a.memory.get_array("out") == b.memory.get_array("out")

    def test_stalls_cost_cycles(self):
        tiny = ParallelProgram(
            BRANCH_HEAVY, "bp.tiny2",
            instrument_config=InstrumentConfig(queue_capacity=3,
                                               monitor_batch=2))
        roomy = ParallelProgram(BRANCH_HEAVY, "bp.roomy2")
        setup = lambda m: m.set_scalar("nprocs", 4)  # noqa: E731
        slow = tiny.run(RunConfig(nthreads=4), setup=setup)
        fast = roomy.run(RunConfig(nthreads=4), setup=setup)
        assert slow.parallel_time > fast.parallel_time


FLOAT_KERNEL = """
global int nprocs;
global float scale = 1.5;
global float fdata[16];
global float fout[16];
global barrier bar;

func smooth(float a, float b) : float {
  if (a > b) { return (a + b) / 2.0; }
  return b * scale;
}

func slave() {
  local int t = tid();
  local int per = 16 / nprocs;
  local int i;
  for (i = t * per; i < t * per + per; i = i + 1) {
    local float v = fdata[i];
    if (v > 2.0) { v = v - 1.0; }
    fout[i] = smooth(v, scale);
  }
  barrier(bar);
}
"""


class TestFloatKernel:
    @pytest.fixture(scope="class")
    def program(self):
        return ParallelProgram(FLOAT_KERNEL, "floats")

    def setup_mem(self, nthreads):
        def apply(memory):
            memory.set_scalar("nprocs", nthreads)
            memory.set_array("fdata", [0.5 * i for i in range(16)])
        return apply

    def test_runs_clean(self, program):
        result = program.run_protected(4, setup=self.setup_mem(4))
        assert result.status == "ok"
        assert not result.detected
        out = result.memory.get_array("fout")
        assert all(isinstance(v, float) for v in out)

    def test_float_conditions_classified_and_checked(self, program):
        kinds = {info.check_kind
                 for info in program.metadata.branches.values()}
        assert "partial" in kinds or "shared" in kinds

    def test_division_by_zero_gives_inf_not_crash(self):
        source = """
        global float z;
        func slave() { output(1.0 / z); output(0.0 - 1.0 / z); }
        """
        program = ParallelProgram(source, "fdiv")
        result = program.run_protected(1)
        assert result.status == "ok"
        assert result.outputs[0][0] == float("inf")
        assert result.outputs[0][1] == float("-inf")


class TestEnvKnobs:
    def test_figures_size_settings(self, monkeypatch):
        from repro.experiments.runner import size_settings
        monkeypatch.setenv("REPRO_FAULTS", "123")
        monkeypatch.setenv("REPRO_THREADS", "2, 8")
        monkeypatch.setenv("REPRO_FP_RUNS", "7")
        assert size_settings() == {"injections": 123, "threads": (2, 8),
                                   "runs": 7}
        for name in ("REPRO_FAULTS", "REPRO_THREADS", "REPRO_FP_RUNS"):
            monkeypatch.delenv(name)
        # Unset: nothing, so each experiment keeps its own default.
        assert size_settings() == {"injections": None, "threads": None,
                                   "runs": None}

    def test_figures_thread_list_rejects_empty_and_nonpositive(self):
        from repro.experiments.runner import thread_list
        assert thread_list("4, 32,") == (4, 32)
        for text in (",", "", "0,4", "four"):
            with pytest.raises(ValueError):
                thread_list(text)
