"""Tests for the simulated machine: semantics, scheduling, sync, crashes."""

import pytest

from repro.frontend import compile_source
from repro.runtime import CostModel, Machine

PRELUDE = """
global int n = 8;
global int counter;
global int out[64];
global lock l;
global barrier b;
"""


def run(body: str, nthreads: int = 1, extra: str = "", seed: int = 0,
        max_steps: int = 500_000, prelude: str = PRELUDE, verify: bool = True):
    module = compile_source(prelude + extra + "\nfunc slave() { %s }" % body,
                            verify=verify)
    machine = Machine(module, nthreads, entry="slave", seed=seed,
                      max_steps=max_steps)
    return machine.run()


class TestSingleThreadSemantics:
    def test_wrapping_arithmetic(self):
        result = run("local int big = 1 << 62; output(big + big + big + big);")
        assert result.outputs[0] == [0]

    def test_division_by_zero_crashes(self):
        result = run("local int z = 0; output(1 / z);")
        assert result.status == "crash"
        assert "zero" in result.failure_message

    def test_out_of_bounds_crashes(self):
        result = run("out[100] = 1;")
        assert result.status == "crash"
        assert "out-of-bounds" in result.failure_message

    def test_negative_index_crashes(self):
        result = run("local int i = 0 - 1; output(out[i]);")
        assert result.status == "crash"

    def test_infinite_loop_hangs(self):
        result = run("while (true) { counter = counter + 1; }",
                     max_steps=10_000)
        assert result.status == "hang"

    def test_float_arithmetic(self):
        result = run("output(float(3) / 2.0); output(int(7.9));")
        assert result.outputs[0] == [1.5, 7]

    def test_stack_overflow_crashes(self):
        extra = "func rec(int n2) : int { return rec(n2 + 1); }"
        result = run("output(rec(0));", extra=extra)
        assert result.status == "crash"
        assert "stack" in result.failure_message


class TestFunctionPointers:
    EXTRA = """
    global int fp;
    func twice(int x) : int { return x * 2; }
    """

    def test_indirect_call(self):
        result = run("fp = &twice; output(callptr(fp, 21));", extra=self.EXTRA)
        assert result.outputs[0] == [42]

    def test_wild_pointer_crashes(self):
        result = run("fp = 999; output(callptr(fp, 21));", extra=self.EXTRA)
        assert result.status == "crash"
        assert "indirect" in result.failure_message

    def test_arity_mismatch_crashes(self):
        result = run("fp = &twice; output(callptr(fp, 1, 2));", extra=self.EXTRA)
        assert result.status == "crash"


class TestMultiThread:
    def test_all_threads_run(self):
        result = run("out[tid()] = tid() + 1;", nthreads=4)
        assert result.status == "ok"
        assert result.memory.get_array("out")[:4] == [1, 2, 3, 4]

    def test_lock_serializes_counter(self):
        body = """
        local int i;
        for (i = 0; i < 10; i = i + 1) {
          lock(l);
          counter = counter + 1;
          unlock(l);
        }
        """
        result = run(body, nthreads=8)
        assert result.status == "ok"
        assert result.memory.get_scalar("counter") == 80

    def test_tid_counter_assigns_unique_ids(self):
        body = """
        local int procid;
        lock(l);
        procid = counter;
        counter = counter + 1;
        unlock(l);
        out[procid] = 1;
        """
        result = run(body, nthreads=8)
        assert result.memory.get_array("out")[:8] == [1] * 8

    def test_unlock_without_lock_crashes(self):
        # The verifier statically rejects this protocol; compile
        # unverified to exercise the interpreter's own runtime defense.
        result = run("unlock(l);", nthreads=2, verify=False)
        assert result.status == "crash"

    def test_barrier_synchronizes(self):
        body = """
        local int t = tid();
        out[t] = t + 1;
        barrier(b);
        local int s = 0;
        local int i;
        for (i = 0; i < 4; i = i + 1) { s = s + out[i]; }
        out[t + 8] = s;
        """
        result = run(body, nthreads=4)
        # every thread sees all pre-barrier writes
        assert result.memory.get_array("out")[8:12] == [10] * 4

    def test_missing_barrier_participant_deadlocks(self):
        body = "if (tid() > 0) { barrier(b); }"
        result = run(body, nthreads=4)
        assert result.status in ("deadlock", "hang")

    def test_determinism_same_seed(self):
        body = """
        lock(l); counter = counter + 1; out[tid()] = counter; unlock(l);
        """
        r1 = run(body, nthreads=4, seed=9)
        r2 = run(body, nthreads=4, seed=9)
        assert r1.memory.get_array("out") == r2.memory.get_array("out")
        assert r1.parallel_time == r2.parallel_time

    def test_different_seeds_may_reorder_lock_winners(self):
        body = """
        lock(l); counter = counter + 1; out[tid()] = counter; unlock(l);
        """
        orders = {tuple(run(body, nthreads=4, seed=s).memory.get_array("out")[:4])
                  for s in range(12)}
        assert len(orders) > 1  # the schedule jitter explores interleavings


class TestTiming:
    def test_cycles_accumulate(self):
        result = run("local int i; for (i = 0; i < 50; i = i + 1) { counter = i; }")
        assert result.parallel_time > 0
        assert result.cycles[0] == result.parallel_time

    def test_barrier_aligns_clocks(self):
        body = """
        local int i;
        if (tid() == 0) {
          for (i = 0; i < 200; i = i + 1) { counter = i; }
        }
        barrier(b);
        """
        result = run(body, nthreads=2)
        assert result.status == "ok"
        assert abs(result.cycles[0] - result.cycles[1]) < 1e-6

    def test_numa_costmodel_applied(self):
        slow = CostModel(mem_local=50.0)
        module = compile_source(PRELUDE + "\nfunc slave() { counter = n; }")
        fast_run = Machine(module, 1, entry="slave").run()
        slow_run = Machine(module, 1, entry="slave", cost_model=slow).run()
        assert slow_run.parallel_time > fast_run.parallel_time

    def test_sync_census(self):
        body = "lock(l); unlock(l); barrier(b);"
        result = run(body, nthreads=4)
        assert result.lock_acquisitions == 4
        assert result.barrier_episodes == 1

    def test_branch_counts_tracked(self):
        result = run("local int i; for (i = 0; i < 5; i = i + 1) { counter = i; }")
        assert result.branch_counts[0] == 6  # 5 taken + 1 exit
