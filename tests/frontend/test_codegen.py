"""Tests for MiniC → SSA lowering (the Braun construction and friends).

Every compile goes through the IR verifier (compile_source runs it), so
these tests focus on the *shape* of the SSA produced and on semantic
error reporting.
"""

import pytest

from repro.errors import CodegenError
from repro.frontend import compile_source
from repro.ir import (
    Branch,
    Cast,
    Cmp,
    LoadGlobal,
    Phi,
    StoreGlobal,
)


def compile_body(stmts: str, extra: str = ""):
    source = "global int g;\nglobal int arr[8];\n%s\nfunc f() { %s }" % (extra, stmts)
    return compile_source(source).function_named("f")


def phis_of(function):
    return [i for i in function.instructions() if isinstance(i, Phi)]


class TestStraightLine:
    def test_local_reads_fold_to_values(self):
        f = compile_body("local int x = 1; local int y = x + 2; output(y);")
        # No loads/stores for locals: pure SSA.
        assert not any(isinstance(i, (LoadGlobal, StoreGlobal))
                       for i in f.instructions())

    def test_global_access_uses_memory_ops(self):
        f = compile_body("g = g + 1;")
        opcodes = [i.opcode for i in f.instructions()]
        assert "load" in opcodes and "store" in opcodes

    def test_array_round_trip(self):
        f = compile_body("arr[1] = arr[0] + 1;")
        opcodes = [i.opcode for i in f.instructions()]
        assert "loadelem" in opcodes and "storeelem" in opcodes


class TestSSAConstruction:
    def test_if_else_join_creates_phi(self):
        f = compile_body(
            "local int x = 0; if (g > 0) { x = 1; } else { x = 2; } output(x);")
        phis = phis_of(f)
        assert len(phis) == 1
        values = sorted(v.value for v in phis[0].operands)
        assert values == [1, 2]

    def test_one_sided_if_creates_phi(self):
        f = compile_body(
            "local int x = 0; if (g > 0) { x = 1; } output(x);")
        assert len(phis_of(f)) == 1

    def test_unused_join_has_no_phi(self):
        f = compile_body(
            "local int x = 0; if (g > 0) { x = 1; } else { x = 2; }")
        assert phis_of(f) == []

    def test_loop_counter_phi(self):
        f = compile_body(
            "local int i; for (i = 0; i < 10; i = i + 1) { output(i); }")
        header = f.block_named("loop.header")
        header_phis = header.phis()
        assert len(header_phis) == 1
        assert {b.name for b in header_phis[0].blocks} == {
            "loop.preheader", "loop.latch"}

    def test_loop_has_dedicated_preheader(self):
        f = compile_body("local int i; while (i < 3) { i = i + 1; }")
        preheader = f.block_named("loop.preheader")
        assert len(preheader.instructions) == 1
        assert preheader.instructions[0].opcode == "jmp"

    def test_nested_loop_accumulator(self):
        f = compile_body(
            "local int s = 0; local int i; local int j;"
            "for (i = 0; i < 3; i = i + 1) {"
            "  for (j = 0; j < 3; j = j + 1) { s = s + 1; }"
            "} output(s);")
        # s gets a phi in each loop header
        assert len(phis_of(f)) >= 3  # i, j, and s twice (may fold)

    def test_break_merges_values_at_exit(self):
        f = compile_body(
            "local int x = 0;"
            "while (true) { x = 1; if (g > 0) { break; } x = 2; }"
            "output(x);")
        exit_block = f.block_named("loop.exit")
        assert len(exit_block.phis()) <= 1  # x at the break join
        # function must still verify (done inside compile) and terminate

    def test_dead_code_after_return_pruned(self):
        f = compile_body("return; output(1);")
        assert all(i.opcode != "output" for i in f.instructions())


class TestTypes:
    def test_int_to_float_promotion(self):
        source = "global float fg;\nfunc f() { fg = 1 + 0.5; }"
        compile_source(source)

    def test_implicit_narrowing_rejected(self):
        with pytest.raises(CodegenError, match="float->int"):
            compile_body("local int x = 1.5;")

    def test_explicit_cast_allowed(self):
        f = compile_body("local int x = int(1.5 * 2.0); output(x);")
        assert any(isinstance(i, Cast) for i in f.instructions())

    def test_condition_from_int_gets_nonzero_test(self):
        f = compile_body("if (g) { output(1); }")
        cmps = [i for i in f.instructions() if isinstance(i, Cmp)]
        assert len(cmps) == 1 and cmps[0].op == "ne"


class TestCalls:
    def test_forward_reference(self):
        source = """
        func caller() : int { return callee(1); }
        func callee(int x) : int { return x + 1; }
        """
        module = compile_source(source)
        assert module.function_named("caller") is not None

    def test_arity_mismatch_rejected(self):
        source = "func a() { b(1, 2); }\nfunc b(int x) { }"
        with pytest.raises(CodegenError, match="arguments"):
            compile_source(source)

    def test_unknown_function_rejected(self):
        with pytest.raises(CodegenError, match="unknown function"):
            compile_body("nosuch();")

    def test_recursion_compiles(self):
        source = """
        func fact(int n) : int {
          if (n <= 1) { return 1; }
          return n * fact(n - 1);
        }
        """
        compile_source(source)

    def test_funcref_and_callptr(self):
        source = """
        global int fp;
        func target(int x) : int { return x; }
        func f() { fp = &target; local int r = callptr(fp, 3); output(r); }
        """
        compile_source(source)


class TestSemanticErrors:
    def test_duplicate_local(self):
        with pytest.raises(CodegenError, match="duplicate local"):
            compile_body("local int x; local int x;")

    def test_local_shadowing_global_rejected(self):
        with pytest.raises(CodegenError, match="shadows"):
            compile_body("local int g;")

    def test_undeclared_name(self):
        with pytest.raises(CodegenError, match="undeclared"):
            compile_body("output(nope);")

    def test_assign_to_undeclared(self):
        with pytest.raises(CodegenError, match="undeclared"):
            compile_body("nope = 1;")

    def test_break_outside_loop(self):
        with pytest.raises(CodegenError, match="break"):
            compile_body("break;")

    def test_whole_array_assignment_rejected(self):
        with pytest.raises(CodegenError):
            compile_body("arr = 1;")

    def test_array_without_index_rejected(self):
        with pytest.raises(CodegenError, match="index"):
            compile_body("output(arr);")

    def test_lock_on_non_lock_rejected(self):
        with pytest.raises(CodegenError, match="not a lock"):
            compile_body("lock(g);")

    def test_void_return_with_value_rejected(self):
        with pytest.raises(CodegenError, match="void"):
            compile_body("return 1;")


class TestExecutionSemantics:
    """End-to-end: compile tiny programs, run on one thread, check outputs."""

    def run_output(self, body, extra=""):
        from repro.runtime.machine import Machine
        source = ("global int g;\nglobal int arr[8];\n%s\n"
                  "func slave() { %s }" % (extra, body))
        module = compile_source(source)
        machine = Machine(module, 1, entry="slave")
        result = machine.run()
        assert result.status == "ok", result.failure_message
        return result.outputs[0]

    def test_arithmetic(self):
        assert self.run_output("output(2 + 3 * 4 - 1);") == [13]
        assert self.run_output("output(7 / 2); output(7 %% 2);"
                               .replace("%%", "%")) == [3, 1]

    def test_loop_sum(self):
        body = ("local int s = 0; local int i;"
                "for (i = 1; i <= 10; i = i + 1) { s = s + i; } output(s);")
        assert self.run_output(body) == [55]

    def test_break_continue(self):
        body = ("local int s = 0; local int i;"
                "for (i = 0; i < 10; i = i + 1) {"
                "  if (i == 5) { break; }"
                "  if (i - (i / 2) * 2 == 0) { continue; }"
                "  s = s + i; } output(s);")
        # odd numbers below 5: 1 + 3
        assert self.run_output(body) == [4]

    def test_while_with_condition_update(self):
        body = ("local int x = 16; local int n = 0;"
                "while (x > 1) { x = x / 2; n = n + 1; } output(n);")
        assert self.run_output(body) == [4]

    def test_recursion_fibonacci(self):
        extra = ("func fib(int n) : int {"
                 "  if (n < 2) { return n; }"
                 "  return fib(n - 1) + fib(n - 2); }")
        assert self.run_output("output(fib(10));", extra) == [55]

    def test_logical_operators(self):
        body = ("local int a = 3;"
                "if (a > 1 && a < 5) { output(1); }"
                "if (a < 1 || a == 3) { output(2); }"
                "if (!(a == 4)) { output(3); }")
        assert self.run_output(body) == [1, 2, 3]

    def test_min_max_builtins(self):
        assert self.run_output("output(min(3, 7)); output(max(3, 7));") == [3, 7]

    def test_shift_and_bitwise(self):
        assert self.run_output(
            "output(1 << 4); output(255 >> 4); output(12 & 10);"
            "output(12 | 10); output(12 ^ 10);") == [16, 15, 8, 14, 6]
