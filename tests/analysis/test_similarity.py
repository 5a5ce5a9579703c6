"""Tests for the similarity-inference fixpoint — the paper's core algorithm.

Covers the Figure 1 and Figure 2 examples, the phi rules, the multiple-
instances policy, mutability handling, the optimizations, and the check-
kind resolution (including the affine `uniform` refinement).
"""

import pytest

from repro.analysis import (
    AnalysisConfig,
    CHECK_PARTIAL,
    CHECK_SHARED,
    CHECK_TID_EQ,
    CHECK_TID_MONOTONE,
    CHECK_UNIFORM,
    Category,
    analyze_module,
)
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir import CallGraph

PRELUDE = """
global int id;
global int nprocs;
global int n = 64;
global int data[64];
global int out[64];
global lock l;
global barrier b;
"""


def analyze(body: str, extra_funcs: str = "", config: AnalysisConfig = None,
            prelude: str = PRELUDE):
    source = prelude + extra_funcs + "\nfunc slave() { %s }" % body
    module = compile_source(source)
    result = analyze_module(module, config or AnalysisConfig())
    return result


def branch_map(result, function="slave"):
    """block name -> BranchRecord for one function."""
    return {rec.branch.parent.name: rec
            for rec in result.per_function[function].branches}


class TestFigure1:
    """The paper's running example: one branch per category."""

    def test_all_four_categories(self):
        result = analyze("""
          local int private = 0;
          local int procid;
          lock(l);
          procid = id;
          id = id + 1;
          unlock(l);
          if (procid == 0) { output(42); }
          local int i;
          for (i = 0; i <= n - 1; i = i + 1) { private = private + 1; }
          if (data[procid] > n - 1) { private = 1; } else { private = -1; }
          if (private > 0) { output(procid); }
          barrier(b);
        """)
        categories = [rec.category for rec in
                      result.per_function["slave"].branches]
        assert categories == [Category.THREADID, Category.SHARED,
                              Category.NONE, Category.PARTIAL]

    def test_tid_counter_recognized(self):
        result = analyze("""
          local int procid;
          lock(l); procid = id; id = id + 1; unlock(l);
          if (procid == 0) { output(1); }
        """)
        assert result.tid_counters == {"id"}

    def test_fixpoint_converges_quickly(self):
        result = analyze("local int i; for (i = 0; i < n; i = i + 1) { output(i); }")
        assert result.iterations < 10  # the paper's empirical bound


class TestThreadIdSources:
    def test_tid_intrinsic(self):
        result = analyze("local int t = tid(); if (t == 0) { output(1); }")
        record = branch_map(result)["entry"]
        assert record.category is Category.THREADID
        assert record.check_kind == CHECK_TID_EQ
        assert record.eq_sense == "eq"

    def test_ne_sense(self):
        result = analyze("local int t = tid(); if (t != 0) { output(1); }")
        assert branch_map(result)["entry"].eq_sense == "ne"

    def test_counter_without_lock_not_a_tid_source(self):
        result = analyze("""
          local int procid = id;
          id = id + 1;
          if (procid == 0) { output(1); }
        """)
        assert result.tid_counters == set()
        # mutable global read outside a lock -> none
        assert branch_map(result)["entry"].category is Category.NONE


class TestSharedAndMutability:
    def test_immutable_global_is_shared(self):
        result = analyze("if (n > 10) { output(1); }")
        assert branch_map(result)["entry"].category is Category.SHARED

    def test_written_scalar_becomes_none(self):
        result = analyze("n = n + 1; if (n > 10) { output(1); }")
        assert branch_map(result)["entry"].category is Category.NONE

    def test_readonly_array_shared_index_is_shared(self):
        result = analyze("if (data[3] > 0) { output(1); }")
        assert branch_map(result)["entry"].category is Category.SHARED

    def test_readonly_array_tid_index_is_none(self):
        result = analyze(
            "local int t = tid(); if (data[t] > 0) { output(1); }")
        assert branch_map(result)["entry"].category is Category.NONE

    def test_written_array_is_none_even_with_shared_index(self):
        result = analyze(
            "data[0] = 5; if (data[3] > 0) { output(1); }")
        assert branch_map(result)["entry"].category is Category.NONE


class TestPhiRules:
    def test_ifelse_join_of_two_shared_is_partial(self):
        result = analyze("""
          local int x;
          if (n > 10) { x = 1; } else { x = 2; }
          if (x > 0) { output(1); }
        """)
        assert branch_map(result)["if.end"].category is Category.PARTIAL

    def test_loop_counter_stays_shared(self):
        result = analyze(
            "local int i; for (i = 0; i < n; i = i + 1) { output(i); }")
        assert branch_map(result)["loop.header"].category is Category.SHARED

    def test_tid_shared_mix_at_join_demoted(self):
        result = analyze("""
          local int x = 0;
          if (n > 10) { x = tid(); } else { x = 5; }
          if (x > 0) { output(1); }
        """)
        assert branch_map(result)["if.end"].category is Category.NONE


class TestMultipleInstances:
    FOO = """
    func foo(int arg) {
      local int i;
      for (i = 0; i < 5; i = i + 1) {
        if (i < arg) { output(i); }
      }
    }
    """

    def test_shared_args_keep_param_shared(self):
        result = analyze("foo(1); foo(2);", extra_funcs=self.FOO)
        for record in result.per_function["foo"].branches:
            assert record.category is Category.SHARED

    def test_mixed_arg_categories_demote(self):
        result = analyze("foo(1); foo(tid());", extra_funcs=self.FOO)
        inner = branch_map(result, "foo")["loop.body"]
        assert inner.category is Category.NONE

    def test_partial_and_shared_args_give_partial(self):
        body = """
          local int x;
          if (n > 10) { x = 1; } else { x = 2; }
          foo(x); foo(3);
        """
        result = analyze(body, extra_funcs=self.FOO)
        inner = branch_map(result, "foo")["loop.body"]
        assert inner.category is Category.PARTIAL

    def test_address_taken_params_are_none(self):
        extra = """
        global int fp;
        func shape(int v) : int {
          if (v > 0) { return 1; }
          return 0;
        }
        """
        result = analyze("fp = &shape; local int r = callptr(fp, n); output(r);",
                         extra_funcs=extra)
        inner = branch_map(result, "shape")["entry"]
        assert inner.category is Category.NONE

    def test_return_value_category(self):
        extra = """
        func pick() : int {
          if (n > 10) { return 1; }
          return 2;
        }
        """
        result = analyze("local int x = pick(); if (x > 0) { output(1); }",
                         extra_funcs=extra)
        # two distinct shared returns -> partial at the call
        assert branch_map(result)["entry"].category is Category.PARTIAL


class TestCheckKinds:
    def test_shared_check(self):
        result = analyze("if (n > 10) { output(1); }")
        assert branch_map(result)["entry"].check_kind == CHECK_SHARED

    def test_uniform_for_partitioned_loop(self):
        result = analyze("""
          local int t = tid();
          local int per = n / nprocs;
          local int first = t * per;
          local int i;
          for (i = first; i < first + per; i = i + 1) { out[i] = i; }
        """)
        record = branch_map(result)["loop.header"]
        assert record.category is Category.THREADID
        assert record.check_kind == CHECK_UNIFORM

    def test_monotone_for_ordered_tid_compare(self):
        result = analyze(
            "local int t = tid(); if (t < n / 2) { output(1); }")
        record = branch_map(result)["entry"]
        assert record.check_kind == CHECK_TID_MONOTONE
        assert record.monotone_dir == "low"

    def test_monotone_direction_flips_with_operator(self):
        result = analyze(
            "local int t = tid(); if (t > n / 2) { output(1); }")
        assert branch_map(result)["entry"].monotone_dir == "high"

    def test_eq_without_injectivity_falls_back_to_partial(self):
        # t % 2 is not provably injective in tid
        result = analyze(
            "local int t = tid(); if (t % 2 == 0) { output(1); }")
        record = branch_map(result)["entry"]
        assert record.category is Category.THREADID
        assert record.check_kind == CHECK_PARTIAL

    def test_affine_eq_is_tid_eq(self):
        result = analyze(
            "local int t = tid(); if (t * 3 + 1 == n) { output(1); }")
        assert branch_map(result)["entry"].check_kind == CHECK_TID_EQ


class TestOptimizations:
    def test_none_promoted_to_partial_by_default(self):
        result = analyze(
            "local int t = tid(); if (data[t] > 0) { output(1); }")
        record = branch_map(result)["entry"]
        assert record.category is Category.NONE
        assert record.check_kind == CHECK_PARTIAL
        assert record.promoted

    def test_promotion_can_be_disabled(self):
        result = analyze(
            "local int t = tid(); if (data[t] > 0) { output(1); }",
            config=AnalysisConfig(promote_none_to_partial=False))
        record = branch_map(result)["entry"]
        assert record.check_kind is None
        assert record.skip_reason == "none_category"

    def test_critical_section_branches_not_checked(self):
        result = analyze("""
          lock(l);
          if (n > 10) { output(1); }
          unlock(l);
        """)
        record = branch_map(result)["entry"]
        assert record.check_kind is None
        assert record.skip_reason == "critical_section"

    def test_critical_section_elision_can_be_disabled(self):
        result = analyze(
            "lock(l); if (n > 10) { output(1); } unlock(l);",
            config=AnalysisConfig(elide_critical_sections=False))
        assert branch_map(result)["entry"].check_kind == CHECK_SHARED

    def test_redundant_check_elision(self):
        body = """
          local int mode;
          if (n > 10) { mode = 1; } else { mode = 2; }
          if (mode > 0) { output(1); }
          if (mode < 3) { output(2); }
          if (mode * 2 > 1) { output(3); }
        """
        default = analyze(body)
        elided = analyze(body, config=AnalysisConfig(
            elide_redundant_checks=True))
        default_checked = len(default.checked_branches())
        elided_checked = len(elided.checked_branches())
        # the three mode-only branches collapse to one check
        assert default_checked - elided_checked == 2
        redundant = [r for r in elided.all_branches()
                     if r.skip_reason == "redundant"]
        assert len(redundant) == 2

    def test_elision_respects_loop_context(self):
        body = """
          local int mode;
          if (n > 10) { mode = 1; } else { mode = 2; }
          if (mode > 0) { output(1); }
          local int i;
          for (i = 0; i < 4; i = i + 1) {
            if (mode > 1) { output(2); }
          }
        """
        elided = analyze(body, config=AnalysisConfig(
            elide_redundant_checks=True))
        # different loop chains: both mode branches stay checked
        redundant = [r for r in elided.all_branches()
                     if r.skip_reason == "redundant"]
        assert redundant == []

    def test_nesting_cutoff(self):
        decls = "".join("local int i%d;" % d for d in range(7))
        loops = "".join(
            "for (i%d = 0; i%d < 2; i%d = i%d + 1) {" % ((d,) * 4)
            for d in range(7))
        body = decls + loops + "if (n > 10) { output(1); }" + "}" * 7
        result = analyze(body, config=AnalysisConfig(max_loop_nesting=6))
        records = result.per_function["slave"].branches
        deep = [r for r in records if r.nesting_depth == 7]
        assert deep and all(r.skip_reason == "nesting" for r in deep)
        shallow = [r for r in records if 0 < r.nesting_depth <= 6]
        assert shallow and all(r.check_kind is not None for r in shallow)


class TestParallelRegion:
    def test_reachable_functions(self):
        source = PRELUDE + """
        func helper() { output(1); }
        func unused() { output(2); }
        func slave() { helper(); }
        """
        module = compile_source(source)
        assert CallGraph(module, "slave").parallel == {"slave", "helper"}

    def test_address_taken_included(self):
        source = PRELUDE + """
        global int fp;
        func pointee() { output(1); }
        func slave() { fp = &pointee; }
        """
        module = compile_source(source)
        assert "pointee" in CallGraph(module, "slave").parallel

    def test_missing_entry_raises(self):
        module = compile_source(PRELUDE + "func slave() { }")
        with pytest.raises(AnalysisError):
            CallGraph(module, "nonexistent")
