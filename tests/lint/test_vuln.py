"""Tests for the static fault-vulnerability analyzer (repro.lint.vuln)."""

import json
import os
import subprocess
import sys

import pytest

from repro.frontend import compile_source
from repro.lint.vuln import (
    CLASS_MASKED,
    CLASS_MONITORED,
    CLASS_SDC,
    MODEL_CONDITION,
    MODEL_FLIP,
    analyze_program,
    analyze_vulnerability,
    branch_site_map,
    function_fingerprint,
    summarize_function,
)
from repro.runtime.program import ParallelProgram

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PRELUDE = """
global int n = 8;
global int g;
global int h;
global int out[64];
global int scratch[64];
"""


def module_of(body: str, extra: str = ""):
    """Compile an *uninstrumented* module: no branch is checked, so
    classifications depend purely on data/divergence reachability."""
    return compile_source(PRELUDE + extra + "\nfunc slave() { %s }" % body)


def classes_of(body: str, outputs=("out",), extra: str = ""):
    report = analyze_vulnerability(module_of(body, extra), entry="slave",
                                   output_globals=outputs)
    return report


def site_in(report, block_name: str):
    for site in report.sites:
        if site.block == block_name and site.function == "slave":
            return site
    raise AssertionError("no slave site in block %r (have %s)"
                         % (block_name, [s.block for s in report.sites]))


class TestClassification:
    def test_branch_guarding_output_store_is_sdc_prone(self):
        report = classes_of("if (g > 2) { out[0] = 1; } out[1] = 2;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_SDC
        assert site.predictions[MODEL_CONDITION] == CLASS_SDC

    def test_branch_guarding_dead_local_is_masked(self):
        report = classes_of(
            "local int dead; if (g > 2) { dead = dead + 1; } out[0] = 1;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_MASKED
        assert site.predictions[MODEL_CONDITION] == CLASS_MASKED

    def test_store_to_unread_global_is_masked(self):
        # h is not an output and nothing loads it: provably unobservable.
        report = classes_of("if (g > 2) { h = 7; } out[0] = 1;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_MASKED

    def test_store_read_into_output_is_sdc_prone(self):
        report = classes_of("if (g > 2) { h = 7; } out[0] = h;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_SDC

    def test_no_output_globals_means_every_store_observable(self):
        report = classes_of("if (g > 2) { h = 7; }", outputs=())
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_SDC

    def test_output_intrinsic_is_observable(self):
        report = classes_of("if (g > 2) { output(g); } out[0] = 1;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_SDC

    def test_constant_index_algebra_decouples_disjoint_elements(self):
        # Store to scratch[0], only scratch[1] is ever read: masked.
        report = classes_of(
            "if (g > 2) { scratch[0] = 5; } out[0] = scratch[1];")
        assert site_in(report, "entry").predictions[MODEL_FLIP] \
            == CLASS_MASKED

    def test_constant_index_algebra_couples_matching_elements(self):
        report = classes_of(
            "if (g > 2) { scratch[1] = 5; } out[0] = scratch[1];")
        assert site_in(report, "entry").predictions[MODEL_FLIP] == CLASS_SDC

    def test_variable_index_couples_to_everything(self):
        report = classes_of(
            "local int i; i = g; if (g > 2) { scratch[i] = 5; } "
            "out[0] = scratch[1];")
        assert site_in(report, "entry").predictions[MODEL_FLIP] == CLASS_SDC

    def test_instrumented_checked_branch_is_monitored(self):
        program = ParallelProgram(
            PRELUDE + "\nfunc slave() { local int i; "
            "for (i = 0; i < n; i = i + 1) { out[i] = i; } }", "t")
        report = analyze_program(program, output_globals=("out",))
        assert report.sites, "expected at least one site"
        assert all(s.predictions[MODEL_FLIP] == CLASS_MONITORED
                   for s in report.sites if s.checked)

    def test_condition_model_can_exceed_flip_model(self):
        # The corrupted condition register also feeds the output store:
        # flipping the (dead-arm) branch is masked, corrupting the
        # condition data is not.
        report = classes_of(
            "local int x; local int dead; x = g;"
            " if (x > 2) { dead = 1; } out[0] = x;")
        site = site_in(report, "entry")
        assert site.predictions[MODEL_FLIP] == CLASS_MASKED
        assert site.predictions[MODEL_CONDITION] == CLASS_SDC


class TestInterprocedural:
    def test_callee_store_makes_caller_branch_sdc_prone(self):
        extra = "func helper() { h = 7; }\n"
        report = classes_of("if (g > 2) { helper(); } out[0] = h;",
                            extra=extra)
        assert site_in(report, "entry").predictions[MODEL_FLIP] == CLASS_SDC
        assert "helper" in report.functions

    def test_callee_argument_flows_to_output(self):
        extra = "func helper(int v) { out[0] = v; }\n"
        report = classes_of(
            "local int x; x = 1; if (g > 2) { x = 5; } helper(x);",
            extra=extra)
        assert site_in(report, "entry").predictions[MODEL_FLIP] == CLASS_SDC

    def test_callee_return_flows_to_output(self):
        extra = "func helper(): int { return g; }\n"
        report = classes_of(
            "local int x; if (g > 2) { h = 3; } x = helper();"
            " out[0] = x;", extra=extra)
        # h never read: the branch itself is masked...
        assert site_in(report, "entry").predictions[MODEL_FLIP] \
            == CLASS_MASKED
        # ...but helper's internal site population is still analyzed.
        assert "helper" in report.functions

    def test_unreachable_function_not_analyzed(self):
        extra = "func unused() { out[0] = 1; }\n"
        report = classes_of("out[0] = g;", extra=extra)
        assert "unused" not in report.functions

    LATE_TARGET = ("global int fp;\n"
                   "func helper() { if (g > 2) { out[1] = 1; } }\n"
                   "func viaptr() { helper(); }\n"
                   "func init() { fp = &viaptr; }\n")

    def test_direct_callee_of_an_address_taken_function_is_analyzed(
            self, tmp_path):
        # init() takes viaptr's address but calls nothing indirectly;
        # slave does.  helper is reached only by viaptr's direct call,
        # so it is in the region the similarity analysis checks.
        report = classes_of("init(); callptr(fp);", extra=self.LATE_TARGET)
        assert "helper" in report.functions
        assert [site.function for site in report.sites] == ["helper"]

        from repro.store import open_store
        store = open_store(str(tmp_path))
        module = module_of("init(); callptr(fp);", self.LATE_TARGET)
        stored = analyze_vulnerability(module, entry="slave",
                                       output_globals=("out",), store=store)
        assert stored.as_dict() == report.as_dict()
        assert (store.counters.get("store.vuln.hit", 0)
                + store.counters.get("store.vuln.miss", 0)
                == len(report.functions))

    def test_kernel_function_sets_are_the_analysis_region(self):
        from repro.splash2 import all_kernels
        for spec in all_kernels():
            program = ParallelProgram(spec.source, spec.name)
            report = analyze_program(program)
            assert list(report.functions) == sorted(
                program.analysis.parallel_functions), spec.name


class TestDeterminismAndTable:
    def test_site_table_matches_branch_site_map(self):
        module = module_of(
            "local int i; for (i = 0; i < n; i = i + 1) "
            "{ if (i > 2) { out[i] = i; } }")
        report = analyze_vulnerability(module, entry="slave",
                                       output_globals=("out",))
        mapping = branch_site_map(module, report)
        assert sorted(mapping.values()) == [s.site_id for s in report.sites]

    def test_as_dict_round_trips_through_json(self):
        report = classes_of("if (g > 2) { out[0] = 1; }")
        payload = report.as_dict()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_fingerprint_ignores_global_instrumentation_ids(self):
        # Compiling the same function behind different siblings must not
        # change its fingerprint, even though send_cond static ids and
        # callsite ids are numbered module-globally.
        src_a = PRELUDE + ("\nfunc slave() { out[0] = g; }"
                           "\nfunc other() { if (g > 1) { h = 1; } }")
        src_b = PRELUDE + ("\nfunc slave() { out[0] = g; }"
                           "\nfunc other() { if (g > 1) { h = 2; }"
                           " if (h > 1) { h = 3; } }")
        fp_a = function_fingerprint(
            ParallelProgram(src_a, "a").protected.function_named("slave"))
        fp_b = function_fingerprint(
            ParallelProgram(src_b, "b").protected.function_named("slave"))
        assert fp_a == fp_b

    def test_report_bytes_identical_across_hash_seeds(self):
        outs = set()
        for hashseed in ("0", "1", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "vuln",
                 "kernel:radix", "--sparse-checks", "--format", "json"],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.add(proc.stdout)
        assert len(outs) == 1


class TestStoreCaching:
    def test_round_trip_hits_on_unchanged_functions(self, tmp_path):
        from repro.store import open_store
        store = open_store(str(tmp_path))
        program = ParallelProgram(
            PRELUDE + "\nfunc helper() { h = g; }"
            "\nfunc slave() { helper(); out[0] = h; }", "cachetest")
        first = analyze_program(program, output_globals=("out",),
                                store=store)
        assert store.counters.get("store.vuln.miss") == 2
        store.counters.clear()
        second = analyze_program(program, output_globals=("out",),
                                 store=store)
        assert store.counters.get("store.vuln.hit") == 2
        assert "store.vuln.miss" not in store.counters
        assert first.as_dict() == second.as_dict()

    def test_editing_one_function_recomputes_only_it(self, tmp_path):
        from repro.store import open_store
        store = open_store(str(tmp_path))
        base = PRELUDE + ("\nfunc helper() { h = g; }"
                          "\nfunc slave() { helper(); out[0] = h; }")
        edited = PRELUDE + ("\nfunc helper() { h = g + 1; }"
                            "\nfunc slave() { helper(); out[0] = h; }")
        analyze_program(ParallelProgram(base, "v1"),
                        output_globals=("out",), store=store)
        store.counters.clear()
        analyze_program(ParallelProgram(edited, "v2"),
                        output_globals=("out",), store=store)
        assert store.counters.get("store.vuln.hit") == 1   # slave
        assert store.counters.get("store.vuln.miss") == 1  # helper

    def test_summary_is_json_safe(self):
        module = module_of("if (g > 2) { out[0] = 1; }")
        summary = summarize_function(module.function_named("slave"))
        assert json.loads(json.dumps(summary, sort_keys=True)) == summary


class TestEntryHandling:
    def test_bad_entry_raises(self):
        module = module_of("out[0] = 1;")
        with pytest.raises(Exception):
            analyze_vulnerability(module, entry="nope")
