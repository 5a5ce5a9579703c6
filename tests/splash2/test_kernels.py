"""Tests for the benchmark suite: every kernel compiles, runs, is
deterministic, divides its work, and matches its intended Table V traits."""

import pytest

from repro.analysis import Category, category_statistics
from repro.splash2 import KERNELS, PAPER_NAMES, all_kernels, kernel

KERNEL_NAMES = sorted(KERNELS)


class TestRegistry:
    def test_seven_programs(self):
        assert len(KERNELS) == 7
        assert set(PAPER_NAMES) == set(KERNELS)

    def test_lookup(self):
        assert kernel("radix").name == "radix"
        with pytest.raises(KeyError, match="unknown kernel"):
            kernel("nope")

    def test_program_per_opt_level(self):
        """The registry caches one program per opt level: an ``-O2``
        request after an ``-O0`` compile gets an ``-O2`` program."""
        spec = kernel("radix")
        plain = spec.program(opt_level=0)
        optimized = spec.program(opt_level=2)
        assert (plain.opt_level, optimized.opt_level) == (0, 2)
        assert spec.program(opt_level=2) is optimized
        assert spec.program(opt_level=0) is plain

    def test_program_default_opt_level_is_the_environment(self,
                                                          monkeypatch):
        spec = kernel("radix")
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")
        assert spec.program() is spec.program(opt_level=2)
        monkeypatch.delenv("REPRO_OPT_LEVEL")
        assert spec.program() is spec.program(opt_level=0)

    def test_campaign_spec_asks_the_registry_at_its_opt_level(self):
        from repro.faults import CampaignSpec
        spec = CampaignSpec.for_kernel("radix", opt_level=2)
        assert spec.resolve_program() is kernel("radix").program(opt_level=2)


@pytest.mark.parametrize("name", KERNEL_NAMES)
class TestEveryKernel:
    def test_runs_clean_at_4_threads(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        result = prog.run_protected(4, setup=spec.setup(4))
        assert result.status == "ok", result.failure_message
        assert not result.detected, result.violations[:2]

    def test_runs_clean_at_32_threads(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        result = prog.run_protected(32, setup=spec.setup(32))
        assert result.status == "ok", result.failure_message
        assert not result.detected, result.violations[:2]

    def test_deterministic_output(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        a = prog.run_protected(4, setup=spec.setup(4))
        b = prog.run_protected(4, setup=spec.setup(4))
        assert (a.output_signature(spec.output_globals)
                == b.output_signature(spec.output_globals))

    def test_schedule_independent_results(self, name, compiled_kernels):
        """Different seeds = different interleavings; the result arrays
        must not change (this is what lets campaigns classify SDCs)."""
        spec, prog = compiled_kernels[name]
        signatures = set()
        for seed in (0, 7, 99):
            run = prog.run_protected(4, seed=seed, setup=spec.setup(4))
            assert run.status == "ok"
            snap = run.memory.snapshot(spec.output_globals)
            signatures.add(tuple((k, tuple(v)) for k, v in sorted(snap.items())))
        assert len(signatures) == 1

    def test_baseline_and_protected_agree(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        base = prog.run_baseline(4, setup=spec.setup(4))
        prot = prog.run_protected(4, setup=spec.setup(4))
        assert (base.memory.snapshot(spec.output_globals)
                == prot.memory.snapshot(spec.output_globals))

    def test_some_branches_checked(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        assert prog.checked_branch_count() > 5

    def test_instrumentation_costs_time(self, name, compiled_kernels):
        spec, prog = compiled_kernels[name]
        overhead = prog.overhead(4, setup=spec.setup(4))
        assert overhead > 1.0


class TestTableVTraits:
    """The paper-distinguishing trait of each program must hold."""

    def stats(self, compiled_kernels, name):
        spec, prog = compiled_kernels[name]
        return category_statistics(name, prog.analysis)

    def test_ocean_contig_is_partial_dominated(self, compiled_kernels):
        stats = self.stats(compiled_kernels, "ocean_contig")
        assert stats.percent(Category.PARTIAL) > 60

    def test_fmm_and_raytrace_are_none_heavy(self, compiled_kernels):
        for name in ("fmm", "raytrace"):
            stats = self.stats(compiled_kernels, name)
            assert stats.percent(Category.NONE) > 25, name

    def test_noncontig_ocean_has_more_tid_than_contig(self, compiled_kernels):
        contig = self.stats(compiled_kernels, "ocean_contig")
        noncontig = self.stats(compiled_kernels, "ocean_noncontig")
        assert (noncontig.percent(Category.THREADID)
                > contig.percent(Category.THREADID))

    def test_similar_fraction_range(self, compiled_kernels):
        """Paper: 49%..98% across the suite, FMM/raytrace at the bottom."""
        fractions = {name: self.stats(compiled_kernels, name).similar_fraction
                     for name in KERNEL_NAMES}
        assert all(0.45 <= f <= 1.0 for f in fractions.values()), fractions
        bottom_two = sorted(fractions, key=fractions.get)[:2]
        assert set(bottom_two) == {"fmm", "raytrace"}

    def test_raytrace_has_deep_nesting_skips(self, compiled_kernels):
        spec, prog = compiled_kernels["raytrace"]
        skipped = [r for r in prog.analysis.all_branches()
                   if r.skip_reason == "nesting"]
        assert skipped, "raytrace must have branches beyond the cutoff"

    def test_raytrace_uses_function_pointers(self, compiled_kernels):
        spec, prog = compiled_kernels["raytrace"]
        from repro.ir import CallIndirect
        indirect = [i for f in prog.protected.function_table
                    for i in f.instructions() if isinstance(i, CallIndirect)]
        assert indirect

    def test_radix_actually_sorts(self, compiled_kernels):
        spec, prog = compiled_kernels["radix"]
        run = prog.run_protected(4, setup=spec.setup(4))
        keys = run.memory.get_array("keys")
        assert keys == sorted(keys)

    def test_fft_applies_a_permutation_plus_mixing(self, compiled_kernels):
        spec, prog = compiled_kernels["fft"]
        run = prog.run_protected(4, setup=spec.setup(4))
        # the data must have been transformed away from the input
        data = run.memory.get_array("data_re")
        assert any(v != 0 for v in data)

    def test_tid_counter_kernels_recognized(self, compiled_kernels):
        for name in ("ocean_contig", "fmm", "raytrace"):
            spec, prog = compiled_kernels[name]
            assert prog.analysis.tid_counters == {"id"}, name

    def test_tid_intrinsic_kernels(self, compiled_kernels):
        for name in ("fft", "water_nsquared", "ocean_noncontig"):
            spec, prog = compiled_kernels[name]
            assert prog.analysis.tid_counters == set(), name
