"""Tests for race-aware refinement of the similarity analysis."""

from repro.analysis import Category
from repro.analysis.similarity import AnalysisConfig, analyze_module
from repro.frontend import compile_source
from repro.runtime import ParallelProgram
from repro.splash2 import kernel


def racy_source() -> str:
    with open("examples/racy/missing_lock.mc", "r", encoding="utf-8") as f:
        return f.read()


def branch_records(result):
    return [r for r in result.all_branches() if r.function.name == "slave"]


class TestRefinementConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.racy_locations == ()
        assert config.race_refinement is True

    def test_racy_condition_demotes_branch(self):
        module = compile_source(racy_source())
        refined = analyze_module(
            module, AnalysisConfig(racy_locations=("counter",)))
        demoted = [r for r in branch_records(refined)
                   if r.skip_reason == "racy_condition"]
        assert demoted
        assert all(r.category is Category.NONE for r in demoted)
        assert all(r.check_kind is None for r in demoted)

    def test_without_racy_locations_branch_is_checked(self):
        module = compile_source(racy_source())
        plain = analyze_module(module, AnalysisConfig())
        assert not [r for r in branch_records(plain)
                    if r.skip_reason == "racy_condition"]

    def test_refinement_flag_gates_demotion(self):
        module = compile_source(racy_source())
        off = analyze_module(module, AnalysisConfig(
            racy_locations=("counter",), race_refinement=False))
        assert not [r for r in branch_records(off)
                    if r.skip_reason == "racy_condition"]

    def test_unrelated_racy_location_is_ignored(self):
        module = compile_source(racy_source())
        refined = analyze_module(
            module, AnalysisConfig(racy_locations=("elsewhere",)))
        assert not [r for r in branch_records(refined)
                    if r.skip_reason == "racy_condition"]


class TestProgramWiring:
    def test_program_attaches_lint_report(self):
        program = ParallelProgram(racy_source(), name="racy")
        assert program.lint_report is not None
        assert program.lint_report.racy_locations == ("counter",)

    def test_program_demotes_racy_branches(self):
        program = ParallelProgram(racy_source(), name="racy")
        demoted = [r for r in program.analysis.all_branches()
                   if r.skip_reason == "racy_condition"]
        assert demoted
        # the baseline analysis agrees, so golden comparisons stay aligned
        baseline_analysis = analyze_module(program.baseline,
                                           program.analysis.config)
        baseline = [r for r in baseline_analysis.all_branches()
                    if r.skip_reason == "racy_condition"]
        assert len(baseline) == len(demoted)

    def test_refinement_off_keeps_branches(self):
        program = ParallelProgram(
            racy_source(), name="racy",
            analysis_config=AnalysisConfig(race_refinement=False))
        assert program.lint_report is None
        assert not [r for r in program.analysis.all_branches()
                    if r.skip_reason == "racy_condition"]

    def test_caller_config_is_not_mutated(self):
        config = AnalysisConfig()
        ParallelProgram(racy_source(), name="racy", analysis_config=config)
        assert config.racy_locations == ()


class TestKernelsUnchanged:
    def test_radix_classification_identical_with_refinement(self):
        spec = kernel("radix")
        module = compile_source(spec.source, "radix")
        assert spec.entry == "slave"  # the analyzer's default entry
        on = analyze_module(module, AnalysisConfig())
        off = analyze_module(module, AnalysisConfig(race_refinement=False))
        key_on = [(r.branch.vid, r.category, r.check_kind, r.skip_reason)
                  for r in on.all_branches()]
        key_off = [(r.branch.vid, r.category, r.check_kind, r.skip_reason)
                   for r in off.all_branches()]
        assert key_on == key_off

    def test_radix_program_lints_clean(self):
        spec = kernel("radix")
        program = ParallelProgram(spec.source, name="radix",
                                  entry=spec.entry)
        assert program.lint_report is not None
        assert program.lint_report.errors == []
