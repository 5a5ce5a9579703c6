"""Tests for stratified (prediction-guided) campaign planning."""

import json

import pytest

from repro import BlockWatch
from repro.analysis import AnalysisConfig
from repro.errors import PlanMismatchError
from repro.faults import (
    FaultType,
    allocate_stratified,
    plan_stratified,
    run_campaign,
    site_streams,
)
from repro.faults.campaign import _campaign_context
from repro.lint.vuln import analyze_program
from repro.runtime import ParallelProgram
from tests.conftest import FIGURE_1, figure1_setup
from tests.store.test_resume import assert_identical, truncate_journal

NTHREADS = 4
BUDGET = 12

SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)


@pytest.fixture(scope="module")
def program():
    # The sparse-check profile leaves some branches unchecked, so the
    # analyzer predicts a mix of classes instead of all-monitored.
    return ParallelProgram(FIGURE_1, "fig1sparse", analysis_config=SPARSE)


@pytest.fixture(scope="module")
def spec(program):
    return BlockWatch.from_program(program).spec(
        fault="flip", nthreads=NTHREADS, injections=BUDGET, seed=77,
        output_globals=("result",))


@pytest.fixture(scope="module")
def report(program):
    return analyze_program(program, output_globals=("result",))


class TestAllocate:
    def test_exact_proportional_split(self):
        assert allocate_stratified(10, {"a": 0.6, "b": 0.4}) \
            == {"a": 6, "b": 4}

    def test_largest_remainder_rounds_deterministically(self):
        out = allocate_stratified(10, {"a": 1.0, "b": 1.0, "c": 1.0})
        assert sum(out.values()) == 10
        assert out == {"a": 4, "b": 3, "c": 3}

    def test_every_stratum_gets_at_least_one(self):
        out = allocate_stratified(10, {"big": 0.99, "tiny": 0.01})
        assert out["tiny"] >= 1
        assert sum(out.values()) == 10

    def test_tight_budget_keeps_heaviest_strata(self):
        out = allocate_stratified(2, {"a": 0.5, "b": 0.3, "c": 0.2})
        assert sum(out.values()) == 2
        assert set(out) == {"a", "b"}

    def test_zero_weight_strata_dropped(self):
        assert "empty" not in allocate_stratified(5, {"a": 1.0, "empty": 0.0})

    def test_zero_budget(self):
        assert allocate_stratified(0, {"a": 1.0}) == {}


def golden_site_streams(program, spec, report):
    """The site streams of one golden run of ``spec``."""
    _golden, summary, _ctx = _campaign_context(
        spec, None, program, figure1_setup(NTHREADS), None)
    return site_streams(summary, program, report)


class TestPlanning:
    def test_streams_are_deterministic(self, program, spec, report):
        s1 = golden_site_streams(program, spec, report)
        s2 = golden_site_streams(program, spec, report)
        assert s1 == s2
        assert sorted(s1) == list(range(NTHREADS))
        known = {s.site_id for s in report.sites}
        assert all(site in known for stream in s1.values()
                   for site in stream)

    def test_plan_spends_exact_budget(self, program, spec, report):
        streams = golden_site_streams(program, spec, report)
        plan, meta = plan_stratified(report, streams,
                                     FaultType.BRANCH_FLIP, BUDGET, 77)
        assert len(plan) == BUDGET
        assert meta["budget"] == BUDGET
        assert sum(c["planned"] for c in meta["classes"].values()) == BUDGET
        assert sum(c["weight"] for c in meta["classes"].values()) \
            == pytest.approx(1.0)
        # every drawn site belongs to the stratum it was drawn for
        for planned in plan:
            site = streams[planned.spec.thread_id][
                planned.spec.branch_index - 1]
            assert report.class_of(site, meta["model"]) == planned.stratum

    def test_plan_is_deterministic(self, program, spec, report):
        streams = golden_site_streams(program, spec, report)
        a = plan_stratified(report, streams, FaultType.BRANCH_FLIP,
                            BUDGET, 77)
        b = plan_stratified(report, streams, FaultType.BRANCH_FLIP,
                            BUDGET, 77)
        assert a == b


class TestStratifiedCampaign:
    def run(self, program, spec, report, **kwargs):
        return run_campaign(spec.replace(plan="stratified"),
                            program=program, setup=figure1_setup(NTHREADS),
                            vuln_report=report, **kwargs)

    def test_meta_and_estimate_shape(self, program, spec, report):
        result = self.run(program, spec, report)
        assert result.stats.injections == BUDGET
        meta = result.stratified
        assert meta is not None
        est = meta["estimate"]
        assert est["injections"] == BUDGET
        assert 0.0 <= est["coverage_protected"] <= 1.0
        assert 0.0 <= est["coverage_original"] <= 1.0
        for cls in meta["classes"].values():
            assert sum(cls["outcomes"].values()) == cls["planned"]

    def test_every_planned_site_activates(self, program, spec, report):
        # Sites come from the golden run's streams with k <= n_j, so
        # the deterministic replay always reaches them.
        result = self.run(program, spec, report, keep_records=True)
        assert all(r.outcome.value != "not-activated"
                   for r in result.records)
        assert len(result.records) == BUDGET

    def test_parallel_matches_serial(self, program, spec, report):
        serial = self.run(program, spec, report)
        fanned = self.run(program, spec, report, jobs=2)
        assert serial.stats == fanned.stats
        assert serial.stratified == fanned.stratified

    def test_computes_report_when_not_given(self, program, spec):
        result = run_campaign(spec.replace(plan="stratified"),
                              program=program,
                              setup=figure1_setup(NTHREADS))
        assert result.stratified is not None

    def test_full_plan_leaves_stratified_unset(self, program, spec):
        result = run_campaign(spec, program=program,
                              setup=figure1_setup(NTHREADS))
        assert result.stratified is None


class TestRejections:
    def test_unknown_plan(self, spec):
        with pytest.raises(ValueError, match="plan"):
            spec.replace(plan="quota")


class TestStratifiedLikeFullSweep:
    """A stratified plan journals, resumes and traces like a full
    sweep: the same loop runs both."""

    @pytest.fixture(scope="class")
    def traced(self, program, spec, report):
        return self.run(program, spec, report, jobs=1, telemetry=True)

    def run(self, program, spec, report, jobs=None, **changes):
        return run_campaign(spec.replace(plan="stratified", **changes),
                            program=program, setup=figure1_setup(NTHREADS),
                            vuln_report=report, keep_records=True,
                            jobs=jobs)

    def test_cut_journal_resumes_to_the_uninterrupted_run(
            self, program, spec, report, traced, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self.run(program, spec, report, telemetry=True, journal=path)
        truncate_journal(path, keep_records=5)
        resumed = self.run(program, spec, report, telemetry=True,
                           journal=path, resume=True)
        assert_identical(resumed, traced)
        assert resumed.stratified == traced.stratified
        counters = resumed.telemetry.counters
        assert counters["store.journal.replayed"] == 5
        assert counters["store.journal.appended"] == BUDGET - 5

    def test_traced_campaign_is_partition_independent(
            self, program, spec, report, traced, tmp_path):
        from repro.cli import main
        fanned = self.run(program, spec, report, jobs=2, telemetry=True)
        assert_identical(fanned, traced)
        assert fanned.stratified == traced.stratified
        starts = [e for e in traced.trace_events
                  if e["kind"] == "injection_start"]
        assert [e["inj"] for e in starts] == list(range(BUDGET))
        path = str(tmp_path / "trace.jsonl")
        assert fanned.write_trace(path) == len(traced.trace_events)
        assert main(["check-trace", path]) == 0

    def test_untraced_run_matches_traced_census(self, program, spec,
                                                report, traced):
        plain = self.run(program, spec, report)
        assert plain.stats == traced.stats
        assert plain.stratified == traced.stratified

    def test_edited_journal_record_is_refused(self, program, spec, report,
                                              tmp_path):
        path = str(tmp_path / "journal.jsonl")
        self.run(program, spec, report, journal=path)
        lines = open(path).read().splitlines()
        record = json.loads(lines[3])
        record["spec"]["rng_seed"] += 1
        lines[3] = json.dumps(record, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:5]) + "\n")
        with pytest.raises(PlanMismatchError, match="rng_seed"):
            self.run(program, spec, report, journal=path, resume=True)

    def test_triage_command_takes_the_stratified_plan(self, capsys):
        from repro.cli import main
        assert main(["triage", "kernel:radix", "-t", "2", "-n", "4",
                     "--plan", "stratified"]) == 0
        assert "error" not in capsys.readouterr().err
