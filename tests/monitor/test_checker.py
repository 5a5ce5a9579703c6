"""Tests for the category-specific runtime checks."""

import pytest

from repro.analysis import Category
from repro.instrument.config import CheckedBranchInfo
from repro.monitor import CheckSite, InstanceEntry


def info(kind: str, **kwargs) -> CheckedBranchInfo:
    defaults = dict(static_id=1, function_name="f", block_name="b",
                    check_kind=kind, category=Category.SHARED)
    defaults.update(kwargs)
    return CheckedBranchInfo(**defaults)


def check(e: InstanceEntry):
    """Run the entry's check the way the monitor does: through its site."""
    return e.site.check(e)


def entry(kind: str, reports, **kwargs) -> InstanceEntry:
    """reports: list of (tid, values_tuple_or_None, taken)."""
    e = InstanceEntry(CheckSite(info(kind, **kwargs)))
    for tid, values, taken in reports:
        if values is not None:
            e.values[tid] = values
        e.outcomes[tid] = taken
    return e


class TestShared:
    def test_agreement_passes(self):
        e = entry("shared", [(0, (5,), True), (1, (5,), True), (2, (5,), True)])
        assert check(e) is None

    def test_outcome_divergence_detected(self):
        e = entry("shared", [(0, (5,), True), (1, (5,), False)])
        violation = check(e)
        assert violation is not None and violation.rule == "shared-outcome"

    def test_value_divergence_detected(self):
        e = entry("shared", [(0, (5,), True), (1, (6,), True)])
        violation = check(e)
        assert violation.rule == "shared-values"

    def test_single_reporter_vacuous(self):
        e = entry("shared", [(0, (5,), True)])
        assert check(e) is None

    def test_no_reporters_vacuous(self):
        assert check(entry("shared", [])) is None


class TestUniform:
    def test_same_outcomes_pass_despite_different_values(self):
        e = entry("uniform", [(0, None, True), (1, None, True)])
        assert check(e) is None

    def test_outcome_divergence_detected(self):
        e = entry("uniform", [(0, None, True), (1, None, False), (2, None, True)])
        violation = check(e)
        assert violation.rule == "uniform"
        assert 1 in violation.thread_ids or 0 in violation.thread_ids


class TestTidEq:
    def reports(self, takens):
        # basis (lhs, rhs): lhs = tid expression (varies), rhs = shared 0
        return [(tid, (tid, 0), taken) for tid, taken in enumerate(takens)]

    def test_one_taker_ok(self):
        e = entry("tid_eq", self.reports([True, False, False]),
                  eq_sense="eq", shared_operand_index=1)
        assert check(e) is None

    def test_zero_takers_ok(self):
        e = entry("tid_eq", self.reports([False, False, False]),
                  eq_sense="eq", shared_operand_index=1)
        assert check(e) is None

    def test_two_takers_detected(self):
        e = entry("tid_eq", self.reports([True, False, True]),
                  eq_sense="eq", shared_operand_index=1)
        violation = check(e)
        assert violation.rule == "tid-eq"
        assert violation.thread_ids == (0, 2)

    def test_ne_sense_counts_fallthroughs(self):
        e = entry("tid_eq", self.reports([False, True, False]),
                  eq_sense="ne", shared_operand_index=1)
        violation = check(e)
        assert violation is not None  # two threads fell through

    def test_shared_side_divergence_detected(self):
        reports = [(0, (0, 7), True), (1, (1, 8), False)]
        e = entry("tid_eq", reports, eq_sense="eq", shared_operand_index=1)
        violation = check(e)
        assert violation.rule == "tid-shared-operand"


class TestTidMonotone:
    def make(self, pairs, direction="low"):
        """pairs: list of (lhs_value, taken); rhs (bound) fixed at 10."""
        reports = [(tid, (lhs, 10), taken)
                   for tid, (lhs, taken) in enumerate(pairs)]
        return entry("tid_monotone", reports, monotone_dir=direction,
                     shared_operand_index=1)

    def test_legal_prefix_passes(self):
        # lhs < 10: takers are the low values
        e = self.make([(4, True), (8, True), (12, False), (16, False)])
        assert check(e) is None

    def test_block_violation_detected(self):
        # a non-taker sits between takers
        e = self.make([(4, True), (8, False), (12, True)])
        assert check(e).rule == "tid-monotone"

    def test_unordered_reporting_is_sorted_by_value(self):
        # report order scrambled; values determine legality
        e = self.make([(12, False), (4, True), (8, True)])
        assert check(e) is None

    def test_high_direction(self):
        e = self.make([(4, False), (8, False), (12, True)], direction="high")
        assert check(e) is None
        e = self.make([(4, True), (12, False)], direction="high")
        assert check(e) is not None

    def test_tie_disagreement_detected(self):
        e = self.make([(8, True), (8, False), (20, False)])
        assert check(e) is not None

    def test_logical_vs_physical_tid_order(self):
        """The tid-counter can hand logical ids out of physical order; the
        check must sort by reported value, not by reporting thread id."""
        reports = [(0, (12, 10), False), (1, (4, 10), True), (2, (8, 10), True)]
        e = entry("tid_monotone", reports, monotone_dir="low",
                  shared_operand_index=1)
        assert check(e) is None


class TestPartial:
    def test_groups_agree(self):
        e = entry("partial", [(0, (1,), True), (1, (-1,), False),
                              (2, (1,), True), (3, (-1,), False)])
        assert check(e) is None

    def test_group_disagreement_detected(self):
        e = entry("partial", [(0, (1,), True), (1, (1,), False)])
        violation = check(e)
        assert violation.rule == "partial"
        assert set(violation.thread_ids) == {0, 1}

    def test_singleton_groups_vacuous(self):
        e = entry("partial", [(0, (1,), True), (1, (2,), False)])
        assert check(e) is None

    def test_missing_condition_message_skipped(self):
        e = entry("partial", [(0, (1,), True), (1, None, False)])
        assert check(e) is None


class TestDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown check kind 'bogus'"):
            CheckSite(info("bogus"))

    def test_site_binds_kind_once(self):
        site = CheckSite(info("tid_eq"))
        assert site.info.check_kind == "tid_eq"
        assert not site.values_only
        assert site.check_metric == "monitor.check.tid_eq"
        assert site.violation_metric == "monitor.violation.tid_eq"

    def test_violation_str_mentions_branch(self):
        e = entry("shared", [(0, (5,), True), (1, (5,), False)])
        text = str(check(e))
        assert "shared" in text and "threads" in text
