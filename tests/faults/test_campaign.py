"""Tests for campaign orchestration and outcome/coverage accounting."""

import pytest

from repro import BlockWatch
from repro.faults import CampaignStats, Outcome, run_false_positive_trial
from repro.faults.campaign import quantize_signature
from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def bw():
    return BlockWatch(FIGURE_1, name="fig1")


@pytest.fixture(scope="module")
def program(bw):
    return bw.program


class TestCampaignStats:
    def make(self, outcomes_and_baselines):
        stats = CampaignStats(program="p", fault_type="t", nthreads=4)
        for outcome, baseline in outcomes_and_baselines:
            stats.note(outcome, baseline)
        return stats

    def test_coverage_formula(self):
        stats = self.make([
            (Outcome.DETECTED, Outcome.SDC),
            (Outcome.DETECTED, Outcome.SDC),
            (Outcome.SDC, Outcome.SDC),
            (Outcome.MASKED, Outcome.MASKED),
        ])
        assert stats.activated == 4
        assert stats.coverage_protected == pytest.approx(0.75)
        assert stats.coverage_original == pytest.approx(0.25)
        assert stats.detection_gain == pytest.approx(0.5)

    def test_not_activated_excluded(self):
        stats = self.make([
            (Outcome.NOT_ACTIVATED, Outcome.NOT_ACTIVATED),
            (Outcome.SDC, Outcome.SDC),
        ])
        assert stats.activated == 1
        assert stats.coverage_protected == 0.0

    def test_no_activations_is_full_coverage(self):
        stats = self.make([(Outcome.NOT_ACTIVATED, Outcome.NOT_ACTIVATED)])
        assert stats.coverage_protected == 1.0

    def test_crash_hang_count_as_covered(self):
        stats = self.make([
            (Outcome.CRASH, Outcome.CRASH),
            (Outcome.HANG, Outcome.HANG),
        ])
        assert stats.coverage_protected == 1.0


class TestQuantization:
    def test_zero_bits_is_identity(self):
        sig = ("ok", ((0, (1, 2)),), (("a", (100,)),))
        assert quantize_signature(sig, 0) == sig

    def test_ints_quantized(self):
        sig = (("a", (100, 101, 130)),)
        q = quantize_signature(sig, 5)
        assert q == (("a", (3, 3, 4)),)

    def test_bools_untouched(self):
        assert quantize_signature((True, False), 4) == (True, False)

    def test_floats_coarsened(self):
        (value,) = quantize_signature((33.0,), 5)
        assert value == 1  # round(33/32)


def fig1_spec(bw, fault="flip", **knobs):
    return bw.spec(fault=fault, nthreads=4, output_globals=("result",),
                   **knobs)


class TestCampaigns:
    def test_flip_campaign_statistics(self, bw):
        campaign = bw.inject(fig1_spec(bw, injections=25, seed=3),
                             setup=figure1_setup(4), keep_records=True)
        stats = campaign.stats
        assert stats.injections == 25
        assert stats.activated == 25  # deterministic schedules: all sites hit
        assert sum(stats.counts.values()) == 25
        assert stats.coverage_protected >= stats.coverage_original
        assert stats.counts.get(Outcome.DETECTED, 0) > 0
        assert len(campaign.records) == 25

    def test_condition_campaign_has_masked_outcomes(self, bw):
        campaign = bw.inject(fig1_spec(bw, "condition", injections=30,
                                       seed=3),
                             setup=figure1_setup(4))
        assert campaign.stats.counts.get(Outcome.MASKED, 0) > 0

    def test_campaign_reproducible(self, bw):
        spec = fig1_spec(bw, injections=15, seed=11)
        a = bw.inject(spec, setup=figure1_setup(4)).stats
        b = bw.inject(spec, setup=figure1_setup(4)).stats
        assert a.counts == b.counts

    def test_false_positive_trial(self, program):
        fp = run_false_positive_trial(program, 4, 15, 321,
                                      setup=figure1_setup(4))
        assert fp == 0

    def test_summary_row_shape(self, bw):
        stats = bw.inject(fig1_spec(bw, injections=5, seed=1),
                          setup=figure1_setup(4)).stats
        row = stats.summary_row()
        assert len(row) == len(CampaignStats.SUMMARY_HEADERS)
