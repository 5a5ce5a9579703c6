"""The redesigned result-object API: MonitorMode, inject(), and the
removed pre-spec call shapes."""

from __future__ import annotations

import pytest

import repro
from repro import BlockWatch, MonitorMode
from repro.faults import CampaignResult, CampaignStats, FaultType
from repro.monitor import MODE_FEED, MODE_FULL

from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def bw():
    return BlockWatch(FIGURE_1, name="figure1")


@pytest.fixture(scope="module")
def small_result(bw):
    return bw.inject(bw.spec(fault="flip", nthreads=4, injections=4,
                             output_globals=("result",), seed=2012),
                     setup=figure1_setup(4))


def test_monitor_mode_enum_and_strings():
    assert MonitorMode.coerce("full") is MonitorMode.FULL
    assert MonitorMode.coerce("feed") is MonitorMode.FEED
    assert MonitorMode.coerce(MonitorMode.FEED) is MonitorMode.FEED
    # str subclass: legacy comparisons and the old constants keep working.
    assert MonitorMode.FULL == "full"
    assert MODE_FULL is MonitorMode.FULL
    assert MODE_FEED is MonitorMode.FEED
    with pytest.raises(ValueError, match="unknown monitor mode"):
        MonitorMode.coerce("bogus")


def test_run_accepts_enum_and_string(bw):
    for mode in (MonitorMode.FEED, "feed"):
        result = bw.run(4, setup=figure1_setup(4), monitor_mode=mode)
        assert result.status == "ok"


def test_inject_returns_full_campaign_result(small_result):
    assert isinstance(small_result, CampaignResult)
    assert isinstance(small_result.stats, CampaignStats)
    assert small_result.stats.injections == 4
    # Telemetry defaults off.
    assert small_result.telemetry is None


def test_stats_live_only_on_the_stats_field(small_result):
    with pytest.raises(AttributeError):
        small_result.coverage_protected
    with pytest.raises(AttributeError):
        small_result.definitely_not_an_attribute
    assert 0.0 <= small_result.stats.coverage_protected <= 1.0


def test_inject_takes_only_a_spec(bw):
    with pytest.raises(TypeError, match="CampaignSpec"):
        bw.inject(FaultType.BRANCH_FLIP)
    with pytest.raises(TypeError):
        bw.inject(bw.spec(fault="flip"), nthreads=4)


def test_public_exports():
    for name in ("CampaignResult", "CampaignStats", "MonitorMode",
                 "Telemetry", "TelemetrySnapshot"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
