"""The headline acceptance property: a 1000-injection radix campaign
collapses to fewer than 10% as many clusters as raw detections.

The full-size run is slow-marked (deselect with ``-m 'not slow'``); a
smaller always-on variant guards the same property at lower confidence.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.spec import CampaignSpec


def collapse_ratio(injections, **overrides):
    spec = CampaignSpec.for_kernel(
        "radix", nthreads=4, injections=injections, seed=11, fault="flip",
        **overrides)
    result = run_campaign(spec, jobs=4, keep_records=True)
    report = result.triage(spec=spec)
    summary = report.summary
    assert summary["witnesses"] > 0
    return summary, report


def test_small_campaign_collapses():
    summary, _ = collapse_ratio(120)
    assert summary["clusters"] < summary["witnesses"] / 2


@pytest.mark.slow
def test_thousand_injection_campaign_collapses_below_ten_percent():
    # -O2 reaches the same witnesses and the same clusters as -O0 (the
    # canonical form only reads seed-deterministic record fields), at a
    # fraction of the time.
    summary, report = collapse_ratio(1000, opt_level=2)
    assert summary["witnesses"] >= 500
    assert summary["clusters"] < 0.10 * summary["witnesses"]
    assert summary["dedup_ratio"] < 0.10
    # Every cluster still accounts for its members.
    assert sum(c["members"] for c in report.clusters) == summary["witnesses"]
