"""The golden run is a campaign's only fault-free observation: its
branch streams plan stratified campaigns, on a golden-cache hit as on
a miss, and name the same static sites a separate observation run of
the golden schedule does."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import pytest

from repro.analysis import AnalysisConfig
from repro.faults import CampaignSpec, run_campaign
from repro.faults.campaign import (_campaign_context, _plan_campaign,
                                   site_streams)
from repro.lint.vuln import analyze_program, branch_site_map
from repro.monitor import MonitorMode
from repro.runtime.machine import FaultHook
from repro.runtime.program import RunConfig
from repro.splash2 import all_kernels, kernel
from repro.store.artifacts import ArtifactStore

NTHREADS = 4


class SiteStreamHook(FaultHook):
    """Reference observer: the static site id of every dynamic branch,
    per thread, from a hooked run of the golden schedule."""

    def __init__(self, site_map) -> None:
        self._site_map = dict(site_map)
        self.streams: Dict[int, List[int]] = {}

    def before_branch(self, machine, thread, branch, frame, taken):
        self.streams.setdefault(thread.tid, []).append(
            self._site_map[branch])
        return taken


@pytest.mark.parametrize("spec", all_kernels(), ids=lambda spec: spec.name)
def test_golden_site_streams_match_a_reference_observation(
        spec, compiled_kernels):
    _, program = compiled_kernels[spec.name]
    campaign = CampaignSpec.for_kernel(spec.name, nthreads=NTHREADS)
    config = campaign.campaign_config()
    setup = spec.setup(NTHREADS)
    report = analyze_program(program, output_globals=config.output_globals)
    hook = SiteStreamHook(branch_site_map(program.protected, report))
    observed = program.run(
        RunConfig(nthreads=NTHREADS, seed=config.seed,
                  monitor_mode=MonitorMode.FULL, quantum=config.quantum),
        setup=setup, fault_hook=hook)
    assert observed.status == "ok" and not observed.detected
    _golden, summary, _ctx = _campaign_context(campaign, None, program,
                                               setup, None)
    assert site_streams(summary, program, report) == hook.streams


SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)

#: sha256 of each plan's JSON ``[[seed, thread, k, stratum], ...]`` rows
#: and planner summary, as planned from a separate recording run of the
#: golden schedule.  The sparse-check profile leaves branches unchecked,
#: so its plans draw from more than one stratum.
PINNED_PLANS = {
    ("radix", "flip", False):
        "4cf5f85fa5f7f11b812b5fee4afd1d3e210e646fd38cb5f8c34aa1b0dbbc9a1a",
    ("radix", "flip", True):
        "015d7e3b1e23fb77fd897a0931fbf441f02543aa6b8199f5c066d1bfb07ce52b",
    ("water_nsquared", "condition", False):
        "ceba47437191e7e616e351338afe6552a442cdba23d49e45d06f792fbcbde2ab",
    ("water_nsquared", "condition", True):
        "9f15c80db36b2e230f39991b6e774766c2186d37ba5b4970d526ef2d33683223",
}


@pytest.mark.parametrize("name,fault,sparse", sorted(PINNED_PLANS))
def test_stratified_plans_are_pinned(name, fault, sparse):
    spec = CampaignSpec.for_kernel(name, fault=fault, nthreads=NTHREADS,
                                   injections=30, seed=2012,
                                   plan="stratified")
    program = kernel(name).program(analysis_config=SPARSE) if sparse else None
    _golden, summary, ctx = _campaign_context(spec, None, program, None,
                                              None)
    plan, meta = _plan_campaign(spec, ctx, summary, None, None)
    rows = [[p.seed, p.spec.thread_id, p.spec.branch_index, p.stratum]
            for p in plan]
    assert len(rows) == 30
    digest = hashlib.sha256(
        json.dumps([rows, meta], sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_PLANS[(name, fault, sparse)]


def test_a_golden_cache_hit_plans_like_the_miss(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    spec = CampaignSpec.for_kernel("radix", nthreads=NTHREADS,
                                   injections=6, seed=7, plan="stratified")
    miss = run_campaign(spec, keep_records=True, jobs=1, store=store)
    hit = run_campaign(spec, keep_records=True, jobs=1, store=store)
    assert (store.counters["store.golden.miss"],
            store.counters["store.golden.hit"]) == (1, 1)
    assert hit.golden is None
    assert [r.spec for r in hit.records] == [r.spec for r in miss.records]
    assert hit.stratified == miss.stratified


def test_a_stratified_campaign_makes_one_fault_free_run(fault_free_runs):
    spec = CampaignSpec.for_kernel("radix", nthreads=NTHREADS,
                                   injections=4, seed=7, plan="stratified")
    result = run_campaign(spec, jobs=1, store=None)
    assert result.stats.injections == 4
    assert len(fault_free_runs) == 1
