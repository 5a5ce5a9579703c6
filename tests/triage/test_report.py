"""End-to-end triage reports: determinism under jobs=N, deduplication,
store caching, fingerprints, and the performance arm on a campaign."""

from __future__ import annotations

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.spec import CampaignSpec
from repro.store.artifacts import ArtifactStore
from repro.triage import (
    TRIAGE_SCHEMA,
    TriageReport,
    build_report,
    result_fingerprint,
    triage_fingerprint,
)
from repro.triage.report import _golden_steps

RADIX = dict(nthreads=4, injections=60, seed=7, fault="flip",
             telemetry=True)

#: Every thread takes the same decisions (the loop trip count is
#: tid-independent), so all four land in one similarity class — which
#: is what the performance arm needs to judge them against each other.
UNIFORM = """
global int id;
global lock l;
global int result[16];

func slave() {
  local int procid;
  lock(l);
  procid = id;
  id = id + 1;
  unlock(l);
  local int i;
  local int acc = 0;
  for (i = 0; i < 16; i = i + 1) {
    acc = acc + procid + i;
  }
  result[procid] = acc;
}
"""


@pytest.fixture(scope="module")
def radix_spec():
    return CampaignSpec.for_kernel("radix", **RADIX)


@pytest.fixture(scope="module")
def radix_result(radix_spec):
    return run_campaign(radix_spec, jobs=1, keep_records=True)


@pytest.fixture(scope="module")
def radix_report(radix_result, radix_spec):
    return radix_result.triage(spec=radix_spec)


def test_report_shape_and_summary(radix_report):
    data = radix_report.to_dict()
    assert data["schema"] == TRIAGE_SCHEMA
    assert data["campaign"]["program"] == "radix"
    summary = radix_report.summary
    assert summary["witnesses"] > 0
    assert summary["clusters"] <= summary["witnesses"]
    assert summary["detections"] <= summary["witnesses"]
    assert 0 < summary["dedup_ratio"] <= 1
    total = sum(c["members"] for c in radix_report.clusters)
    assert total == summary["witnesses"]


def test_clusters_deduplicate_witnesses(radix_report):
    # The whole point: far fewer failure modes than failing injections.
    summary = radix_report.summary
    assert summary["clusters"] < summary["witnesses"] / 2


def test_report_byte_identical_across_jobs(radix_spec, radix_report):
    sharded = run_campaign(radix_spec, jobs=4, keep_records=True)
    assert sharded.triage(spec=radix_spec).to_json() == radix_report.to_json()


def test_result_fingerprint_partition_independent(radix_result, radix_spec):
    sharded = run_campaign(radix_spec, jobs=4, keep_records=True)
    assert result_fingerprint(sharded) == result_fingerprint(radix_result)


def test_triage_fingerprint_tracks_parameters(radix_result):
    classes = [[0, 1, 2, 3]]
    base = triage_fingerprint(radix_result, classes, merge_distance=1)
    assert triage_fingerprint(radix_result, classes, merge_distance=1) == base
    assert triage_fingerprint(radix_result, classes, merge_distance=0) != base
    assert triage_fingerprint(radix_result, [[0], [1, 2, 3]], 1) != base


def test_store_caches_reports(tmp_path, radix_result, radix_spec):
    store = ArtifactStore(str(tmp_path / "store"))
    first = radix_result.triage(spec=radix_spec, store=store)
    assert store.counters.get("store.triage.miss") == 1
    assert store.counters.get("store.triage.hit") is None
    second = radix_result.triage(spec=radix_spec, store=store)
    assert store.counters.get("store.triage.hit") == 1
    assert first.to_json() == second.to_json()


def test_build_report_requires_records(radix_spec):
    bare = run_campaign(radix_spec.replace(injections=5),
                        keep_records=False)
    with pytest.raises(ValueError, match="keep_records"):
        build_report(bare)


def test_program_without_spec_rejected(radix_result, radix_spec):
    # Thread classes come from the spec's campaign knobs; a bare program
    # cannot say which schedule to observe.
    with pytest.raises(TypeError, match="spec"):
        radix_result.triage(program=radix_spec.resolve_program())


def test_from_dict_rejects_unknown_schema(radix_report):
    data = dict(radix_report.to_dict())
    data["schema"] = TRIAGE_SCHEMA + 1
    with pytest.raises(ValueError, match="schema"):
        TriageReport.from_dict(data)


def test_render_text_smoke(radix_report):
    text = radix_report.render_text()
    assert text.startswith("triage: radix branch-flip")
    assert "cluster(s)" in text
    assert "thread classes:" in text
    # One header pair per cluster.
    assert text.count("rep inj ") == len(radix_report.clusters)


def test_no_telemetry_degrades_gracefully():
    spec = CampaignSpec.for_kernel("radix", nthreads=4, injections=30,
                                   seed=7, fault="flip")
    result = run_campaign(spec, keep_records=True)
    report = result.triage(spec=spec)
    assert report.perf == {"available": False, "anomalies": 0}
    for cluster in report.clusters:
        for token in cluster["tokens"]:
            assert not token.startswith("checks=")
            assert not token.startswith("trace=")


def test_golden_steps_from_trace(radix_result):
    steps = _golden_steps(radix_result)
    assert steps is not None and steps > 0


# -- the performance arm on a real campaign ----------------------------


@pytest.fixture(scope="module")
def uniform_spec():
    return CampaignSpec.build(UNIFORM, name="uniform", nthreads=4,
                              injections=24, seed=5, telemetry=True)


@pytest.fixture(scope="module")
def uniform_result(uniform_spec):
    return run_campaign(uniform_spec, keep_records=True)


def test_uniform_program_is_one_class(uniform_result, uniform_spec):
    report = uniform_result.triage(spec=uniform_spec)
    assert report.thread_classes == [[0, 1, 2, 3]]
    assert report.perf["available"] is True


def test_clean_campaign_flags_no_perf_anomaly(uniform_result, uniform_spec):
    report = uniform_result.triage(spec=uniform_spec)
    assert report.summary["perf_anomalies"] == 0


def test_injected_sync_wait_skew_is_flagged(uniform_result):
    # Synthetically slow thread 2: inflate its sync_wait in every
    # thread_metrics event, as a contended lock would.
    skewed = [dict(event) for event in uniform_result.telemetry.events]
    for event in skewed:
        if event.get("kind") == "thread_metrics" and event["tid"] == 2:
            event["sync_wait"] = int(event["sync_wait"]) + 50000

    from repro.triage import perf_anomalies, thread_vectors
    perf = perf_anomalies(thread_vectors(skewed), [[0, 1, 2, 3]])
    assert perf["anomalies"] >= 1
    flagged = {(a["tid"], a["metric"])
               for entry in perf["classes"] for a in entry["anomalies"]}
    assert ("2", "sync_wait") not in flagged  # tids are ints, not strings
    assert (2, "sync_wait") in flagged
    assert all(tid == 2 for tid, _ in flagged)
