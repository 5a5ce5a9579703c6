"""Building, fingerprinting, and rendering triage reports.

:func:`build_report` is the pure core: records + thread classes in, a
:class:`TriageReport` out, touching only seed-deterministic data (the
record fields, the event stream, the golden run's thread classes) so
the same campaign yields byte-identical reports under any ``jobs=N``.
:func:`triage_campaign` is the convenience wrapper that reads the
thread classes the golden run recorded and caches the finished report
as a ``triage`` artifact in the store, keyed by
:func:`triage_fingerprint` — a hash of the campaign's deterministic
outcome rows, the classes, and the clustering parameters.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.faults.outcomes import Outcome
from repro.store.hashing import canonical_json
from repro.triage.perf import perf_anomalies, thread_vectors
from repro.triage.similarity import class_ranks, observe_thread_classes
from repro.triage.witness import (
    canonical_witness,
    cluster_witnesses,
    normalize_detail,
    witness_hash,
)

#: Version of the report payload (artifact kind ``triage``).
TRIAGE_SCHEMA = 1

#: Outcomes that produce a witness worth clustering.  NOT_ACTIVATED
#: and MASKED runs carry no failure mode.
WITNESS_OUTCOMES = frozenset(
    (Outcome.DETECTED, Outcome.CRASH, Outcome.HANG, Outcome.SDC))


class TriageReport:
    """One campaign's clustered failure modes and performance flags.

    A thin, JSON-rooted object: ``data`` is the canonical payload
    (what the store persists and :mod:`repro.serve` ships), and the
    accessors/renderers read from it.  ``to_json`` is the byte-identity
    surface — canonical JSON, one trailing newline.
    """

    __slots__ = ("data",)

    def __init__(self, data: dict):
        self.data = data

    @classmethod
    def from_dict(cls, data: dict) -> "TriageReport":
        if data.get("schema") != TRIAGE_SCHEMA:
            raise ValueError(
                "triage report uses schema %r; this build reads schema %d"
                % (data.get("schema"), TRIAGE_SCHEMA))
        return cls(data)

    def to_dict(self) -> dict:
        return self.data

    def to_json(self) -> str:
        return canonical_json(self.data) + "\n"

    @property
    def summary(self) -> dict:
        return self.data["summary"]

    @property
    def clusters(self) -> List[dict]:
        return self.data["clusters"]

    @property
    def perf(self) -> dict:
        return self.data["perf"]

    @property
    def thread_classes(self) -> List[List[int]]:
        return self.data["thread_classes"]

    def render_text(self) -> str:
        campaign = self.data["campaign"]
        summary = self.summary
        lines = [
            "triage: %s %s, %d thread(s), %d injection(s)"
            % (campaign["program"], campaign["fault"],
               campaign["nthreads"], campaign["injections"]),
            "witnesses: %d (%d detection(s)) -> %d cluster(s); "
            "perf anomalies: %d"
            % (summary["witnesses"], summary["detections"],
               summary["clusters"], summary["perf_anomalies"]),
            "thread classes: " + ("; ".join(
                "[%d] %s" % (rank, ",".join(str(t) for t in tids))
                for rank, tids in enumerate(self.thread_classes))
                or "(none)"),
        ]
        for cluster in self.clusters:
            rep = cluster["representative"]
            lines.append(
                "  #%-3d %5dx (%5.1f%%)  %-9s %s"
                % (cluster["rank"], cluster["members"],
                   100.0 * cluster["share"], cluster["outcome"],
                   cluster["site"]))
            lines.append(
                "       rep inj %d: %s (thread %s, class %s)"
                % (rep["injection"], rep["detail"] or "(no detail)",
                   rep["thread"], rep["class"]))
        perf = self.perf
        if not perf.get("available"):
            lines.append("perf: no telemetry (run the campaign with "
                         "telemetry to enable the performance arm)")
        else:
            for entry in perf["classes"]:
                if entry.get("skipped"):
                    lines.append("perf: class %d (%d thread(s)): skipped "
                                 "(%s)" % (entry["rank"], entry["members"],
                                           entry["skipped"]))
                    continue
                if not entry["anomalies"]:
                    lines.append("perf: class %d (%d thread(s)): clean"
                                 % (entry["rank"], entry["members"]))
                for anomaly in entry["anomalies"]:
                    lines.append(
                        "perf: class %d: thread %d %s=%.0f diverges from "
                        "median %.0f (threshold %.0f)"
                        % (entry["rank"], anomaly["tid"], anomaly["metric"],
                           anomaly["value"], anomaly["median"],
                           anomaly["threshold"]))
        return "\n".join(lines)


def result_fingerprint(result) -> str:
    """Hash of a campaign result's deterministic content: stats plus
    per-record outcome rows (telemetry excluded — its timers carry
    wall-clock; the rows are identical under any partitioning)."""
    from repro.store.serialize import stats_to_dict
    rows = []
    for index, record in enumerate(result.records):
        if record is None:
            continue
        spec = record.spec
        rows.append([index, spec.fault_type.value, spec.thread_id,
                     spec.branch_index, record.outcome.value,
                     record.baseline_outcome.value,
                     bool(record.flipped_branch),
                     normalize_detail(record.detail)])
    payload = {"stats": stats_to_dict(result.stats), "records": rows}
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def triage_fingerprint(result, classes, merge_distance: int = 1) -> str:
    """Identity of one triage computation: the result content, the
    thread classes it was judged under, and the clustering knobs."""
    payload = {
        "schema": TRIAGE_SCHEMA,
        "result": result_fingerprint(result),
        "classes": [list(cls) for cls in classes],
        "merge_distance": int(merge_distance),
        "telemetry": result.telemetry is not None,
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def _golden_steps(result) -> Optional[int]:
    if result.golden is not None:
        return int(result.golden.steps)
    if result.telemetry is not None:
        for event in result.telemetry.events:
            if event.get("kind") == "run_end" and event.get("inj") == -1:
                return int(event.get("steps", 0))
    return None


def build_report(result, classes=None, merge_distance: int = 1,
                 perf_params: Optional[dict] = None) -> TriageReport:
    """Cluster one campaign's witnesses and flag performance outliers.

    ``result`` must carry its records (``keep_records=True``); the
    performance arm additionally needs the campaign to have run with
    telemetry (it degrades to ``available: false`` otherwise).
    """
    records = result.records
    if not records:
        raise ValueError(
            "campaign result carries no records; run the campaign with "
            "keep_records=True (the default for repro inject and "
            "repro.serve) to triage it")
    if classes is None:
        classes = observe_thread_classes(result)
    ranks = class_ranks(classes)
    golden_steps = _golden_steps(result)

    witnesses = []
    detections = 0
    for index, record in enumerate(records):
        if record is None:
            continue
        if record.outcome is Outcome.DETECTED:
            detections += 1
        if record.outcome not in WITNESS_OUTCOMES:
            continue
        tokens = canonical_witness(record, ranks=ranks,
                                   golden_steps=golden_steps)
        witnesses.append({
            "index": index,
            "record": record,
            "tokens": tokens,
            "hash": witness_hash(tokens),
            "rank": ranks.get(record.spec.thread_id),
        })
    clusters = cluster_witnesses(witnesses, merge_distance=merge_distance)

    perf: dict = {"available": False, "anomalies": 0}
    events = result.trace_events
    if events:
        vectors = thread_vectors(events)
        if vectors:
            perf = perf_anomalies(vectors, classes, **(perf_params or {}))

    stats = result.stats
    data = {
        "schema": TRIAGE_SCHEMA,
        "campaign": {
            "program": stats.program,
            "fault": stats.fault_type,
            "nthreads": stats.nthreads,
            "injections": stats.injections,
        },
        "summary": {
            "witnesses": len(witnesses),
            "detections": detections,
            "clusters": len(clusters),
            "perf_anomalies": perf.get("anomalies", 0),
            "dedup_ratio": (round(len(clusters) / len(witnesses), 4)
                            if witnesses else None),
        },
        "merge_distance": int(merge_distance),
        "thread_classes": [list(cls) for cls in classes],
        "clusters": clusters,
        "perf": perf,
    }
    return TriageReport(data)


def triage_campaign(result, spec=None, program=None, store=None,
                    merge_distance: int = 1) -> TriageReport:
    """Triage one campaign result under the thread classes its golden
    run recorded, caching the report.

    ``spec`` (and with it ``program``), when given, must describe the
    campaign: a mismatched fault model, thread count or program name is
    an error.  A ``store`` memoizes the finished report as a
    content-addressed ``triage`` artifact (``store.triage.hit`` /
    ``store.triage.miss``).
    """
    if program is not None and spec is None:
        raise TypeError("triage_campaign(program=...) needs the "
                        "campaign's spec=")
    if spec is not None:
        stats = result.stats
        if (spec.fault_type.value != stats.fault_type
                or spec.nthreads != stats.nthreads
                or (program is not None and program.name != stats.program)):
            raise ValueError(
                "spec (%s, %d threads) does not describe this campaign "
                "(%s on %s, %d threads)"
                % (spec.fault_type.value, spec.nthreads, stats.fault_type,
                   stats.program, stats.nthreads))
    classes = observe_thread_classes(result)

    def compute() -> dict:
        return build_report(result, classes=classes,
                            merge_distance=merge_distance).to_dict()

    if store is not None:
        from repro.store.hashing import triage_key
        key = triage_key(triage_fingerprint(result, classes, merge_distance),
                         TRIAGE_SCHEMA)
        return TriageReport.from_dict(store.get_triage(key, compute))
    return TriageReport(compute())
