"""Campaign triage: witness clustering and performance-anomaly flags.

A 10k-injection campaign produces thousands of raw detection records
and (with telemetry) hundreds of thousands of trace events — far too
much for a human.  This package turns a
:class:`repro.faults.CampaignResult` into a ranked, deduplicated
:class:`TriageReport`:

* **Witness clustering** (:mod:`repro.triage.witness`): every failing
  injection is canonicalized — thread ids become similarity-class
  ranks, seeds/injection indices/bit positions are dropped, absolute
  step counts become deltas against the golden run — hashed, bucketed,
  and near-duplicate buckets merged by bounded edit distance, so a
  campaign reports a handful of distinct failure modes instead of a
  flood of records.
* **Performance anomalies** (:mod:`repro.triage.perf`): the same
  static-similarity principle the BLOCKWATCH monitor uses for
  correctness flags *performance* outliers — per-thread
  cycle/sync-wait/queue-stall vectors are compared inside each
  similarity class and threads diverging from their class centroid are
  reported.

Reports are deterministic: built only from seed-deterministic records
and events (never wall-clock timers) and rendered through canonical
JSON, so the same campaign produces byte-identical reports under any
``jobs=N`` partitioning.  Entry points: ``CampaignResult.triage()``,
:func:`triage_campaign`, the ``repro triage`` command, and the ``triage``
op of :mod:`repro.serve`.
"""

from repro.triage.perf import PERF_METRICS, perf_anomalies, thread_vectors
from repro.triage.report import (
    TRIAGE_SCHEMA,
    TriageReport,
    build_report,
    result_fingerprint,
    triage_campaign,
    triage_fingerprint,
)
from repro.triage.similarity import class_ranks, observe_thread_classes
from repro.triage.witness import (
    canonical_site,
    canonical_witness,
    cluster_witnesses,
    normalize_detail,
    token_distance,
    witness_hash,
)

__all__ = [
    "PERF_METRICS", "TRIAGE_SCHEMA", "TriageReport", "build_report",
    "canonical_site", "canonical_witness", "class_ranks",
    "cluster_witnesses", "normalize_detail",
    "observe_thread_classes", "perf_anomalies", "result_fingerprint",
    "thread_vectors", "token_distance", "triage_campaign",
    "triage_fingerprint", "witness_hash",
]
