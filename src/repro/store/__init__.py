"""Durable artifact store + checkpointed, resumable campaigns.

Two halves, both rooted in the determinism the parallel engine already
guarantees (stable ``(base_seed, injection_index)`` fault plans and an
associative telemetry merge):

**Content-addressed artifact cache** (:class:`ArtifactStore`) — the
frontend → IR → analysis → instrument pipeline and golden runs are
memoized under SHA-256 keys of their inputs, so repeated campaigns,
experiments, and CLI invocations skip compilation entirely on a warm
cache.  ``repro-store ls/gc/verify`` manage a store root.

**Durable campaign journal** (:mod:`repro.store.journal`) —
``run_campaign(..., journal=..., resume=True)`` appends every completed
injection to a crash-safe JSONL file and, on resume, replays it,
validates the plan hash and golden fingerprint, and schedules only the
missing injection indices; the merged result is identical (stats,
records, event trace) to an uninterrupted run with the same seed.
"""

from repro.errors import (
    PlanMismatchError,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
)
from repro.store.artifacts import (
    STORE_ENV,
    ArtifactStore,
    GoldenSummary,
    StoreEntry,
)
from repro.store.hashing import (
    ARTIFACT_SCHEMA,
    JOURNAL_SCHEMA,
    golden_fingerprint,
    golden_key,
    lint_key,
    plan_fingerprint,
    program_key,
    program_key_of,
    setup_inputs,
    vuln_key,
)
from repro.store.journal import JournalReplay, JournalWriter, read_journal
from repro.store.runtime import default_store, open_store, set_default_store
from repro.store.serialize import (
    RECORD_SCHEMA,
    RESULT_SCHEMA,
    record_from_dict,
    record_to_dict,
    result_from_dict,
    result_to_dict,
    spec_from_dict,
    spec_to_dict,
    stats_from_dict,
    stats_to_dict,
)

__all__ = [
    "ARTIFACT_SCHEMA", "JOURNAL_SCHEMA", "RECORD_SCHEMA", "RESULT_SCHEMA",
    "STORE_ENV",
    "ArtifactStore", "GoldenSummary", "StoreEntry",
    "JournalReplay", "JournalWriter", "read_journal",
    "PlanMismatchError", "StoreCorruptError", "StoreError",
    "StoreSchemaError",
    "default_store", "open_store", "set_default_store",
    "golden_fingerprint", "golden_key", "lint_key", "plan_fingerprint",
    "program_key", "program_key_of", "setup_inputs", "vuln_key",
    "record_from_dict", "record_to_dict", "result_from_dict",
    "result_to_dict", "spec_from_dict", "spec_to_dict",
    "stats_from_dict", "stats_to_dict",
]
