"""Versioned (de)serialization of campaign records for the journal.

Everything the journal stores round-trips through plain JSON types so a
journal is inspectable with standard tools (``jq``, the telemetry
validator) and survives Python upgrades.  The contract that makes
resumed campaigns *identical* to uninterrupted ones:

* :class:`FaultSpec` fields are ints/strings — exact round-trip;
* outcomes serialize by enum value — exact round-trip;
* per-injection :class:`TelemetrySnapshot` objects use the snapshot's
  own ``to_dict``/``from_dict`` (events carry only JSON scalars by the
  telemetry module's determinism rules, so ``==`` holds after a trip).

``RECORD_SCHEMA`` is stamped on every line; a reader that sees a newer
(or unknown) version must refuse rather than guess.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import StoreCorruptError
from repro.faults.models import FaultSpec, FaultType
from repro.faults.outcomes import CampaignStats, Outcome
from repro.telemetry import TelemetrySnapshot

#: Version of one serialized InjectionRecord.
RECORD_SCHEMA = 1

#: Version of one serialized CampaignResult (the :mod:`repro.serve`
#: fetch payload and the store's ``result`` artifact kind).
#: 2: results carry the golden run's thread similarity classes.
RESULT_SCHEMA = 2


def spec_to_dict(spec: FaultSpec) -> dict:
    return {
        "fault_type": spec.fault_type.value,
        "thread_id": spec.thread_id,
        "branch_index": spec.branch_index,
        "bit": spec.bit,
        "rng_seed": spec.rng_seed,
    }


def spec_from_dict(data: dict) -> FaultSpec:
    try:
        return FaultSpec(
            fault_type=FaultType(data["fault_type"]),
            thread_id=int(data["thread_id"]),
            branch_index=int(data["branch_index"]),
            bit=None if data.get("bit") is None else int(data["bit"]),
            rng_seed=int(data.get("rng_seed", 0)))
    except (KeyError, ValueError, TypeError) as exc:
        raise StoreCorruptError("malformed fault spec %r: %s"
                                % (data, exc)) from None


def record_to_dict(index: int, record) -> dict:
    """One completed injection as a journal line payload."""
    return {
        "kind": "injection",
        "schema": RECORD_SCHEMA,
        "index": index,
        "spec": spec_to_dict(record.spec),
        "outcome": record.outcome.value,
        "baseline_outcome": record.baseline_outcome.value,
        "flipped_branch": bool(record.flipped_branch),
        "detail": record.detail,
        "telemetry": (None if record.telemetry is None
                      else record.telemetry.to_dict()),
        "cut": record.cut,
    }


def record_from_dict(data: dict) -> Tuple[int, "InjectionRecord"]:
    """Rebuild ``(index, InjectionRecord)`` from a journal line."""
    from repro.faults.campaign import InjectionRecord
    try:
        index = int(data["index"])
        telemetry: Optional[TelemetrySnapshot] = None
        if data.get("telemetry") is not None:
            telemetry = TelemetrySnapshot.from_dict(data["telemetry"])
        record = InjectionRecord(
            spec=spec_from_dict(data["spec"]),
            outcome=Outcome(data["outcome"]),
            baseline_outcome=Outcome(data["baseline_outcome"]),
            flipped_branch=bool(data["flipped_branch"]),
            detail=data.get("detail", ""),
            telemetry=telemetry,
            # Journals written before trials were cut short lack it.
            cut=str(data.get("cut", "")))
    except StoreCorruptError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise StoreCorruptError("malformed injection record: %s" % exc) from None
    return index, record


def _counts_to_dict(counts) -> dict:
    return {outcome.value: count
            for outcome, count in sorted(counts.items(),
                                         key=lambda kv: kv[0].value)}


def _counts_from_dict(data: dict) -> dict:
    return {Outcome(value): int(count)
            for value, count in data.items()}


def stats_to_dict(stats: CampaignStats) -> dict:
    return {
        "program": stats.program,
        "fault_type": stats.fault_type,
        "nthreads": stats.nthreads,
        "injections": stats.injections,
        "counts": _counts_to_dict(stats.counts),
        "baseline_counts": _counts_to_dict(stats.baseline_counts),
    }


def stats_from_dict(data: dict) -> CampaignStats:
    try:
        return CampaignStats(
            program=data["program"],
            fault_type=data["fault_type"],
            nthreads=int(data["nthreads"]),
            injections=int(data["injections"]),
            counts=_counts_from_dict(data["counts"]),
            baseline_counts=_counts_from_dict(data["baseline_counts"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise StoreCorruptError("malformed campaign stats: %s"
                                % exc) from None


def result_to_dict(result) -> dict:
    """One finished :class:`repro.faults.CampaignResult` as plain JSON —
    the payload :mod:`repro.serve` stores and ships to clients.  The
    golden :class:`RunResult` is deliberately not included (it is an
    execution artifact, not a result; its fingerprint lives in the
    journal), so a round-tripped result compares against a serial run on
    stats, records, stratified summary, thread classes, and
    telemetry."""
    # Wire contract: records ship in strictly ascending injection-index
    # order whatever order the campaign's shards completed in, so two
    # fetches of the same campaign — serial or jobs=N — are
    # byte-identical under canonical JSON.
    records = [record_to_dict(index, record)
               for index, record in enumerate(result.records)]
    records.sort(key=lambda payload: payload["index"])
    return {
        "kind": "campaign-result",
        "schema": RESULT_SCHEMA,
        "stats": stats_to_dict(result.stats),
        "records": records,
        "stratified": result.stratified,
        "thread_classes": [list(cls) for cls in result.thread_classes],
        "telemetry": (None if result.telemetry is None
                      else result.telemetry.to_dict()),
    }


def result_from_dict(data: dict):
    """Inverse of :func:`result_to_dict`; raises
    :class:`repro.errors.StoreCorruptError` on malformed payloads."""
    from repro.faults.campaign import CampaignResult
    if data.get("schema") != RESULT_SCHEMA:
        raise StoreCorruptError(
            "campaign result uses schema %r; this build reads schema %d"
            % (data.get("schema"), RESULT_SCHEMA))
    try:
        # Reassemble by each record's own index, not by array position:
        # a payload whose records arrive in any order (an old producer,
        # a shard-ordered writer) still lands in injection order.
        records = [None] * len(data["records"])
        for payload in data["records"]:
            index, record = record_from_dict(payload)
            if not 0 <= index < len(records):
                raise StoreCorruptError(
                    "record index %d outside campaign of %d record(s)"
                    % (index, len(records)))
            if records[index] is not None:
                raise StoreCorruptError(
                    "duplicate record index %d" % index)
            records[index] = record
        telemetry = None
        if data.get("telemetry") is not None:
            telemetry = TelemetrySnapshot.from_dict(data["telemetry"])
        stats = stats_from_dict(data["stats"])
        # The cut-short counts are bookkeeping, kept out of the stats
        # payload (and so out of every result digest): recount them.
        for record in records:
            if record is not None:
                stats.settled += record.cut == "settled"
                stats.rejoined += record.cut == "rejoined"
        return CampaignResult(
            stats=stats,
            records=records,
            telemetry=telemetry,
            stratified=data.get("stratified"),
            thread_classes=[[int(tid) for tid in cls]
                            for cls in data["thread_classes"]])
    except StoreCorruptError:
        raise
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise StoreCorruptError("malformed campaign result: %s"
                                % exc) from None
