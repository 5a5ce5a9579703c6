"""Journal format: crash artifacts vs corruption, schema and plan guards.

The contract under test (satellite: "store corruption paths"): a torn
*final* line is a crash artifact and is dropped on resume; every other
malformed state — mid-file truncation, unknown schema version, foreign
plan hash — raises a clear :class:`StoreError` subclass instead of a
wrong silent resume.
"""

import json
import os

import pytest

from repro.errors import (
    PlanMismatchError,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
)
from repro.faults import FaultType
from repro.faults.campaign import InjectionRecord
from repro.faults.models import FaultSpec
from repro.faults.outcomes import Outcome
from repro.store import (
    JOURNAL_SCHEMA,
    JournalWriter,
    read_journal,
    record_to_dict,
)


def make_record(index: int) -> InjectionRecord:
    return InjectionRecord(
        spec=FaultSpec(fault_type=FaultType.BRANCH_FLIP, thread_id=1,
                       branch_index=5 + index, rng_seed=42),
        outcome=Outcome.DETECTED, baseline_outcome=Outcome.SDC,
        flipped_branch=True, detail="test")


def write_journal(path, n=3, plan_hash="h" * 64, injections=10):
    plan = {"schema": JOURNAL_SCHEMA, "injections": injections,
            "fault_type": "branch-flip", "seed": 1}
    with JournalWriter(str(path), fsync=False) as writer:
        writer.write_header(plan_hash, plan, "g" * 64)
        for i in range(n):
            writer.append(i, make_record(i))
    return str(path)


class TestRoundTrip:
    def test_records_survive(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=3)
        replay = read_journal(path)
        assert sorted(replay.records) == [0, 1, 2]
        record = replay.records[1]
        assert record.spec.branch_index == 6
        assert record.outcome is Outcome.DETECTED
        assert record.baseline_outcome is Outcome.SDC
        assert record.flipped_branch is True
        assert replay.missing_indices(10) == [3, 4, 5, 6, 7, 8, 9]
        assert replay.partial_tail_dropped == 0

    def test_duplicates_keep_first(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=2)
        with open(path, "a") as handle:
            line = dict(record_to_dict(1, make_record(99)))
            handle.write(json.dumps(line) + "\n")
        replay = read_journal(path)
        assert replay.duplicates_dropped == 1
        assert replay.records[1].spec.branch_index == 6  # not 104


class TestSync:
    def test_appends_become_durable_at_sync(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = {"schema": JOURNAL_SCHEMA, "injections": 10}
        writer = JournalWriter(path)
        writer.write_header("h" * 64, plan, "g" * 64)
        header_size = os.path.getsize(path)
        writer.append(0, make_record(0))
        writer.append(1, make_record(1))
        # Buffered until the chunk's commit.
        assert os.path.getsize(path) == header_size
        writer.sync()
        writer.append(2, make_record(2))
        writer.sync()
        assert sorted(read_journal(path).records) == [0, 1, 2]
        # A crash mid-write of the next chunk leaves a torn tail.
        writer.append(3, make_record(3))
        writer.close()
        raw = open(path).read()
        with open(path, "w") as handle:
            handle.write(raw[:-20])
        replay = read_journal(path)
        assert sorted(replay.records) == [0, 1, 2]
        assert replay.records[2] == make_record(2)
        assert replay.partial_tail_dropped == 1


class TestCrashArtifacts:
    def test_torn_final_line_dropped_on_resume(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=3)
        raw = open(path).read().rstrip("\n")
        with open(path, "w") as handle:
            handle.write(raw[:-25])  # SIGKILL mid-write of the last record
        replay = read_journal(path, allow_partial_tail=True)
        assert sorted(replay.records) == [0, 1]
        assert replay.partial_tail_dropped == 1

    def test_torn_final_line_strict_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=2)
        with open(path, "a") as handle:
            handle.write('{"kind": "injection", "ind')
        with pytest.raises(StoreCorruptError):
            read_journal(path, allow_partial_tail=False)


class TestCorruption:
    def test_midfile_truncated_line_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=3)
        lines = open(path).read().splitlines()
        lines[2] = lines[2][:30]  # damage a non-final record
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptError) as info:
            read_journal(path)
        assert "line 3" in str(info.value)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(StoreCorruptError):
            read_journal(str(path))

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = record_to_dict(0, make_record(0))
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoreCorruptError):
            read_journal(str(path))

    def test_unreadable_path_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            read_journal(str(tmp_path / "missing.jsonl"))

    def test_out_of_range_index_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1, injections=10)
        with open(path, "a") as handle:
            handle.write(json.dumps(record_to_dict(10, make_record(0)))
                         + "\n")
            handle.write(json.dumps(record_to_dict(2, make_record(2)))
                         + "\n")
        with pytest.raises(StoreCorruptError):
            read_journal(path)

    def test_malformed_spec_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1)
        bad = record_to_dict(1, make_record(1))
        bad["spec"]["fault_type"] = "not-a-fault"
        with open(path, "a") as handle:
            handle.write(json.dumps(bad) + "\n")
            handle.write(json.dumps(record_to_dict(2, make_record(2)))
                         + "\n")
        with pytest.raises(StoreCorruptError):
            read_journal(path)


class TestSchemaAndPlanGuards:
    def test_header_schema_mismatch_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["schema"] = JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(StoreSchemaError):
            read_journal(path)

    def test_record_schema_mismatch_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1)
        bad = record_to_dict(1, make_record(1))
        bad["schema"] = 999
        with open(path, "a") as handle:
            handle.write(json.dumps(bad) + "\n")
            handle.write(json.dumps(record_to_dict(2, make_record(2)))
                         + "\n")
        with pytest.raises(StoreSchemaError):
            read_journal(path)

    def test_plan_hash_mismatch_names_fields(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1, plan_hash="a" * 64)
        with pytest.raises(PlanMismatchError) as info:
            read_journal(path, expect_plan_hash="b" * 64,
                         expect_plan={"schema": JOURNAL_SCHEMA,
                                      "injections": 10,
                                      "fault_type": "branch-flip",
                                      "seed": 2})
        assert "seed" in str(info.value)

    def test_matching_plan_hash_accepted(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl", n=1, plan_hash="a" * 64)
        replay = read_journal(path, expect_plan_hash="a" * 64)
        assert replay.plan_hash == "a" * 64
