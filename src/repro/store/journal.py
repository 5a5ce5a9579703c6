"""Crash-safe campaign journal: append-only JSONL with checkpoint/resume.

Layout of one journal file::

    {"kind": "header", "schema": 1, "plan_hash": ..., "plan": {...},
     "golden_fingerprint": ...}
    {"kind": "injection", "schema": 1, "index": 0, "spec": {...}, ...}
    {"kind": "injection", "schema": 1, "index": 1, ...}
    ...

Writes are *crash-safe by construction*: the header is flushed and
fsync'd as soon as it is written; records are buffered and become
durable together at :meth:`JournalWriter.sync` (a campaign syncs once
per completed chunk).  A crash loses at most the chunks not yet synced,
and the file holds every synced record plus possibly some of the next
ones, of which only the final line can be torn.  The reader's contract
mirrors that:

* a torn **final** line is an expected crash artifact — dropped (and
  counted) when ``allow_partial_tail=True``, the resume path's setting;
* a malformed line **anywhere else** is corruption and raises
  :class:`~repro.errors.StoreCorruptError` — never a silent partial
  resume;
* an unknown ``schema`` raises :class:`~repro.errors.StoreSchemaError`;
* a ``plan_hash`` that does not match the resuming campaign raises
  :class:`~repro.errors.PlanMismatchError` with a field-by-field diff.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    PlanMismatchError,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
)
from repro.store.hashing import (
    JOURNAL_SCHEMA,
    canonical_json,
    describe_plan_mismatch,
)
from repro.store.serialize import record_from_dict, record_to_dict


class JournalWriter:
    """Append-only writer: :meth:`append` buffers one JSONL line,
    :meth:`sync` makes every line appended so far durable.

    ``fsync=False`` trades crash-safety for speed (tests, tmpfs); the
    default matches the durability story above.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def _write_line(self, payload: dict) -> None:
        self._handle.write(canonical_json(payload) + "\n")

    def sync(self) -> None:
        """Flush the buffered lines and (with ``fsync``) commit them."""
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def write_header(self, plan_hash: str, plan: dict,
                     golden_fingerprint: str) -> None:
        self._write_line({
            "kind": "header",
            "schema": JOURNAL_SCHEMA,
            "plan_hash": plan_hash,
            "plan": plan,
            "golden_fingerprint": golden_fingerprint,
        })
        self.sync()

    def append(self, index: int, record) -> None:
        self._write_line(record_to_dict(index, record))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalReplay:
    """Everything :func:`read_journal` recovered from a journal file."""

    plan_hash: str
    plan: dict
    golden_fingerprint: str
    #: index -> completed InjectionRecord, exactly as originally written.
    records: Dict[int, object] = field(default_factory=dict)
    #: 1 when a torn final line (crash artifact) was dropped.
    partial_tail_dropped: int = 0
    #: Later duplicate lines for an index already seen (ignored).
    duplicates_dropped: int = 0

    def missing_indices(self, injections: int) -> List[int]:
        return [i for i in range(injections) if i not in self.records]


def read_journal(path: str,
                 expect_plan_hash: Optional[str] = None,
                 expect_plan: Optional[dict] = None,
                 allow_partial_tail: bool = True) -> JournalReplay:
    """Replay a journal; validates before it trusts.

    ``expect_plan_hash``/``expect_plan`` come from the resuming
    campaign; a recorded plan that differs raises
    :class:`PlanMismatchError` naming the differing fields.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise StoreError("cannot read journal %s: %s" % (path, exc)) from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise StoreCorruptError("journal %s is empty (no header)" % path)

    def parse(line_no: int, line: str) -> Optional[dict]:
        try:
            return json.loads(line)
        except ValueError:
            return None

    header = parse(1, lines[0])
    if header is None or header.get("kind") != "header":
        raise StoreCorruptError(
            "journal %s line 1 is not a valid header" % path)
    schema = header.get("schema")
    if schema != JOURNAL_SCHEMA:
        raise StoreSchemaError(
            "journal %s was written with schema %r; this build reads "
            "schema %d — re-run the campaign without --resume"
            % (path, schema, JOURNAL_SCHEMA))
    if expect_plan_hash is not None and header.get("plan_hash") != expect_plan_hash:
        raise PlanMismatchError(
            "journal %s records a different campaign plan: %s"
            % (path, describe_plan_mismatch(header.get("plan") or {},
                                            expect_plan or {})))

    replay = JournalReplay(
        plan_hash=header.get("plan_hash", ""),
        plan=header.get("plan") or {},
        golden_fingerprint=header.get("golden_fingerprint", ""))
    total = len(lines)
    for line_no, line in enumerate(lines[1:], start=2):
        data = parse(line_no, line)
        torn = (data is None
                or data.get("kind") != "injection"
                or "index" not in data)
        if torn:
            # json parses but the object is incomplete only when the
            # line itself was cut mid-write — same treatment.
            if line_no == total and allow_partial_tail:
                replay.partial_tail_dropped = 1
                continue
            raise StoreCorruptError(
                "journal %s line %d is truncated or corrupt; delete the "
                "journal to restart the campaign from scratch"
                % (path, line_no))
        if data.get("schema") != JOURNAL_SCHEMA:
            raise StoreSchemaError(
                "journal %s line %d uses record schema %r; this build "
                "reads schema %d" % (path, line_no, data.get("schema"),
                                     JOURNAL_SCHEMA))
        index, record = record_from_dict(data)
        planned = replay.plan.get("injections")
        if isinstance(planned, int) and not 0 <= index < planned:
            raise StoreCorruptError(
                "journal %s line %d records injection %d of a %d-injection "
                "plan" % (path, line_no, index, planned))
        if index in replay.records:
            replay.duplicates_dropped += 1
            continue
        replay.records[index] = record
    return replay
