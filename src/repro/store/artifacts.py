"""Content-addressed artifact cache: compiled programs and lint,
vulnerability and triage reports on disk, golden runs in memory.

On-disk layout (everything under one *store root*)::

    <root>/store.json                    # {"schema": 1}
    <root>/objects/<k[:2]>/<k>/meta.json # kind, sizes, created; mtime = last use
    <root>/objects/<k[:2]>/<k>/data.pkl  # versioned pickle payload
    <root>/journals/                     # suggested campaign-journal home

``<k>`` is the SHA-256 content address from :mod:`repro.store.hashing`,
so a hit is *correct by construction*: any change to the source text or
any compile option changes the key, and stale entries simply stop being
addressed (no invalidation protocol — the LRU ``gc`` reclaims them).

Payloads are wrapped as ``{"schema": ARTIFACT_SCHEMA, "kind": ...,
"payload": obj}``: :meth:`ArtifactStore.load` raises
:class:`~repro.errors.StoreSchemaError`/``StoreCorruptError`` on drift
or damage, while the high-level ``get_*`` paths treat any unusable
entry as a miss and rebuild — a cache must never turn corruption into
a failed campaign.

Writes are atomic (a temp file unique to each writer, then
``os.replace``), so concurrent campaigns or server threads racing on a
cold key at worst both compile and one rename wins — never a torn
object.

Loaded programs are also kept in a small in-process LRU, so a
long-running process (the campaign server) that asks for one program
many times gets the same object back — with the block closures it
compiled at the first run — instead of unpickling a fresh copy per job.

Golden runs live only in memory: a second in-process LRU keeps each
one's :class:`GoldenSummary` with its machine checkpoints, which refer
to the compiled blocks and check sites of the program object that ran
it, so they are served only to campaigns of that same object.  A golden
run without its checkpoints is worth no more than running it again
(every trial would replay its prefix from step 0), so none is written
to disk.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StoreCorruptError, StoreError, StoreSchemaError
from repro.store.hashing import (
    ARTIFACT_SCHEMA,
    golden_key,
    lint_key,
    program_key,
    program_key_of,
)

#: Environment variable naming the default store root.
STORE_ENV = "REPRO_STORE"

#: Loaded programs, and golden runs, an :class:`ArtifactStore` keeps in
#: memory (each LRU holds at most this many).
PROGRAM_LRU_SIZE = 8


def _file_identity(path: str) -> Optional[Tuple[int, int, int]]:
    """(inode, size, mtime) of ``path``, or None when it is missing."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def write_atomic(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically and durably.  The temp
    file is unique to this writer, so two threads or processes writing
    one path never share it; the last ``os.replace`` wins."""
    directory, base = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=base + ".tmp.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _remember(lru: "OrderedDict[str, Tuple]", key: str, value) -> None:
    """Put ``value`` at the fresh end of ``lru``, evicting past
    :data:`PROGRAM_LRU_SIZE` (caller holds the lock)."""
    lru[key] = value
    lru.move_to_end(key)
    while len(lru) > PROGRAM_LRU_SIZE:
        lru.popitem(last=False)


@dataclass
class GoldenSummary:
    """The golden-run facts a campaign needs, besides its checkpoints.

    ``signature`` is the **raw** (un-quantized) output signature for the
    campaign's ``output_globals``; quantization happens per-campaign.
    """

    signature: tuple
    branch_counts: Dict[int, int]
    steps: int
    #: Thread similarity classes (sorted tid lists, ordered by least
    #: member) recorded during the run.
    thread_classes: List[List[int]]
    #: The recorder's per-thread branch streams and the ``(function,
    #: block)`` behind each symbol pair (see repro.runtime.golden).
    streams: Dict[int, List[int]]
    branch_sites: Tuple[Tuple[str, str], ...]


@dataclass
class StoreEntry:
    """One object as listed by :meth:`ArtifactStore.entries`."""

    key: str
    kind: str
    name: str
    size: int
    created: float
    last_used: float
    path: str


class ArtifactStore:
    """One store root; safe to share across campaigns and CLIs."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        #: The process that opened this handle (see
        #: :func:`repro.store.runtime.store_for`).
        self.pid = os.getpid()
        self.objects = os.path.join(self.root, "objects")
        self.journals_dir = os.path.join(self.root, "journals")
        #: Process-local hit/miss bookkeeping, mirrored into any
        #: telemetry collector handed to the lookup methods.
        self.counters: Dict[str, int] = {}
        #: key -> (data-file identity, program): programs loaded or
        #: compiled by this process, least recently used first.
        self._programs: "OrderedDict[str, Tuple]" = OrderedDict()
        #: key -> (program, GoldenSummary, checkpoints): golden runs of
        #: this process, least recently used first.
        self._goldens: "OrderedDict[str, Tuple]" = OrderedDict()
        #: Guards both in-memory LRUs.
        self._lock = threading.Lock()
        os.makedirs(self.objects, exist_ok=True)
        os.makedirs(self.journals_dir, exist_ok=True)
        marker = os.path.join(self.root, "store.json")
        if not os.path.exists(marker):
            write_atomic(marker, json.dumps(
                {"schema": ARTIFACT_SCHEMA}).encode("utf-8"))

    def forked_copy(self) -> "ArtifactStore":
        """A forked child's own handle on this root: the in-memory
        programs and golden runs inherited through the fork, with a new
        lock and zeroed counters.  (Another parent thread may have held
        the inherited lock at the fork.)"""
        copy = object.__new__(ArtifactStore)
        copy.__dict__.update(self.__dict__)
        copy.pid = os.getpid()
        copy.counters = {}
        copy._programs = OrderedDict(self._programs)
        copy._goldens = OrderedDict(self._goldens)
        copy._lock = threading.Lock()
        return copy

    # -- low-level object access ---------------------------------------

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.objects, key[:2], key)

    def put(self, key: str, kind: str, payload, name: str = "") -> None:
        """Store ``payload`` under ``key`` (atomic, overwrites)."""
        directory = self._entry_dir(key)
        os.makedirs(directory, exist_ok=True)
        blob = pickle.dumps(
            {"schema": ARTIFACT_SCHEMA, "kind": kind, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(os.path.join(directory, "data.pkl"), blob)
        now = time.time()
        meta = {"schema": ARTIFACT_SCHEMA, "key": key, "kind": kind,
                "name": name, "size": len(blob),
                "created": now, "last_used": now}
        write_atomic(os.path.join(directory, "meta.json"),
                     json.dumps(meta, sort_keys=True).encode("utf-8"))

    def load(self, key: str, kind: str, touch: bool = True):
        """Strict load: raises :class:`StoreError` subclasses on any
        problem.  Returns the stored payload."""
        directory = self._entry_dir(key)
        data_path = os.path.join(directory, "data.pkl")
        if not os.path.exists(data_path):
            raise StoreError("no %s object %s in store %s"
                             % (kind, key[:12], self.root))
        try:
            with open(data_path, "rb") as handle:
                wrapper = pickle.load(handle)
        except Exception as exc:
            raise StoreCorruptError(
                "store object %s is unreadable: %s" % (key[:12], exc)) from None
        if not isinstance(wrapper, dict) or "payload" not in wrapper:
            raise StoreCorruptError(
                "store object %s has no payload wrapper" % key[:12])
        if wrapper.get("schema") != ARTIFACT_SCHEMA:
            raise StoreSchemaError(
                "store object %s uses artifact schema %r; this build "
                "reads schema %d" % (key[:12], wrapper.get("schema"),
                                     ARTIFACT_SCHEMA))
        if wrapper.get("kind") != kind:
            raise StoreCorruptError(
                "store object %s is a %r, expected %r"
                % (key[:12], wrapper.get("kind"), kind))
        if touch:
            self._touch(directory)
        return wrapper["payload"]

    def _touch(self, directory: str) -> None:
        """Mark a use: bump ``meta.json``'s mtime, which :meth:`entries`
        reads as ``last_used`` when it is later than the recorded one.
        Recency is advisory, so it is neither rewritten nor fsynced."""
        try:
            os.utime(os.path.join(directory, "meta.json"))
        except OSError:
            pass  # never fail a hit over LRU freshness

    def delete(self, key: str) -> bool:
        directory = self._entry_dir(key)
        if not os.path.isdir(directory):
            return False
        shutil.rmtree(directory, ignore_errors=True)
        return True

    def _count(self, name: str, telemetry=None) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if telemetry is not None:
            telemetry.count(name)

    # -- high-level cached computations --------------------------------

    def get_program(self, source: str, name: str = "program",
                    entry: str = "slave", analysis_config=None,
                    instrument_config=None, telemetry=None,
                    opt_level=None):
        """The compile pipeline, memoized: returns a
        :class:`~repro.runtime.program.ParallelProgram`, compiling only
        on a cold (or unusable) entry.  Hits/misses land on the
        ``store.cache.hit`` / ``store.cache.miss`` counters; a program
        this store already loaded in this process is returned as the
        same object (and counted as a hit).

        ``opt_level`` resolves against the environment *before* keying,
        so a run under ``REPRO_OPT_LEVEL=2`` can never alias a plain
        entry (and vice versa).
        """
        from repro.runtime.program import ParallelProgram, resolve_opt_level
        opt_level = resolve_opt_level(opt_level)
        key = program_key(source, name, entry=entry,
                          analysis_config=analysis_config,
                          instrument_config=instrument_config,
                          opt_level=opt_level)
        data_path = os.path.join(self._entry_dir(key), "data.pkl")
        program = None
        with self._lock:
            cached = self._programs.get(key)
        # The memory copy stands for the stored object it came from; a
        # rewritten, damaged or deleted entry goes the disk path again.
        if cached is not None and cached[0] == _file_identity(data_path):
            program = cached[1]
            self._touch(os.path.dirname(data_path))
        if program is None:
            try:
                program = self.load(key, "program")
            except StoreError:
                pass
        if program is not None:
            self._count("store.cache.hit", telemetry)
        else:
            self._count("store.cache.miss", telemetry)
            program = ParallelProgram(source, name, entry=entry,
                                      analysis_config=analysis_config,
                                      instrument_config=instrument_config,
                                      opt_level=opt_level)
            self.put(key, "program", program, name=name)
        with self._lock:
            _remember(self._programs, key,
                      (_file_identity(data_path), program))
        return program

    def _get_report(self, key: str, kind: str, compute: Callable[[], dict],
                    name: str, telemetry) -> dict:
        """Load ``kind`` object ``key``, or ``compute`` and store it.  A
        corrupt or schema-mismatched entry is a miss and is overwritten."""
        try:
            report = self.load(key, kind)
            self._count("store.%s.hit" % kind, telemetry)
            return report
        except StoreError:
            pass
        self._count("store.%s.miss" % kind, telemetry)
        report = compute()
        self.put(key, kind, report, name=name)
        return report

    def get_lint(self, source: str, name: str, entry: str,
                 compute: Callable[[], dict], telemetry=None) -> dict:
        """One lint report (as its ``as_dict`` form — plain JSON-safe
        data) per distinct (source, entry, diagnostic schema).  Counters:
        ``store.lint.hit`` / ``store.lint.miss``."""
        from repro.lint import LINT_SCHEMA
        return self._get_report(lint_key(source, name, entry, LINT_SCHEMA),
                                "lint", compute, "lint %s" % name, telemetry)

    def get_vuln(self, key: str, compute: Callable[[], dict],
                 name: str = "vuln summary", telemetry=None) -> dict:
        """One per-function vulnerability summary (JSON-safe dict) per
        distinct normalized function text — computed via
        :func:`repro.store.hashing.vuln_key`.  Counters:
        ``store.vuln.hit`` / ``store.vuln.miss``."""
        return self._get_report(key, "vuln", compute, name, telemetry)

    def get_triage(self, key: str, compute: Callable[[], dict],
                   name: str = "triage report", telemetry=None) -> dict:
        """One clustered triage report (JSON-safe dict) per distinct
        triage fingerprint — computed via
        :func:`repro.store.hashing.triage_key`.  Counters:
        ``store.triage.hit`` / ``store.triage.miss``."""
        return self._get_report(key, "triage", compute, name, telemetry)

    def get_golden(self, program, nthreads: int, seed: int,
                   quantum: int, output_globals: Tuple[str, ...],
                   compute: Callable[[], Tuple[GoldenSummary, tuple]],
                   telemetry=None, inputs: Optional[dict] = None
                   ) -> Tuple[GoldenSummary, tuple]:
        """One golden run per distinct program and input, with its
        checkpoints, shared by the campaigns of one process
        (``store.golden.hit`` / ``store.golden.miss``).  ``compute``
        runs it and returns ``(summary, checkpoints)``; ``inputs`` is
        the canonical form of the run's input generator
        (:func:`repro.store.hashing.setup_inputs`).

        A hit needs ``program`` itself, not an equal compile of it: the
        checkpoints point into the compiled program that took them.
        Another object under the same key is a miss and replaces the
        entry."""
        key = golden_key(program_key_of(program), nthreads, seed, quantum,
                         output_globals, inputs)
        with self._lock:
            cached = self._goldens.get(key)
            hit = cached is not None and cached[0] is program
            if hit:
                self._goldens.move_to_end(key)
        if hit:
            self._count("store.golden.hit", telemetry)
            return cached[1], cached[2]
        self._count("store.golden.miss", telemetry)
        summary, checkpoints = compute()
        with self._lock:
            _remember(self._goldens, key, (program, summary, checkpoints))
        return summary, checkpoints

    def journal_path(self, label: str) -> str:
        """Conventional journal location inside the store."""
        return os.path.join(self.journals_dir, label + ".jsonl")

    # -- maintenance (repro store ls/gc/verify) -------------------------

    def entries(self) -> List[StoreEntry]:
        found = []
        for prefix in sorted(os.listdir(self.objects)):
            prefix_dir = os.path.join(self.objects, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for key in sorted(os.listdir(prefix_dir)):
                directory = os.path.join(prefix_dir, key)
                meta_path = os.path.join(directory, "meta.json")
                meta = {}
                used = 0.0
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                        used = os.fstat(handle.fileno()).st_mtime
                except (OSError, ValueError):
                    pass
                size = meta.get("size")
                if size is None:
                    try:
                        size = os.path.getsize(
                            os.path.join(directory, "data.pkl"))
                    except OSError:
                        size = 0
                found.append(StoreEntry(
                    key=key, kind=meta.get("kind", "?"),
                    name=meta.get("name", ""), size=int(size),
                    created=float(meta.get("created", 0.0)),
                    last_used=max(float(meta.get("last_used", 0.0)),
                                  used),
                    path=directory))
        return found

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def gc(self, max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None,
           dry_run: bool = False) -> List[StoreEntry]:
        """Least-recently-used eviction down to the given bounds.
        Returns the evicted (or would-be evicted) entries."""
        entries = sorted(self.entries(), key=lambda e: e.last_used,
                         reverse=True)  # newest first; evict from the tail
        evict: List[StoreEntry] = []
        if max_entries is not None and len(entries) > max_entries:
            evict.extend(entries[max_entries:])
            entries = entries[:max_entries]
        if max_bytes is not None:
            used = sum(e.size for e in entries)
            while entries and used > max_bytes:
                victim = entries.pop()
                used -= victim.size
                evict.append(victim)
        if not dry_run:
            for entry in evict:
                self.delete(entry.key)
        return evict

    def verify(self, delete: bool = False) -> List[Tuple[StoreEntry, str]]:
        """Check every object strictly; returns ``(entry, problem)``
        pairs (optionally deleting the broken ones)."""
        problems = []
        for entry in self.entries():
            try:
                self.load(entry.key, entry.kind, touch=False)
            except StoreError as exc:
                problems.append((entry, str(exc)))
                if delete:
                    self.delete(entry.key)
        return problems
