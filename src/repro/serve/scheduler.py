"""Campaign scheduler: bounded queue, worker slots, durable job state.

The scheduler owns everything about a job except the sockets: admission
(bounded queue → backpressure), execution (each campaign runs in a
worker thread via the one spec-driven :func:`repro.run_campaign` path,
journaled to the store; a sharded one on the server's one
:class:`~repro.parallel.WorkerPool`, started at the first sharded job
and kept until drain), durability (every state transition is an
atomic JSON write under ``<store>/serve/jobs/``, so a killed server
rescans the directory and re-enqueues every unfinished job with
``resume=True`` — the journal, synced once per chunk, makes the re-run
bit-identical to an uninterrupted one), and retention (per-tenant byte
quotas evict the least-recently-used finished jobs' results and
journals).

Determinism is inherited, not re-implemented: the campaign engine's
counter-mode seeds make any sharding of the injection range — including
one interrupted by SIGKILL and resumed by a different server process —
produce the same stats, records, and merged telemetry as a serial
:func:`repro.run_campaign` with the same :class:`repro.CampaignSpec`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ServeError, StoreError
from repro.faults.spec import CampaignSpec
from repro.parallel import WorkerPool, available_cpus
from repro.serve import protocol
from repro.store.artifacts import ArtifactStore, write_atomic
from repro.store.hashing import canonical_json
from repro.store.serialize import result_to_dict
from repro.telemetry import Telemetry

#: Schema of the per-job state files under ``<store>/serve/jobs/``.
JOB_SCHEMA = 1

#: Store ``kind`` under which finished campaign results live.
RESULT_KIND = "result"


@dataclass(frozen=True)
class ServeConfig:
    """Server-side policy knobs (the client never sees these)."""

    #: Artifact-store root; compiles, goldens, journals, results, and
    #: job state all live here, so a restarted server finds everything.
    store_root: str
    #: Bounded admission queue; a full queue rejects ``submit`` with a
    #: retryable error instead of buffering without limit.
    queue_size: int = 8
    #: Concurrent campaigns.  Sharded ones share the server's worker
    #: processes, so one slot already saturates the machine; more slots
    #: trade per-job latency for fairness.
    max_running: int = 1
    #: Worker processes of the server's pool (``None`` = every available
    #: CPU), and the shard count of a job that requests none (``None`` =
    #: ``$REPRO_JOBS``, else serial).  A job's shard count sets how its
    #: injections are chunked; a job of one shard runs in the server
    #: process and never starts the pool.
    shards: Optional[int] = None
    #: Per-tenant byte budget for finished jobs (journal + stored
    #: result).  ``None`` disables eviction.
    quota_bytes: Optional[int] = None


@dataclass
class Job:
    """One submitted campaign and its durable lifecycle record."""

    job_id: str
    tenant: str
    spec: CampaignSpec
    spec_hash: str
    shards: Optional[int]
    state: str = protocol.QUEUED
    created: float = 0.0
    updated: float = 0.0
    done: int = 0
    total: int = 0
    error: Optional[str] = None
    result_key: Optional[str] = None
    golden_fingerprint: Optional[str] = None
    #: Bytes this job holds in the store once finished (journal +
    #: serialized result) — the unit the tenant quota is charged in.
    bytes: int = 0

    def summary(self) -> dict:
        """The wire-facing view (``status``/``jobs`` responses)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "program": self.spec.name,
            "fault": self.spec.fault,
            "injections": self.spec.injections,
            "spec_hash": self.spec_hash,
            "shards": self.shards,
            "done": self.done,
            "total": self.total,
            "error": self.error,
            "result_key": self.result_key,
            "bytes": self.bytes,
        }

    def to_state(self) -> dict:
        state = {"schema": JOB_SCHEMA, "spec": self.spec.to_dict()}
        state.update(self.summary())
        state.update(created=self.created, updated=self.updated,
                     golden_fingerprint=self.golden_fingerprint)
        return state

    @classmethod
    def from_state(cls, data: dict) -> "Job":
        if data.get("schema") != JOB_SCHEMA:
            raise ServeError("job state schema %r unsupported (expected %d)"
                             % (data.get("schema"), JOB_SCHEMA))
        return cls(
            job_id=data["job_id"], tenant=data.get("tenant", "default"),
            spec=CampaignSpec.from_dict(data["spec"]),
            spec_hash=data.get("spec_hash", ""),
            shards=data.get("shards"), state=data.get("state",
                                                      protocol.QUEUED),
            created=data.get("created", 0.0),
            updated=data.get("updated", 0.0),
            done=data.get("done", 0), total=data.get("total", 0),
            error=data.get("error"), result_key=data.get("result_key"),
            golden_fingerprint=data.get("golden_fingerprint"),
            bytes=data.get("bytes", 0))


class _DrainInterrupt(Exception):
    """Raised from the progress callback to stop at a chunk boundary."""


def result_key_for(job_id: str, spec_hash: str) -> str:
    """Store key of a job's result (content-addressed per job + plan)."""
    payload = canonical_json({"kind": "serve-result", "job": job_id,
                              "plan": spec_hash})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CampaignScheduler:
    """Owns the job table, the queue, and the worker slots.

    Public methods are called from the event-loop thread (by the
    request handlers); the campaign itself runs in a worker thread so
    the loop stays responsive while fault injections grind.
    """

    def __init__(self, store: ArtifactStore, config: ServeConfig):
        self.store = store
        self.config = config
        self.jobs: Dict[str, Job] = {}
        #: plan hash -> the spec object jobs of that plan share.
        self._specs: Dict[str, CampaignSpec] = {}
        self.telemetry = Telemetry()
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._drain_event = threading.Event()
        self._draining = False
        self._seq = 0
        self.jobs_dir = os.path.join(store.root, "serve", "jobs")
        #: The worker processes every sharded job runs on; started at
        #: the first one, terminated by :meth:`drain`.
        self.pool = WorkerPool(config.shards or available_cpus())

    # -- durability -------------------------------------------------------

    def _persist(self, job: Job) -> None:
        """Atomic write of the job's state file (crash leaves old state).
        The worker thread and the request handlers may persist one job
        at once; each write has its own temp file."""
        os.makedirs(self.jobs_dir, exist_ok=True)
        write_atomic(os.path.join(self.jobs_dir, job.job_id + ".json"),
                     json.dumps(job.to_state(), sort_keys=True)
                     .encode("utf-8"))

    def _touch(self, job: Job, state: Optional[str] = None, **changes
               ) -> None:
        """Apply a state change durably: the new state file is written
        *before* the in-memory job — which ``status``, ``watch`` and
        ``fetch`` read — changes, so no client acts on a state that is
        not on disk yet.  Only state transitions come here; progress and
        use are kept in memory (the journal is the durable progress
        record)."""
        if state is not None:
            changes["state"] = state
        changes["updated"] = time.time()
        self._persist(dataclasses.replace(job, **changes))
        for name, value in changes.items():
            setattr(job, name, value)

    def _rescan(self) -> List[Job]:
        """Load every persisted job; unfinished ones are resumable."""
        loaded: List[Job] = []
        if not os.path.isdir(self.jobs_dir):
            return loaded
        for entry in sorted(os.listdir(self.jobs_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, entry)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    job = Job.from_state(json.load(handle))
            except (OSError, ValueError, KeyError, ServeError):
                # A torn or foreign file must not take the server down;
                # the atomic-write protocol makes this exceptional.
                self.telemetry.count("serve.state_unreadable")
                continue
            loaded.append(job)
        return loaded

    # -- lifecycle --------------------------------------------------------

    async def start(self, start_workers: bool = True) -> None:
        """Rescan persisted jobs, re-enqueue unfinished ones, start
        the worker slots (``start_workers=False`` admits jobs without
        executing them — queue/backpressure tests)."""
        self._queue = asyncio.Queue(maxsize=max(1, self.config.queue_size))
        resumed = 0
        for job in self._rescan():
            self.jobs[job.job_id] = job
            if job.state in protocol.RESUMABLE_STATES:
                # RUNNING means the previous server died mid-campaign;
                # the journal holds every completed injection.
                self._touch(job, state=protocol.QUEUED)
                await self._queue.put(job)
                resumed += 1
        if resumed:
            self.telemetry.count("serve.resumed", resumed)
        slots = max(1, self.config.max_running)
        self._executor = ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="repro serve")
        if start_workers:
            for _ in range(slots):
                self._workers.append(asyncio.create_task(self._worker()))

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, stop running jobs at
        their next checkpoint, leave everything resumable on disk."""
        self._draining = True
        self._drain_event.set()
        for task in self._workers:
            # A cancel only interrupts the idle queue wait; a running
            # campaign thread keeps going until its progress callback
            # sees the drain flag and raises at a chunk boundary.
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._executor is not None:
            # Wait (off-loop) for in-flight campaign threads to reach
            # their checkpoint and persist INTERRUPTED before we report
            # the drain complete — the rescan depends on that state.
            executor = self._executor
            self._executor = None
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: executor.shutdown(wait=True))
        # No campaign is left on the pool; its abandoned chunks die.
        self.pool.close()

    # -- admission --------------------------------------------------------

    def submit(self, spec_dict: dict, spec_hash: Optional[str],
               tenant: str = "default", shards: Optional[int] = None
               ) -> Job:
        """Validate, persist, and enqueue one campaign job."""
        if self._draining:
            raise ServeError("server is draining; resubmit after restart")
        if self._queue is None:
            raise ServeError("scheduler is not started")
        spec = CampaignSpec.from_dict(spec_dict)
        computed = spec.plan_hash
        if spec_hash is not None and spec_hash != computed:
            raise ServeError(
                "spec hash mismatch: client sent %s..., server derived "
                "%s... — client and server disagree on the campaign plan"
                % (str(spec_hash)[:12], computed[:12]))
        if self._queue.full():
            self.telemetry.count("serve.rejected")
            raise ServeError(
                "queue full (%d queued); retry after a job finishes"
                % self._queue.qsize())
        # The job table keeps every job; equal specs share one object
        # instead of each holding its own decoded copy of the inputs.
        known = self._specs.get(computed)
        if known == spec:
            spec = known
        else:
            self._specs[computed] = spec
        self._seq += 1
        job_id = "%s-%06d-%s" % (spec.name, self._seq,
                                 os.urandom(4).hex())
        job = Job(job_id=job_id, tenant=tenant, spec=spec,
                  spec_hash=computed, shards=shards,
                  created=time.time(), total=spec.injections)
        self.jobs[job_id] = job
        self._touch(job, state=protocol.QUEUED)
        self._queue.put_nowait(job)
        self.telemetry.count("serve.submitted")
        return job

    # -- execution --------------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._draining:
            job = await self._queue.get()
            try:
                await loop.run_in_executor(self._executor, self._run_job,
                                           job)
            finally:
                self._queue.task_done()

    def _journal_path(self, job: Job) -> str:
        return self.store.journal_path("serve-" + job.job_id)

    def _run_job(self, job: Job) -> None:
        """Worker-thread body: run (or resume) one campaign to a stored
        result.  Every exit path persists a state the rescan understands."""
        from repro.faults.campaign import run_campaign

        journal = self._journal_path(job)
        resume = os.path.exists(journal) and os.path.getsize(journal) > 0
        spec = job.spec.replace(journal=journal, resume=resume,
                                store=self.store.root)
        self._touch(job, state=protocol.RUNNING)

        def progress(done: int, total: int, _elapsed: float) -> None:
            # ``total`` counts only this run's pending injections; the
            # journal, already synced, holds the rest.
            job.done = job.spec.injections - total + done
            job.updated = time.time()
            if self._drain_event.is_set():
                raise _DrainInterrupt()

        started = time.monotonic()
        try:
            result = run_campaign(spec, jobs=job.shards or
                                  self.config.shards,
                                  store=self.store, keep_records=True,
                                  progress=progress, pool=self.pool)
        except _DrainInterrupt:
            self._touch(job, state=protocol.INTERRUPTED)
            self.telemetry.count("serve.interrupted")
            return
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._touch(job, state=protocol.FAILED, error=str(exc))
            self.telemetry.count("serve.failed")
            return
        payload = result_to_dict(result)
        key = result_key_for(job.job_id, job.spec_hash)
        self.store.put(key, RESULT_KIND, payload,
                       name="serve:" + job.job_id)
        size = len(canonical_json(payload).encode("utf-8"))
        if os.path.exists(journal):
            size += os.path.getsize(journal)
        self._touch(job, state=protocol.DONE, done=job.spec.injections,
                    result_key=key, bytes=size,
                    golden_fingerprint=self._journal_golden(journal))
        self.telemetry.count("serve.completed")
        self.telemetry.add_time_ns(
            "serve.job_ns", int((time.monotonic() - started) * 1e9))
        self._enforce_quota(job.tenant)

    @staticmethod
    def _journal_golden(journal: str) -> Optional[str]:
        """The golden fingerprint recorded in the journal header."""
        try:
            with open(journal, "r", encoding="utf-8") as handle:
                header = json.loads(handle.readline())
            if header.get("kind") == "header":
                return header.get("golden_fingerprint")
        except (OSError, ValueError):
            pass
        return None

    # -- retention --------------------------------------------------------

    def _enforce_quota(self, tenant: str) -> None:
        """Evict the tenant's least-recently-used finished jobs until
        their journal+result bytes fit the configured budget."""
        quota = self.config.quota_bytes
        if not quota:
            return
        finished = sorted(
            (j for j in self.jobs.values()
             if j.tenant == tenant and j.state == protocol.DONE),
            key=lambda j: j.updated)
        usage = sum(j.bytes for j in finished)
        # The newest result always survives — a quota smaller than one
        # result would otherwise evict the job the client just ran.
        while usage > quota and len(finished) > 1:
            victim = finished.pop(0)
            usage -= victim.bytes
            self._evict(victim)

    def _evict(self, job: Job) -> None:
        if job.result_key:
            try:
                self.store.delete(job.result_key)
            except StoreError:
                pass
        journal = self._journal_path(job)
        if os.path.exists(journal):
            os.remove(journal)
        self._touch(job, state=protocol.EVICTED, result_key=None, bytes=0)
        self.telemetry.count("serve.evicted")

    # -- queries ----------------------------------------------------------

    def get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServeError("unknown job %r" % job_id)
        return job

    def fetch(self, job_id: str) -> dict:
        """The stored result payload of a finished job."""
        job = self.get_job(job_id)
        if job.state == protocol.EVICTED:
            raise ServeError("job %s was evicted by the tenant quota; "
                             "resubmit the spec to recompute it" % job_id)
        if job.state != protocol.DONE or job.result_key is None:
            raise ServeError("job %s is %s, not done" % (job_id, job.state))
        payload = self.store.load(job.result_key, RESULT_KIND)
        # Fetching counts as use: LRU eviction spares hot results.
        job.updated = time.time()
        return payload

    def golden(self, job_id: str) -> dict:
        job = self.get_job(job_id)
        return {"plan_hash": job.spec_hash,
                "golden_fingerprint": job.golden_fingerprint}

    def job_telemetry(self, job_id: str) -> Optional[dict]:
        """The merged campaign telemetry of a finished job (or None
        when the spec did not enable telemetry)."""
        return self.fetch(job_id).get("telemetry")

    def triage(self, job_id: str) -> dict:
        """The clustered triage report of a finished job.

        Rebuilds the :class:`CampaignResult` from the stored payload
        (which carries the thread similarity classes its golden run
        recorded) and memoizes the finished report as a
        content-addressed ``triage`` artifact — repeat requests are a
        store hit, and clients get clustered failure modes instead of
        raw records.  Nothing is re-run.
        """
        from repro.store.serialize import result_from_dict
        from repro.triage import triage_campaign
        job = self.get_job(job_id)
        result = result_from_dict(self.fetch(job_id))
        try:
            report = triage_campaign(result, spec=job.spec,
                                     store=self.store)
        except ServeError:
            raise
        except Exception as exc:  # noqa: BLE001 - request isolation
            raise ServeError("triage of job %s failed: %s"
                             % (job_id, exc))
        self.telemetry.count("serve.triaged")
        return report.to_dict()

    def server_status(self) -> dict:
        snapshot = self.telemetry.snapshot()
        return {
            "draining": self._draining,
            "queued": self._queue.qsize() if self._queue else 0,
            "queue_size": self.config.queue_size,
            "running": sum(1 for j in self.jobs.values()
                           if j.state == protocol.RUNNING),
            "jobs": len(self.jobs),
            "counters": dict(sorted(snapshot.counters.items())),
            "store": self.store.root,
        }
