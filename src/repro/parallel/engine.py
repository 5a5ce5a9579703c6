"""The worker-pool runner.

``run_tasks(task_fn, items, ...)`` maps a pure function over independent
work items and returns the results **in item order**, regardless of how
the items were chunked or which worker finished first — so any
aggregation of the result list is automatically partition-independent.

Execution strategy, in order of preference:

``fork``
    The default on platforms that support it.  The expensive per-campaign
    context (compiled program, golden-run artifacts, setup closures) is
    handed to each worker through the pool initializer, which under fork
    is *inherited*, not pickled — workers start with the parent's
    compiled image and never recompile.

``spawn``
    Fallback when fork is unavailable.  Workers cannot inherit memory,
    so the initializer instead receives a picklable ``context_factory``
    and rebuilds the context **once per worker process** (one compile +
    analyze + instrument per worker, cached for all its chunks — never
    once per injection).  Requires the factory arguments (or the context
    itself) to survive ``pickle``.

serial
    ``jobs=1``, a single work item, or an unpicklable spawn context all
    stay on the plain in-process loop — today's code path, no pool, no
    pickling.

Those pools live for one call.  A :class:`WorkerPool` instead outlives
the calls that use it (the campaign server forks one per server): its
workers keep the contexts they built, and a call names its context by a
key.  Each chunk carries the key with a picklable ``context_factory``
and its arguments; a worker that has no context under the key builds
one with them and keeps it for later chunks and later calls.

Both lifetimes share one worker loop, :func:`_run_chunk`.  Dispatch is
chunked: items are grouped into contiguous chunks that are consumed by
an unordered ``imap``, and an optional ``progress`` callback fires once
per completed chunk with ``(done, total, chunk_seconds)``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import warnings
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Tuple


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The shared ``jobs`` policy: ``None`` reads ``REPRO_JOBS`` (absent
    or empty means 1 — serial); ``0`` or negative means all available
    CPUs."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                "REPRO_JOBS must be an integer (0 = all cores), got %r"
                % raw) from None
    jobs = int(jobs)
    if jobs <= 0:
        return available_cpus()
    return jobs


def default_chunk_size(nitems: int, jobs: int) -> int:
    """Aim for ~4 chunks per worker: large enough to amortize dispatch,
    small enough that progress callbacks stay live and stragglers don't
    serialize the tail."""
    return max(1, -(-nitems // (jobs * 4)))


# -- worker-side state -------------------------------------------------------

#: Per-worker cache of a per-call pool, populated exactly once by
#: :func:`_init_worker`.
_WORKER = {"fn": None, "ctx": None}

#: Contexts a :class:`WorkerPool` worker built, by key, least recently
#: used first.
_WARM: "OrderedDict[str, object]" = OrderedDict()

#: Contexts a :class:`WorkerPool` worker keeps.
WARM_CONTEXTS = 8


def _init_worker(task_fn, context, context_factory, factory_args) -> None:
    _WORKER["fn"] = task_fn
    if context_factory is not None and context is None:
        context = context_factory(*factory_args)
    _WORKER["ctx"] = context


def _warm_context(key: str, context_factory: Callable, factory_args: Tuple):
    ctx = _WARM.get(key)
    if ctx is None:
        ctx = context_factory(*factory_args)
    _WARM[key] = ctx
    _WARM.move_to_end(key)
    while len(_WARM) > WARM_CONTEXTS:
        _WARM.popitem(last=False)
    return ctx


def _run_chunk(payload):
    """Run one chunk: ``(chunk_id, [(index, item), ...], warm)``, where
    ``warm`` is None in a per-call pool (task and context came with the
    fork) and ``(task_fn, key, context_factory, factory_args)`` in a
    :class:`WorkerPool`."""
    chunk_id, chunk, warm = payload
    if warm is None:
        fn, ctx = _WORKER["fn"], _WORKER["ctx"]
    else:
        fn, key, context_factory, factory_args = warm
        ctx = _warm_context(key, context_factory, factory_args)
    started = time.perf_counter()
    out = [(index, fn(ctx, item)) for index, item in chunk]
    return chunk_id, out, time.perf_counter() - started


class WorkerPool:
    """A fork pool that outlives the :func:`run_tasks` calls it serves.

    The pool forks its ``processes`` workers at its first use, not at
    construction, and keeps them until :meth:`close`.  A call that fails
    or stops early abandons its chunks still in flight: they run to
    their end and their results are dropped, and the pool stays usable.
    Needs the ``fork`` start method (see :attr:`available`).
    """

    #: Whether this platform can fork a pool at all.
    available = "fork" in multiprocessing.get_all_start_methods()

    def __init__(self, processes: int):
        self.processes = max(1, int(processes))
        self._pool = None
        self._lock = threading.Lock()

    def _started(self):
        with self._lock:
            if self._pool is None:
                self._pool = multiprocessing.get_context("fork").Pool(
                    processes=self.processes)
            return self._pool

    def imap_unordered(self, payloads):
        return self._started().imap_unordered(_run_chunk, payloads)

    def close(self) -> None:
        """Terminate and join the workers (a later use forks anew)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


# -- driver ------------------------------------------------------------------

def _run_serial(task_fn, items, context, context_factory, factory_args,
                progress, timings, on_results) -> List:
    if context is None and context_factory is not None:
        context = context_factory(*factory_args)
    results = []
    total = len(items)
    for index, item in enumerate(items):
        started = time.perf_counter()
        results.append(task_fn(context, item))
        elapsed = time.perf_counter() - started
        if timings is not None:
            timings.append((index, 1, elapsed))
        if on_results is not None:
            on_results([(index, results[-1])])
        if progress is not None:
            progress(index + 1, total, elapsed)
    return results


def _spawn_initargs(task_fn, context, context_factory, factory_args):
    """The initializer payload for a spawn pool, or None if it cannot be
    pickled (live programs / setup closures with no factory)."""
    if context_factory is not None:
        initargs = (task_fn, None, context_factory, factory_args)
    else:
        initargs = (task_fn, context, None, ())
    try:
        pickle.dumps(initargs)
    except Exception:
        return None
    return initargs


def run_tasks(task_fn: Callable,
              items: Iterable,
              *,
              jobs: Optional[int] = None,
              context=None,
              context_factory: Optional[Callable] = None,
              factory_args: Tuple = (),
              chunk_size: Optional[int] = None,
              progress: Optional[Callable[[int, int, float], None]] = None,
              timings: Optional[List[Tuple[int, int, float]]] = None,
              on_results: Optional[
                  Callable[[List[Tuple[int, object]]], None]] = None,
              pool: Optional[WorkerPool] = None,
              context_key: Optional[str] = None
              ) -> List:
    """Map ``task_fn(context, item)`` over ``items``; results in item order.

    ``task_fn`` must be a module-level function (it crosses the pool's
    task queue by reference).  ``context`` is the shared heavy state —
    delivered for free under fork; a worker that cannot inherit it
    builds it with ``context_factory(*factory_args)``: once per spawn
    worker (``context`` is pickled directly when no factory is given),
    or once per :class:`WorkerPool` worker and ``context_key`` when
    ``pool`` is given.  The serial loop (``jobs=1``) uses ``context``.
    Exceptions raised by any task propagate.

    ``timings``, when given a list, receives one ``(chunk_id, items,
    seconds)`` tuple per completed dispatch unit — the per-worker
    wall-clock record campaign telemetry aggregates.

    ``on_results`` is called **in the parent process** with each
    completed dispatch unit's ``[(item_index, result), ...]`` pairs, in
    completion (not item) order — the checkpoint hook: a crash loses at
    most the chunks whose callback had not yet run.
    """
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items)) if items else 1
    if jobs <= 1:
        return _run_serial(task_fn, items, context, context_factory,
                           factory_args, progress, timings, on_results)

    size = chunk_size if chunk_size else default_chunk_size(len(items), jobs)
    indexed = list(enumerate(items))
    chunks = [indexed[start:start + size]
              for start in range(0, len(indexed), size)]
    if pool is not None:
        if context_key is None or context_factory is None:
            raise ValueError("a WorkerPool call needs a context_key and "
                             "the context_factory its workers build from")
        warm = (task_fn, context_key, context_factory, factory_args)
        return _collect(pool.imap_unordered(
            [(cid, chunk, warm) for cid, chunk in enumerate(chunks)]),
            len(items), progress, timings, on_results)

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        mp = multiprocessing.get_context("fork")
        initargs = (task_fn, context, context_factory, factory_args)
    else:  # pragma: no cover - exercised only on spawn-only platforms
        mp = multiprocessing.get_context("spawn")
        initargs = _spawn_initargs(task_fn, context, context_factory,
                                   factory_args)
        if initargs is None:
            warnings.warn(
                "parallel context is not picklable and fork is "
                "unavailable; falling back to serial execution",
                RuntimeWarning, stacklevel=2)
            return _run_serial(task_fn, items, context, context_factory,
                               factory_args, progress, timings, on_results)
    with mp.Pool(processes=min(jobs, len(chunks)),
                 initializer=_init_worker, initargs=initargs) as per_call:
        return _collect(per_call.imap_unordered(
            _run_chunk, [(cid, chunk, None)
                         for cid, chunk in enumerate(chunks)]),
            len(items), progress, timings, on_results)


def _collect(completed, total: int, progress, timings, on_results) -> List:
    """Re-assemble chunk results in item order, firing the per-chunk
    hooks as chunks complete."""
    results: List = [None] * total
    done = 0
    for chunk_id, chunk_results, elapsed in completed:
        for index, value in chunk_results:
            results[index] = value
        done += len(chunk_results)
        if timings is not None:
            timings.append((chunk_id, len(chunk_results), elapsed))
        if on_results is not None:
            on_results(list(chunk_results))
        if progress is not None:
            progress(done, total, elapsed)
    return results
