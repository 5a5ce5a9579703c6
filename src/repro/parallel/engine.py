"""The worker-pool runner.

``run_tasks(task_fn, items, ...)`` maps a pure function over independent
work items and returns the results **in item order**, regardless of how
the items were chunked or which worker finished first — so any
aggregation of the result list is automatically partition-independent.

Every ``jobs > 1`` call runs on a :class:`WorkerPool`, whose workers
keep contexts in one keyed cache and run each chunk through one loop,
:func:`_run_chunk`.  A call given no ``pool`` starts a short-lived one
and closes it when it returns, raises or is stopped by a raising
callback.  Its workers cache the caller's context as they start: under
``fork`` (where the platform has it) the context is *inherited*, not
pickled, so workers start with the parent's compiled image and never
recompile; under ``spawn`` each worker unpickles it once and keeps it
for all its chunks.  A context that cannot cross a spawn boundary runs
on the serial loop, as does ``jobs=1`` or a single item.

A ``pool`` the caller passes outlives the calls that use it (the
campaign server keeps one per server), and a call names its context by
a key.  Each chunk carries the key with a picklable ``context_factory``
and its arguments; a worker that has no context under the key builds
one with them and keeps it for later chunks and later calls.

Dispatch is chunked: items are grouped into contiguous chunks that are
consumed by an unordered ``imap``, and an optional ``progress`` callback
fires once per completed chunk with ``(done, total, chunk_seconds)``.
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


def _start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- worker-side state -------------------------------------------------------

#: Contexts a worker holds, by key, least recently used first.
_WARM: "OrderedDict[str, object]" = OrderedDict()

#: Contexts a worker keeps.
WARM_CONTEXTS = 8

#: The key a short-lived pool caches its caller's context under.
_CALL_KEY = "run_tasks"


def _seed_worker(context) -> None:
    """Pool initializer of a short-lived pool: cache the caller's
    context (inherited under fork, unpickled under spawn)."""
    _WARM[_CALL_KEY] = context


def _warm_context(key: str, context_factory: Optional[Callable],
                  factory_args: Tuple):
    try:
        ctx = _WARM[key]
    except KeyError:
        ctx = _WARM[key] = context_factory(*factory_args)
    _WARM.move_to_end(key)
    while len(_WARM) > WARM_CONTEXTS:
        _WARM.popitem(last=False)
    return ctx


def _run_chunk(payload):
    """Run one chunk: ``(chunk_id, [(index, item), ...], (task_fn, key,
    context_factory, factory_args))``.  A short-lived pool's chunks
    carry no factory: its workers were seeded at their start."""
    chunk_id, chunk, (fn, key, context_factory, factory_args) = payload
    ctx = _warm_context(key, context_factory, factory_args)
    started = time.perf_counter()
    out = [(index, fn(ctx, item)) for index, item in chunk]
    return chunk_id, out, time.perf_counter() - started


class WorkerPool:
    """A process pool whose workers keep the contexts they build, by key.

    The pool starts its ``processes`` workers at its first use, not at
    construction, and keeps them until :meth:`close`.  A call that fails
    or stops early abandons its chunks still in flight: they run to
    their end and their results are dropped, and the pool stays usable.
    Workers are forked where the platform can, else spawned.
    """

    def __init__(self, processes: int):
        self.processes = max(1, int(processes))
        self._pool = None
        self._lock = threading.Lock()
        #: ``_seed_worker``'s arguments, for a short-lived pool.
        self._seed: Optional[Tuple] = None

    def _started(self):
        with self._lock:
            if self._pool is None:
                mp = multiprocessing.get_context(_start_method())
                self._pool = mp.Pool(
                    processes=self.processes,
                    initializer=None if self._seed is None else _seed_worker,
                    initargs=self._seed or ())
            return self._pool

    def imap_unordered(self, payloads):
        return self._started().imap_unordered(_run_chunk, payloads)

    def close(self) -> None:
        """Terminate and join the workers (a later use starts anew)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()


# -- driver ------------------------------------------------------------------

def _run_serial(task_fn, items, context, progress, timings,
                on_results) -> List:
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


def _seed_args(context) -> Optional[Tuple]:
    """``_seed_worker``'s arguments, or None where spawn workers cannot
    unpickle them."""
    seed = (context,)
    if _start_method() == "fork":
        return seed
    try:
        pickle.dumps(seed)
    except Exception:
        return None
    return seed


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
    delivered for free under fork, unpickled once per spawn worker.
    With no ``pool``, the call starts a :class:`WorkerPool` of its own
    and closes it before it returns.  A ``pool``'s workers instead
    build the context with ``context_factory(*factory_args)``, once
    per worker and ``context_key``; the two are accepted only with
    ``pool``.  The serial loop (``jobs=1``) uses ``context``.
    Exceptions raised by any task propagate.

    ``timings``, when given a list, receives one ``(chunk_id, items,
    seconds)`` tuple per completed dispatch unit — the per-worker
    wall-clock record campaign telemetry aggregates.

    ``on_results`` is called **in the parent process** with each
    completed dispatch unit's ``[(item_index, result), ...]`` pairs, in
    completion (not item) order — the checkpoint hook: a crash loses at
    most the chunks whose callback had not yet run.
    """
    own = pool is None
    if own and (context_factory is not None or factory_args):
        raise ValueError("context_factory and factory_args need a "
                         "WorkerPool; a short-lived pool gets the context")
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items)) if items else 1
    if jobs > 1 and own:
        seed = _seed_args(context)
        if seed is None:
            warnings.warn(
                "parallel context is not picklable and fork is "
                "unavailable; falling back to serial execution",
                RuntimeWarning, stacklevel=2)
            jobs = 1
    if jobs <= 1:
        return _run_serial(task_fn, items, context, progress, timings,
                           on_results)

    size = chunk_size if chunk_size else default_chunk_size(len(items), jobs)
    indexed = list(enumerate(items))
    chunks = [indexed[start:start + size]
              for start in range(0, len(indexed), size)]
    if own:
        pool = WorkerPool(min(jobs, len(chunks)))
        pool._seed = seed
        warm = (task_fn, _CALL_KEY, None, ())
    elif context_key is None or context_factory is None:
        raise ValueError("a WorkerPool call needs a context_key and "
                         "the context_factory its workers build from")
    else:
        warm = (task_fn, context_key, context_factory, factory_args)
    try:
        return _collect(pool.imap_unordered(
            [(cid, chunk, warm) for cid, chunk in enumerate(chunks)]),
            len(items), progress, timings, on_results)
    finally:
        if own:
            pool.close()


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
