"""Process-pool execution engine for campaign-shaped workloads.

Fault-injection campaigns, false-positive trials, and the overhead
figures all consist of hundreds of *independent* simulator runs — the
classic embarrassingly parallel shape.  This package fans them out
across cores while keeping every result bit-identical to serial
execution:

* :func:`run_tasks` — the generic pool runner (fork-first, spawn
  fallback, serial last resort; ``jobs=1`` never touches a pool);
* :class:`WorkerPool` — the one pool: short-lived for a call given
  none, or long-lived across the calls it serves; its workers keep
  their contexts by key;
* :func:`derive_seed` / :func:`stable_hash` — hash-stable seed
  derivation, so any partitioning of the work reproduces the same
  per-item RNG streams across processes and interpreter invocations;
* :func:`resolve_jobs` — the ``jobs`` / ``REPRO_JOBS`` policy shared by
  every campaign entry point.
"""

from repro.parallel.engine import (
    WorkerPool,
    available_cpus,
    resolve_jobs,
    run_tasks,
)
from repro.parallel.seeds import derive_seed, stable_hash

__all__ = [
    "WorkerPool",
    "available_cpus",
    "derive_seed",
    "resolve_jobs",
    "run_tasks",
    "stable_hash",
]
