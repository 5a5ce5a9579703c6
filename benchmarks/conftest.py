"""Benchmark harness support.

Every bench regenerates one table/figure of the paper (the real work
happens once via ``benchmark.pedantic(rounds=1)``), prints it, and saves
the rendered text under ``benchmarks/results/`` so EXPERIMENTS.md can
reference the latest regeneration.

Scaling knobs (environment), read as ``repro figures`` reads them
(:func:`repro.experiments.runner.size_settings`) and passed to
``compute`` by the :func:`sizes` fixture:

``REPRO_FAULTS``    injections per campaign cell for Figures 8/9
                    (default 60; the paper used 1000)
``REPRO_THREADS``   thread counts for the coverage figures (default 4,32)
``REPRO_FP_RUNS``   error-free runs per program (default 100, as in the
                    paper)

``REPRO_JOBS`` (worker processes, 0 = all cores; default serial) is the
library's own default for ``jobs``; results are bit-identical to serial
runs, only faster.
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Cores (and worker processes) below which a parallel-speedup
#: assertion is meaningless.  The single, shared gate for every bench
#: that measures wall-clock scaling — see :func:`multicore_jobs`.
MIN_SPEEDUP_CORES = 4


@pytest.fixture
def multicore_jobs() -> int:
    """Worker count for speedup benches: ``$REPRO_JOBS`` or all cores.

    Skips the requesting test *up front* — before any campaign work —
    when fewer than :data:`MIN_SPEEDUP_CORES` cores (or jobs) are
    available.  This matches the suite-wide ``slow``-marker convention:
    a box that cannot demonstrate the speedup contract deselects the
    bench instead of spending minutes computing matrices only to skip
    the final assertion (the pre-PR-9 behavior).
    """
    from repro.parallel import available_cpus, resolve_jobs

    env_jobs = os.environ.get("REPRO_JOBS", "").strip()
    jobs = resolve_jobs(int(env_jobs)) if env_jobs else available_cpus()
    if jobs < MIN_SPEEDUP_CORES or available_cpus() < MIN_SPEEDUP_CORES:
        pytest.skip(
            "parallel-speedup bench needs >= %d cores and jobs >= %d "
            "(have %d cores, jobs=%d)"
            % (MIN_SPEEDUP_CORES, MIN_SPEEDUP_CORES, available_cpus(),
               jobs))
    return jobs


@pytest.fixture
def sizes():
    """``compute`` keyword arguments from the environment, per
    experiment; an unset variable passes nothing, so ``compute`` keeps
    its own default."""
    from repro.experiments.runner import size_settings
    env = size_settings()
    given = lambda **kwargs: {k: v for k, v in kwargs.items()
                              if v is not None}
    return {"coverage": given(injections=env["injections"],
                              thread_counts=env["threads"]),
            "false_positives": given(runs=env["runs"])}


@pytest.fixture
def save_result():
    def save(name: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, name + ".txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print()
        print(text)
    return save
