"""Execution-engine steps/s at -O0/-O1/-O2.

Four workloads: three SPLASH-2 kernels (radix, fft, water_nsquared) and
a synthetic binop-dense kernel (40 ALU ops per loop iteration, long
straight-line runs for the block-closure engine to fuse).  Every cell is
first checked trace-identical against the -O0 run, then timed on a warm
compile cache, so the table measures steady-state execution only.

Results land in ``benchmarks/results/BENCH_interp.json`` (machine
readable, per-cell steps/s plus the per-pass optimizer metrics) and a
rendered text table with the -O2 over -O0 ratio.

``REPRO_BENCH_REPEATS`` overrides the timing repeats (default 3; the
best repeat wins, standard for throughput numbers).
"""

from __future__ import annotations

import json
import os
import time

from repro.runtime import ParallelProgram
from repro.splash2 import kernel

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

THREADS = 4
SEED = 3
KERNELS = ("radix", "fft", "water_nsquared")
LEVELS = (0, 1, 2)

_DENSE_BODY = "\n".join(
    "    acc = acc + %d; acc = acc * 3; acc = acc - i; acc = acc ^ %d;"
    % (k, k + 7) for k in range(10))

#: 40 binops per iteration x 10000 iterations x 4 threads ~= 1.8M steps.
DENSE_SOURCE = """
global int out[4];
func slave() {
  local int acc;
  local int i;
  acc = 0;
  for (i = 0; i <= 9999; i = i + 1) {
%s
  }
  out[tid()] = acc;
  output(acc);
}
""" % _DENSE_BODY


def _workloads():
    for name in KERNELS:
        spec = kernel(name)
        yield name, spec.source, spec.entry, spec.setup(THREADS)
    yield "dense", DENSE_SOURCE, "slave", None


def _signature(result):
    return (str(result.status), result.steps, dict(result.cycles),
            dict(result.branch_counts), tuple(result.outputs),
            result.parallel_time)


def _time_cell(program, setup, repeats):
    program.run_baseline(THREADS, seed=SEED, setup=setup)  # warm caches
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = program.run_baseline(THREADS, seed=SEED, setup=setup)
        best = min(best, time.perf_counter() - started)
    return result, best


def test_engine_speed_by_opt_level(benchmark, save_result):
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    table = {}
    opt_metrics = {}

    def measure():
        for name, source, entry, setup in _workloads():
            cells = {}
            reference = None
            for level in LEVELS:
                program = ParallelProgram(source, name, entry=entry,
                                          opt_level=level)
                if level:
                    summary = dict(program.baseline.opt_summary)
                    summary.pop("module", None)
                    opt_metrics.setdefault(name, {})["O%d" % level] = summary
                result, seconds = _time_cell(program, setup, repeats)
                if reference is None:
                    reference = _signature(result)
                assert _signature(result) == reference, (
                    "trace divergence: %s -O%d" % (name, level))
                cells["O%d" % level] = {
                    "steps": result.steps,
                    "seconds": seconds,
                    "steps_per_second": result.steps / seconds,
                }
            table[name] = cells
        return table

    benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = ["Engine steps/s by optimization level (t=%d, seed=%d, "
             "best of %d)" % (THREADS, SEED, repeats),
             "  %-16s %14s %14s %9s" % ("workload", "-O0", "-O2",
                                        "O2/O0")]
    speedups = {}
    for name, cells in table.items():
        base = cells["O0"]["steps_per_second"]
        fast = cells["O2"]["steps_per_second"]
        speedups[name] = fast / base
        lines.append("  %-16s %11.0f/s %11.0f/s %8.2fx"
                     % (name, base, fast, fast / base))
    payload = {
        "threads": THREADS,
        "seed": SEED,
        "repeats": repeats,
        "workloads": table,
        "speedup_o2_over_o0": speedups,
        "opt_metrics": opt_metrics,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_interp.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    save_result("interp_speed", "\n".join(lines))
