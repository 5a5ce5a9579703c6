#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload coverage-campaign --seed 2012 \\
        --seconds 30 --trace 0

``--workload`` is ``coverage-campaign`` or ``serve-closed-loop``, the
two workloads ``BENCHMARK.json`` gates, or ``static-pipeline``, which
profiles the compile pipeline but is too noisy on a shared VM to gate
(see ``workloads.py``).  The seed generates every input; the same seed
gives the same inputs.

``--trace 0`` times the workload with nothing patched: whole rounds run
until ``--seconds`` have passed and the workload's minimum sample count
is reached, and set-up is timed in four fresh processes before that and
four after it (mean reported).  The last stdout line is a JSON object with the end-to-end
metrics, each workload's *operation* being its unit of work (an
injection, a program, a job):

================  =====================================================
``setup_s``       compile, server start and store warm-up (mean over 8
                  fresh processes, 4 before and 4 after the timed run)
``peak_rss_mb``   peak resident memory of this process (the served
                  workload runs its server in-process)
``ops_per_s``     injections_per_s (campaign wall-clock, golden runs and
                  triage included) / programs_per_s / jobs_per_s; the
                  median over rounds (serve: over windows of 4 jobs), so
                  a stretch of slower host CPU moves it less than a
                  whole-run mean would
``op_latency_ms_  per injection / compile_ms_p50 (compile + analyze +
p50``             lint + instrument + opt + vuln) / job_latency_s_p50
                  (submit sent to triage received), in ms
``op_latency_ms_  a fixed percentile per workload (p85, p85, p75) that
tail``            the minimum sample count keeps at least ten samples
                  beyond; percentile and sample count are printed above
                  the JSON line
================  =====================================================

``failed_share`` is the JSON object's ``failed / attempted``: exceptions,
timeouts, serve queue-full refusals and jobs ending ``failed`` count as
failed operations; ``not_activated``, ``crash`` and ``hang`` injections
are outcomes, not failures.

``--trace 1`` runs a fixed number of rounds twice on the same inputs:
untraced, then traced by :mod:`layers` (set-up included), and reports
every per-layer metric, each layer's self time, and the tracing
overhead (traced minus untraced, as a share of untraced).  Spans are
written to ``.bench_out/spans-<workload>-<seed>.json`` when the run
ends.  The deterministic facts of the two passes (outcome census, IR
sizes, cache hits and misses, witnesses, clusters) must be identical;
any difference is reported as nondeterminism and fails the run.

Every run clears ``REPRO_STORE``, ``REPRO_JOBS``, ``REPRO_BACKEND`` and
``REPRO_OPT_LEVEL`` first, so the campaigns use the spec defaults, and
prints the resolved backend and opt level.  A failed correctness check
prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The seed whose coverage-campaign round 0 is pinned below.
DEFAULT_SEED = 2012
#: Set-up is timed once in each of this many fresh interpreters, half
#: before the timed run and half after it, and the mean reported.  The
#: host's speed shifts in stretches of seconds (coverage-campaign's
#: set-up reads 0.085 s in every process of one run and 0.145 s in
#: every process of another), and within one process every repeat
#: reads the same, so repeats in one process or one burst would sample
#: one host state; a median of two states jumps between them.
SETUP_PROCESSES = 8
SETUP_TIMEOUT_S = 30.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
#: No run starts new rounds after this long, whatever else holds, so a
#: workload whose operations keep failing still ends in time.
HARD_STOP_S = 120.0

#: Round-0 facts hash of coverage-campaign at DEFAULT_SEED: outcome
#: census, baseline census, golden steps and triage report of each
#: campaign.  A change means the campaigns no longer compute what they
#: did when the benchmark was defined.
PINNED_COVERAGE_ROUND0 = (
    "ed00b01aa2c9746ab2a397a4b1c76657b4035054a8f3881135480d38d05ad7d0")

ISOLATED_ENV = ("REPRO_STORE", "REPRO_JOBS", "REPRO_BACKEND",
                "REPRO_OPT_LEVEL")


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of ``samples``."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples):
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples beyond it (the maximum when there are too few).
    Used for the traced run's injection latencies, whose count is fixed
    by the traced rounds."""
    fitting = [p for p in TAIL_LADDER
               if len(samples) * (100 - p) / 100.0 >= 10]
    if not fitting:
        return 100, max(samples)
    return fitting[-1], percentile(samples, fitting[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def say(text: str) -> None:
    print(text, flush=True)


# -- trace 0 ------------------------------------------------------------------

UNIT_NAMES = {
    "coverage-campaign": ("injections_per_s", "injection_ms", 1.0, "ms"),
    "static-pipeline": ("programs_per_s", "compile_ms", 1.0, "ms"),
    "serve-closed-loop": ("jobs_per_s", "job_latency_s", 1e-3, "s"),
}


def timed_setup(workload) -> float:
    workload.close()
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def fresh_setup_s(workload_name: str, seed: int) -> float:
    """Seconds one set-up takes in a new interpreter (``--setup-only``)."""
    import subprocess
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         workload_name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("set-up process failed: %s"
                           % done.stderr.strip()[-2000:])
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float):
    fresh_setups = lambda: [fresh_setup_s(workload.name, workload.seed)
                            for _ in range(SETUP_PROCESSES // 2)]
    setups = fresh_setups()
    workload.setup()
    minimum = workload.MIN_UNITS
    phase = workload.run(lambda ph, elapsed: elapsed < HARD_STOP_S and (
        elapsed < seconds or ph.units < minimum))
    workload.after(phase)
    workload.close()
    setups += fresh_setups()
    if phase.units < minimum or not phase.rates:
        phase.problems.append("only %d of at least %d operations completed"
                              % (phase.units, minimum))
        return phase, {}
    pct = workload.TAIL_PCT
    tail_ms = percentile(phase.latencies_ms, pct)
    metrics = {
        "setup_s": (statistics.mean(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_per_s": (statistics.median(phase.rates), "1/s"),
        "op_latency_ms_p50": (percentile(phase.latencies_ms, 50), "ms"),
        "op_latency_ms_tail": (tail_ms, "ms"),
    }
    rate, latency, scale, unit = UNIT_NAMES[workload.name]
    say("%s = %.4f 1/s (median of %d rates; %d in %.2f s, %d round(s))"
        % (rate, metrics["ops_per_s"][0], len(phase.rates), phase.units,
           phase.busy_s, phase.rounds))
    say("%s_p50 = %.4f %s" % (latency, metrics["op_latency_ms_p50"][0]
                              * scale, unit))
    say("%s_tail = %.4f %s (p%s of %d samples)"
        % (latency, tail_ms * scale, unit, pct, len(phase.latencies_ms)))
    say("setup_s = %.4f s (mean of %s)"
        % (metrics["setup_s"][0], ", ".join("%.4f" % s for s in setups)))
    say("peak_rss_mb = %.1f MB" % metrics["peak_rss_mb"][0])
    return phase, metrics


# -- trace 1 ------------------------------------------------------------------

def traced(workload, seed: int):
    from layers import LAYERS, Tracer

    rounds = workload.TRACE_ROUNDS
    keep_going = lambda phase, elapsed: phase.rounds < rounds
    workload.setup()
    untraced = workload.run(keep_going)
    workload.close()

    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        workload.setup()
        phase = workload.run(keep_going, tracer=tracer)
        wall_ms = (time.perf_counter() - started) * 1e3
    finally:
        tracer.uninstall()
    extra = {}
    if hasattr(workload, "host_overhead"):
        extra["monitor.host_overhead"] = workload.host_overhead()
    if hasattr(workload, "static_layers"):
        tracer.install()
        started = time.perf_counter()
        try:
            workload.static_layers()
        finally:
            tracer.uninstall()
        wall_ms += (time.perf_counter() - started) * 1e3
    workload.after(phase)
    workload.close()
    phase.problems.extend(untraced.problems)
    for key in sorted(set(untraced.facts) | set(phase.facts)):
        if untraced.facts.get(key) != phase.facts.get(key):
            phase.problems.append(
                "nondeterminism: %s differs between two runs of seed %d: "
                "%s != %s" % (key, seed, untraced.facts.get(key),
                              phase.facts.get(key)))

    table = tracer.by_name()
    counts = tracer.counts()
    counts.update(tracer.store_counters())
    ms = lambda name: table.get(name, {}).get("ns", 0) / 1e6
    calls = lambda name: table.get(name, {}).get("calls", 0)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("frontend.compile_source", "analysis.analyze_module",
                 "lint.lint_module", "lint.vuln.analyze_program",
                 "instrument.instrument_module", "opt.optimize_module",
                 "runtime.golden", "runtime.closure_compile",
                 "monitor.drain", "parallel.run_tasks", "store.get_program",
                 "store.get_golden", "store.journal.append", "store.put",
                 "serve.submit", "serve.queue_wait", "serve.run",
                 "serve.fetch", "serve.triage_op",
                 "triage.triage_campaign", "triage.observe"):
        put(name + ".ms", ms(name), "ms")
    for name in ("frontend.compile_source", "analysis.analyze_module",
                 "monitor.drain"):
        put(name + ".calls", calls(name), "count")
    for name in ("frontend.ir_instructions", "analysis.checked_branches",
                 "lint.racy_locations", "opt.ir_instructions_removed",
                 "runtime.steps", "monitor.messages",
                 "store.journal.appends", "store.bytes_written",
                 "triage.witnesses", "triage.clusters"):
        put(name, counts[name], "B" if name.endswith("bytes_written")
            else "count")
    for kind, hit, miss in (("program", "store.cache.hit",
                             "store.cache.miss"),
                            ("golden", "store.golden.hit",
                             "store.golden.miss"),
                            ("triage", "store.triage.hit",
                             "store.triage.miss")):
        put("store.%s.hit" % kind, counts[hit], "count")
        put("store.%s.miss" % kind, counts[miss], "count")
    run_s = ms("runtime.run") / 1e3
    put("runtime.steps_per_s",
        counts["runtime.steps"] / run_s if run_s else 0.0, "1/s")
    put("monitor.host_overhead", extra.get("monitor.host_overhead", 0.0),
        "ratio")

    injections = counts["faults.injections"]
    samples = tracer.samples("faults.injection_ms")
    pct, tail_ms = tail(samples) if samples else (0, 0.0)
    put("faults.injection.ms_p50",
        percentile(samples, 50) if samples else 0.0, "ms")
    put("faults.injection.ms_tail", tail_ms, "ms")
    put("faults.injection.tail_pct", pct, "%")
    put("faults.injection.samples", len(samples), "count")
    share = lambda n: n / injections if injections else 0.0
    put("faults.activated_share",
        share(injections - counts["faults.outcome.not_activated"]), "share")
    put("faults.hang_share", share(counts["faults.outcome.hang"]), "share")
    base = counts["faults.replay_base_steps"]
    put("faults.replay_ratio",
        counts["faults.injection_steps"] / base if base else 0.0, "ratio")
    for outcome in ("not_activated", "masked", "detected", "crash", "hang",
                    "sdc"):
        put("faults.outcome." + outcome,
            counts["faults.outcome." + outcome], "count")
    put("parallel.dispatch_overhead.ms",
        counts["parallel.dispatch_overhead_ns"] / 1e6, "ms")

    selfs = tracer.layer_self_ns()
    for layer in LAYERS:
        put(layer + ".self_ms", selfs.get(layer, 0) / 1e6, "ms")
    put("trace.wall_ms", wall_ms, "ms")
    put("trace.attributed_share",
        sum(selfs.values()) / 1e6 / wall_ms, "share")
    put("trace.overhead_share",
        (phase.busy_s - untraced.busy_s) / untraced.busy_s
        if untraced.busy_s else 0.0, "share")
    attempted = untraced.attempted + phase.attempted
    put("failed_share", (untraced.failed + phase.failed) / attempted
        if attempted else 0.0, "share")

    tracer.dump(os.path.join(ROOT, ".bench_out", "spans-%s-%d.json"
                             % (workload.name, seed)),
                extra={"workload": workload.name, "seed": seed,
                       "facts": phase.facts})
    top = sorted(((v, k) for k, v in selfs.items() if v), reverse=True)
    say("self time by layer: " + ", ".join(
        "%s %.1f ms" % (k, v / 1e6) for v, k in top))
    say("tracing overhead: %.4f (traced %.3f s vs untraced %.3f s)"
        % (metrics["trace.overhead_share"][0], phase.busy_s,
           untraced.busy_s))
    phase.attempted, phase.failed = attempted, untraced.failed + phase.failed
    return phase, metrics


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of the workload in this "
                        "process and print the seconds (used by --trace 0)")
    args = parser.parse_args(argv)

    for var in ISOLATED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    import workloads
    from repro.runtime.program import resolve_backend, resolve_opt_level
    from repro.store.runtime import set_default_store
    # Lazily imported layers: import them now, so neither set-up nor the
    # first timed operation pays for module loading.
    import repro.lint.vuln, repro.opt, repro.serve, repro.triage  # noqa

    set_default_store(None)
    end_to_end, per_layer = declared_metrics()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have %s)" % (
            args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    say("workload %s seed %d backend %s opt_level %d"
        % (args.workload, args.seed, resolve_backend(), resolve_opt_level()))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            say("%.9f" % timed_setup(workload))
            return 0
        if args.trace:
            phase, metrics = traced(workload, args.seed)
            declared = per_layer
        else:
            phase, metrics = measure(workload, args.seconds)
            declared = end_to_end
    finally:
        workload.close()

    if args.workload == "coverage-campaign":
        key = workload.pinned_key(phase)
        say("coverage round-0 facts hash %s" % key)
        if (args.seed == DEFAULT_SEED and key is not None
                and PINNED_COVERAGE_ROUND0 is not None
                and key != PINNED_COVERAGE_ROUND0):
            phase.problems.append(
                "round-0 census/triage hash %s != pinned %s"
                % (key, PINNED_COVERAGE_ROUND0))
    say("facts digest %s (%d operation(s))"
        % (workloads.digest(phase.facts), len(phase.facts)))
    say("failed_share = %.4f (%d of %d)" % (
        phase.failed / phase.attempted if phase.attempted else 0.0,
        phase.failed, phase.attempted))
    if metrics and set(metrics) != set(declared):
        phase.problems.append("metrics do not match BENCHMARK.json: %s"
                              % sorted(set(metrics) ^ set(declared)))
    for problem in phase.problems:
        say("CHECK FAILED: " + problem)
    correct = not phase.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, phase.attempted),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())
                    if name in declared},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
