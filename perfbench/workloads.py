"""The three benchmark workloads.

Each workload is a deterministic sequence of operations derived from
the benchmark seed, run in *rounds*; a run stops starting rounds when
its ``keep_going(phase, elapsed_s)`` predicate says so.  The unit of
work the end-to-end metrics count differs per workload:

=====================  ===============================  ==============
workload               round                            unit
=====================  ===============================  ==============
``coverage-campaign``  three serial campaigns + triage  one injection
``static-pipeline``    7 kernels + 7 generated progs    one program
``serve-closed-loop``  one job                          one job
=====================  ===============================  ==============

Every operation also yields *facts*: counts that depend only on the
seed (outcome census, IR sizes, cache hits, clusters).  Two runs of one
seed must produce identical facts; a difference is nondeterminism.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import progen

#: Benchmark outputs (spans, served stores) live here, inside the
#: checkout the benchmark runs from.
OUT_DIR = ".bench_out"

#: Serve clients and pool workers per job: the load comes from one
#: process with no more threads than the machine has CPUs (2 here).
CONCURRENCY = max(1, min(2, os.cpu_count() or 1))
#: Longest wait for the server to write a finished job's state.
PERSIST_TIMEOUT_S = 30.0


@dataclass
class Phase:
    """What one timed stretch of a workload did."""

    #: Units completed (injections, programs or jobs).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds the units took (sum of operation times, or wall-clock
    #: for the concurrent serve loop).
    busy_s: float = 0.0
    rounds: int = 0
    #: Units per second of each round (serve: of each window of jobs);
    #: their median is the throughput metric, so a stretch of slower
    #: host CPU moves it less than a whole-run mean.
    rates: List[float] = field(default_factory=list)
    #: Per-unit latency samples in ms, in completion order.
    latencies_ms: List[float] = field(default_factory=list)
    #: Operation key -> deterministic facts.
    facts: Dict[str, dict] = field(default_factory=dict)
    #: Failed correctness checks (each fails the run).
    problems: List[str] = field(default_factory=list)


KeepGoing = Callable[[Phase, float], bool]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _derive(seed: int, *parts) -> int:
    from repro.parallel import derive_seed
    return derive_seed(seed, "perfbench", *parts)


def _census(counts) -> Dict[str, int]:
    return {outcome.value: n for outcome, n in
            sorted(counts.items(), key=lambda kv: kv[0].value)}


def _check_census(phase: Phase, label: str, stats, injections: int) -> None:
    if sum(stats.counts.values()) != injections:
        phase.problems.append("%s: census %s does not sum to %d injections"
                              % (label, _census(stats.counts), injections))


# -- coverage-campaign -------------------------------------------------------

class CoverageCampaign:
    """Serial, storeless, full-sweep campaigns, each followed by triage.

    radix @4 branch-flip is the reference kernel; water_nsquared @4
    branch-condition takes the operand-flip path with crashes; fft @32
    branch-flip is the paper's 32-thread setting, with 8x the threads
    for the scheduler and monitor.  Backend and opt level are the spec
    defaults.  Compilation happens in set-up.
    """

    name = "coverage-campaign"
    #: (kernel, threads, fault model, injections per campaign).
    #: fft's injections sit between radix's and water_nsquared's in
    #: cost, and it has the most per round, so the latency median falls
    #: inside one kernel's cluster rather than on a boundary.
    SLICE = (("radix", 4, "flip", 4),
             ("water_nsquared", 4, "condition", 3),
             ("fft", 32, "flip", 6))
    #: Latency tail percentile and the units a run completes at least,
    #: so the tail always has ten samples beyond it.
    TAIL_PCT = 85
    MIN_UNITS = 80
    #: Rounds of the traced run (and of its untraced twin).
    TRACE_ROUNDS = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = {}

    def spec(self, round_index: int, kernel: str, nthreads: int,
             fault: str, injections: int):
        from repro.faults import CampaignSpec
        return CampaignSpec.for_kernel(
            kernel, fault=fault, injections=injections, nthreads=nthreads,
            seed=_derive(self.seed, "campaign", round_index, kernel))

    def setup(self) -> None:
        """Cold compile of the slice's kernels, bypassing the kernel
        registry's program cache and the closure compile cache."""
        from repro.runtime import closures
        from repro.runtime.program import ParallelProgram
        closures._COMPILE_CACHE.clear()
        self.programs = {}
        for kernel, nthreads, fault, injections in self.SLICE:
            spec = self.spec(0, kernel, nthreads, fault, injections)
            source, name, entry = spec.resolved_source()
            self.programs[kernel] = ParallelProgram(
                source, name, entry=entry, opt_level=spec.opt_level,
                backend=spec.backend)

    def run(self, keep_going: KeepGoing, tracer=None) -> Phase:
        from repro.faults import run_campaign
        phase = Phase()
        started = time.perf_counter()
        while keep_going(phase, time.perf_counter() - started):
            round_units, round_busy = 0, 0.0
            for kernel, nthreads, fault, injections in self.SLICE:
                key = "r%d/%s" % (phase.rounds, kernel)
                spec = self.spec(phase.rounds, kernel, nthreads, fault,
                                 injections)
                phase.attempted += injections
                if tracer is not None:
                    tracer.set_op(key)
                    frame = tracer.begin("faults.campaign")
                samples: List[float] = []
                t0 = time.perf_counter()
                try:
                    result = run_campaign(
                        spec, program=self.programs[kernel],
                        keep_records=True, jobs=1, store=None,
                        progress=lambda d, t, s: samples.append(s * 1e3))
                    report = result.triage(spec=spec,
                                           program=self.programs[kernel])
                except Exception as exc:  # noqa: BLE001 - counted failure
                    phase.failed += injections
                    phase.problems.append("%s: %s: %s"
                                          % (key, type(exc).__name__, exc))
                    continue
                finally:
                    if tracer is not None:
                        tracer.end(frame)
                round_busy += time.perf_counter() - t0
                round_units += injections
                phase.latencies_ms.extend(samples)
                _check_census(phase, key, result.stats, injections)
                if result.golden is None or result.golden.detected:
                    phase.problems.append(
                        "%s: golden run missing or reported a detection"
                        % key)
                    continue
                phase.facts[key] = {
                    "census": _census(result.stats.counts),
                    "baseline": _census(result.stats.baseline_counts),
                    "golden_steps": result.golden.steps,
                    "witnesses": report.summary["witnesses"],
                    "clusters": report.summary["clusters"],
                    "report": digest(report.to_dict()),
                }
            phase.units += round_units
            phase.busy_s += round_busy
            if round_busy:
                phase.rates.append(round_units / round_busy)
            phase.rounds += 1
        return phase

    def pinned_key(self, phase: Phase) -> Optional[str]:
        """Hash of round 0's facts, compared against a pinned value."""
        round0 = {k: v for k, v in phase.facts.items() if k.startswith("r0/")}
        if len(round0) != len(self.SLICE):
            return None
        return digest(round0)

    def host_overhead(self, repeats: int = 3) -> float:
        """Host time of a protected FULL golden run of radix over a
        baseline run with the same seed (median of ``repeats`` pairs)."""
        from repro.splash2 import kernel as lookup
        program = self.programs["radix"]
        setup = lookup("radix").setup(4)
        ratios = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            base = program.run_baseline(4, seed=self.seed, setup=setup)
            t1 = time.perf_counter()
            prot = program.run_protected(4, seed=self.seed, setup=setup)
            t2 = time.perf_counter()
            if base.status != "ok" or prot.status != "ok" or prot.detected:
                raise RuntimeError("host-overhead runs were not clean")
            ratios.append((t2 - t1) / (t1 - t0))
        return statistics.median(ratios)

    def static_layers(self) -> None:
        """Cold ``-O2`` compile + vulnerability analysis of the slice's
        kernels: extra calls in the traced run, so the opt and vuln
        layers, which the campaigns' default level skips, are profiled
        on a gated workload too."""
        import repro.lint.vuln as vuln
        from repro.runtime.program import ParallelProgram
        from repro.splash2 import kernel as lookup
        for name, _nthreads, _fault, _injections in self.SLICE:
            kernel = lookup(name)
            vuln.analyze_program(
                ParallelProgram(kernel.source, kernel.name,
                                entry=kernel.entry, opt_level=2),
                output_globals=kernel.output_globals)

    def after(self, phase: Phase) -> None:
        pass

    def close(self) -> None:
        self.programs = {}


# -- static-pipeline ---------------------------------------------------------

class StaticPipeline:
    """Cold ``ParallelProgram(opt_level=2)`` + vulnerability analysis.

    Each round compiles the seven kernels and seven generated programs
    of 30 to 120 branch constructs (up to 2.2x raytrace, the biggest
    kernel); nothing executes.  Runnable, but not in ``BENCHMARK.json``:
    on a shared 2-CPU VM its ten-seed spread (0.3-0.4 of the median)
    exceeds the 0.25 bound, so it profiles the static layers
    (``--trace 1``) without gating them.
    """

    name = "static-pipeline"
    #: Branch constructs per generated program, one program each.
    GENERATED = (30, 45, 60, 75, 90, 105, 120)
    TAIL_PCT = 85
    MIN_UNITS = 84
    TRACE_ROUNDS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.kernels = []
        self.generated: Dict[int, list] = {}

    def setup(self) -> None:
        """Generate round 0's programs and warm the pipeline with one
        compile of the smallest kernel."""
        import repro.lint.vuln as vuln
        from repro.runtime.program import ParallelProgram
        from repro.splash2 import all_kernels, kernel
        self.kernels = [(k.name, k.source, k.entry, tuple(k.output_globals))
                        for k in all_kernels()]
        self.generated = {}
        self.programs(0)
        radix = kernel("radix")
        vuln.analyze_program(ParallelProgram(radix.source, radix.name,
                                             entry=radix.entry, opt_level=2))

    def programs(self, round_index: int) -> list:
        """Round ``round_index``'s inputs: kernels, then generated."""
        if round_index not in self.generated:
            self.generated[round_index] = [
                ("gen%d_%d" % (round_index, size),
                 progen.generate(_derive(self.seed, "progen", round_index,
                                         size), size),
                 "slave", ("out",))
                for size in self.GENERATED]
        return self.kernels + self.generated[round_index]

    def run(self, keep_going: KeepGoing, tracer=None) -> Phase:
        import repro.lint.vuln as vuln
        from repro.errors import VerificationError
        from repro.ir.verifier import verify_module
        from repro.runtime.program import ParallelProgram
        phase = Phase()
        started = time.perf_counter()
        while keep_going(phase, time.perf_counter() - started):
            round_units, round_busy = 0, 0.0
            for name, source, entry, outputs in self.programs(phase.rounds):
                key = "r%d/%s" % (phase.rounds, name)
                phase.attempted += 1
                if tracer is not None:
                    tracer.set_op(key)
                t0 = time.perf_counter()
                try:
                    program = ParallelProgram(source, name, entry=entry,
                                              opt_level=2)
                    report = vuln.analyze_program(program,
                                                  output_globals=outputs)
                except Exception as exc:  # noqa: BLE001 - counted failure
                    phase.failed += 1
                    phase.problems.append("%s: %s: %s"
                                          % (key, type(exc).__name__, exc))
                    continue
                elapsed = time.perf_counter() - t0
                round_busy += elapsed
                round_units += 1
                phase.latencies_ms.append(elapsed * 1e3)
                try:
                    verify_module(program.baseline)
                    verify_module(program.protected)
                except VerificationError as exc:
                    phase.problems.append("%s: IR verifier: %s" % (key, exc))
                errors = program.lint_report.errors
                if name.startswith("gen") and errors:
                    phase.problems.append("%s: %d race error(s) on a "
                                          "race-free program"
                                          % (key, len(errors)))
                verdicts: Dict[str, int] = {}
                for site in report.sites:
                    for model, verdict in sorted(site.predictions.items()):
                        label = "%s:%s" % (model, verdict)
                        verdicts[label] = verdicts.get(label, 0) + 1
                phase.facts[key] = {
                    "ir": [_instructions(program.baseline),
                           _instructions(program.protected)],
                    "checked_branches": len(program.metadata.branches),
                    "racy": len(program.lint_report.racy_locations),
                    "sites": len(report.sites),
                    "verdicts": verdicts,
                }
            phase.units += round_units
            phase.busy_s += round_busy
            if round_busy:
                phase.rates.append(round_units / round_busy)
            phase.rounds += 1
        return phase

    def after(self, phase: Phase) -> None:
        pass

    def close(self) -> None:
        self.generated = {}


def _instructions(module) -> int:
    return sum(1 for function in module.function_table
               for _ in function.instructions())


# -- serve-closed-loop -------------------------------------------------------

class _InputRecorder:
    """Captures a kernel's canonical inputs as serializable spec data."""

    def __init__(self):
        self.scalars: Dict[str, object] = {}
        self.arrays: Dict[str, list] = {}

    def set_scalar(self, name, value) -> None:
        self.scalars[name] = value

    def set_array(self, name, values) -> None:
        self.arrays[name] = list(values)


class ServeClosedLoop:
    """A ``repro.serve`` server on a fresh store, driven by a closed
    loop of clients that each repeat submit -> watch to end -> fetch ->
    triage.

    Jobs are small ocean_noncontig @4 campaigns submitted as inline
    source with their inputs, so every job resolves its program through
    the store.  Specs come from a seeded pool of six that share one
    program and three golden keys, so the store serves program, golden
    and triage hits besides its writes.  Jobs run with one pool worker
    per client, putting the scheduler queue and pool dispatch on the
    path.
    """

    name = "serve-closed-loop"
    KERNEL = "ocean_noncontig"
    NTHREADS = 4
    TAIL_PCT = 75
    MIN_UNITS = 40
    #: Completed jobs per throughput window.
    WINDOW = 4
    #: Rounds of the traced run: one job each.
    TRACE_ROUNDS = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.server = None
        self.root = None
        self.port = None
        self.setups = 0
        self.pool = self._pool()
        self.first = None
        self._lock = threading.Lock()
        self._triage_lock = threading.Lock()
        #: Jobs submitted to the current server; submits are serialized
        #: so this is each job's place in the server's run order.
        self._submit_lock = threading.Lock()
        self._submitted = 0
        #: perf_counter seconds at which jobs completed.
        self._completions: List[float] = []

    def _pool(self) -> list:
        from repro.faults import CampaignSpec
        from repro.splash2 import kernel as lookup
        kernel = lookup(self.KERNEL)
        recorder = _InputRecorder()
        kernel.setup_fn(recorder, self.NTHREADS, random.Random(2012))
        recorder.scalars.pop("nprocs", None)
        rng = random.Random(_derive(self.seed, "serve-pool"))
        pool = []
        for _golden in range(3):
            seed = rng.randrange(1, 2 ** 31)
            for fault in ("flip", "condition"):
                pool.append(CampaignSpec.build(
                    kernel.source, name=kernel.name, entry=kernel.entry,
                    fault=fault, injections=rng.choice((10, 11, 12)),
                    nthreads=self.NTHREADS, seed=seed,
                    output_globals=tuple(kernel.output_globals),
                    quantize_bits=kernel.sdc_quantize_bits,
                    scalars=recorder.scalars, arrays=recorder.arrays))
        return pool

    def job_spec(self, index: int):
        rng = random.Random(_derive(self.seed, "job", index))
        return self.pool[rng.randrange(len(self.pool))]

    def setup(self) -> None:
        """Fresh store and server, then one warm-up job."""
        from repro.serve import ServeClient, ServeConfig, ServerThread
        self.setups += 1
        self.root = os.path.join(OUT_DIR, "serve-store-%d-%d"
                                 % (os.getpid(), self.setups))
        shutil.rmtree(self.root, ignore_errors=True)
        self.server = ServerThread(ServeConfig(store_root=self.root,
                                               queue_size=8, max_running=1))
        self.port = self.server.start()
        self._submitted = 0
        client = ServeClient(port=self.port, timeout=60)
        client.ping()
        warm = Phase()
        self._job(client, "warm-up", self.pool[0], warm, None)
        if warm.failed or warm.problems:
            raise RuntimeError("serve warm-up job failed: %s"
                               % "; ".join(warm.problems))
        self.first = None

    def _job(self, client, key: str, spec, phase: Phase, tracer) -> None:
        """One closed-loop request cycle; failures are counted, not
        raised."""
        from repro.errors import ServeError
        from repro.serve import protocol

        def span(name):
            return tracer.begin(name) if tracer is not None else None

        def close(frame):
            if frame is not None:
                tracer.end(frame)

        with self._lock:
            phase.attempted += 1
        job_id = None
        t0 = time.perf_counter_ns()
        try:
            while job_id is None:
                frame = span("serve.submit")
                try:
                    with self._submit_lock:
                        job_id = client.submit(spec, shards=CONCURRENCY)
                        self._submitted += 1
                        position = self._submitted
                except ServeError as exc:
                    if "queue full" not in str(exc):
                        raise
                    # Backpressure: a refused op, counted as failed.
                    with self._lock:
                        phase.attempted += 1
                        phase.failed += 1
                    time.sleep(0.05)
                finally:
                    close(frame)
            submitted = time.perf_counter_ns()
            if tracer is not None:
                tracer.links[key] = job_id
            running = None
            final = None
            frame = span("serve.watch")
            try:
                for message in client.watch(job_id):
                    if (running is None and message.get("state")
                            == protocol.RUNNING):
                        running = time.perf_counter_ns()
                    if message.get("event") == "end":
                        final = message["job"]
            finally:
                if frame is not None:
                    ended = time.perf_counter_ns()
                    running = running or ended
                    tracer.record("serve.queue_wait", submitted, running,
                                  frame)
                    tracer.record("serve.run", running, ended, frame)
                    close(frame)
            if final is None or final["state"] != protocol.DONE:
                raise ServeError("job %s ended %s: %s" % (
                    job_id, final and final["state"],
                    final and final.get("error")))
            frame = span("serve.fetch")
            try:
                self._await_persisted(client, position)
                result = client.fetch(job_id)
            finally:
                close(frame)
            # One triage request in flight at a time: the store's atomic
            # write names its temp file by pid alone, so two server
            # threads missing the same triage key (two jobs of one spec)
            # race on it and one request fails.
            with self._triage_lock:
                frame = span("serve.triage_op")
                try:
                    report = client.triage(job_id)
                finally:
                    close(frame)
        except (ServeError, OSError) as exc:
            with self._lock:
                phase.failed += 1
                phase.problems.append("%s: job %s failed: %s"
                                      % (key, job_id, exc))
            return
        done = time.perf_counter_ns()
        with self._lock:
            phase.units += 1
            phase.latencies_ms.append((done - t0) / 1e6)
            self._completions.append(done / 1e9)
            _check_census(phase, key, result.stats, spec.injections)
            phase.facts[key] = {
                "plan": spec.plan_hash,
                "census": _census(result.stats.counts),
                "witnesses": report["summary"]["witnesses"],
                "clusters": report["summary"]["clusters"],
            }
            if self.first is None:
                self.first = (spec, result)

    @staticmethod
    def _await_persisted(client, position: int) -> None:
        """Wait until the server has written the final state of the
        ``position``-th job it ran.

        A job reads ``done`` as soon as its worker thread sets the
        state, before the worker's state-file write ends, and a
        ``fetch`` rewrites that file through the same temp name, so the
        two writes race and the fetch fails.  Jobs run one at a time in
        submission order, and the server counts a finished job after
        its write, so the write has ended once the counts reach
        ``position``.
        """
        from repro.errors import ServeError
        deadline = time.monotonic() + PERSIST_TIMEOUT_S
        while True:
            counters = client.status()["counters"]
            if sum(counters.get(name, 0) for name in
                   ("serve.completed", "serve.failed")) >= position:
                return
            if time.monotonic() > deadline:
                raise ServeError("job %d's final state was not written "
                                 "within %.0f s" % (position,
                                                    PERSIST_TIMEOUT_S))
            time.sleep(0.002)

    def run(self, keep_going: KeepGoing, tracer=None) -> Phase:
        from repro.serve import ServeClient
        phase = Phase()
        started = time.perf_counter()
        self._completions = [started]

        def client_loop() -> None:
            client = ServeClient(port=self.port, timeout=60)
            while True:
                with self._lock:
                    if not keep_going(phase, time.perf_counter() - started):
                        return
                    index = phase.rounds
                    phase.rounds += 1
                key = "j%d" % index
                if tracer is not None:
                    tracer.set_op(key)
                self._job(client, key, self.job_spec(index), phase, tracer)

        threads = [threading.Thread(target=client_loop,
                                    name="client-%d" % n)
                   for n in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ends = self._completions
        phase.busy_s = ends[-1] - started
        phase.rates = [self.WINDOW / (ends[i + self.WINDOW] - ends[i])
                       for i in range(0, len(ends) - self.WINDOW,
                                      self.WINDOW)]
        counters = self.server.server.scheduler.store.counters
        phase.facts["store"] = {
            name: counters.get(name, 0)
            for name in ("store.cache.hit", "store.cache.miss",
                         "store.golden.hit", "store.golden.miss")}
        return phase

    def after(self, phase: Phase) -> None:
        """The first served result must equal a serial ``run_campaign``
        of its spec (checked once, outside timing)."""
        from repro.faults import run_campaign
        from repro.triage.witness import normalize_detail
        if self.first is None:
            return
        spec, served = self.first
        serial = run_campaign(spec, keep_records=True, jobs=1, store=None)
        # Details name unnamed registers by a process-local id().
        rows = lambda result: [(r.spec, r.outcome, r.baseline_outcome,
                                normalize_detail(r.detail))
                               for r in result.records]
        if (served.stats.counts != serial.stats.counts
                or served.stats.baseline_counts
                != serial.stats.baseline_counts
                or rows(served) != rows(serial)):
            phase.problems.append("served result differs from a serial "
                                  "run_campaign of the same spec")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(drain=True)
            self.server = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


WORKLOADS = {cls.name: cls for cls in
             (CoverageCampaign, StaticPipeline, ServeClosedLoop)}
