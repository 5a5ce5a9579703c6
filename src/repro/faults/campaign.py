"""Fault-injection campaigns (paper Section IV, *Coverage Evaluation*).

One campaign = one (program, fault type, thread count): a golden run
establishes the reference output, the per-thread dynamic branch counts
and the thread similarity classes, then ``n`` single-fault runs are
classified into masked / detected / crash / hang / SDC.  Coverage is
reported both with BLOCKWATCH (detections count) and for the original
program (detections ignored — the run's underlying fate is used), which
is how the paper's Figures 8 and 9 pair their bars.

The golden run also leaves a few machine checkpoints behind
(:mod:`repro.runtime.golden`); each fault run resumes from the latest
one before its fault site, so only the suffix after it executes.

A campaign's plan is one list of :class:`PlannedFault` entries, built
in the parent before dispatch: a full sweep derives each injection's
:class:`FaultSpec` from ``(base_seed, injection_index)`` via a stable
hash (:func:`plan_injection`), a stratified campaign draws them per
predicted class (:func:`plan_stratified`).  Campaigns run through
:mod:`repro.parallel`, where one task executes any entry, so any
partitioning of the work across worker processes yields exactly the
records — and the aggregated :class:`CampaignStats` — of a serial run.
``jobs=1`` (the default) stays on the plain in-process loop.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.faults.injector import InjectingHook, plan_fault
from repro.faults.models import FaultSpec, FaultType
from repro.faults.outcomes import CampaignStats, Outcome
from repro.faults.spec import CampaignSpec
from repro.monitor import MonitorMode
from repro.parallel import derive_seed, run_tasks
from repro.runtime.golden import (GoldenRecorder, group_streams,
                                  select_checkpoint)
from repro.runtime.machine import Checkpoint, RunResult
from repro.runtime.memory import SharedMemory
from repro.runtime.program import ParallelProgram, RunConfig
from repro.telemetry import Telemetry, TelemetrySnapshot
from repro.telemetry import write_trace as _write_trace_file

if TYPE_CHECKING:
    from repro.store.artifacts import GoldenSummary


@dataclass
class CampaignConfig:
    """Knobs of one campaign."""

    nthreads: int = 4
    #: Injections per campaign; the paper uses 1000 per fault type.
    injections: int = 120
    #: Base seed: drives both the schedule and the fault plan.
    seed: int = 12345
    #: Globals compared against the golden run for SDC classification
    #: (per-thread output() streams are schedule-sensitive, so kernels
    #: put their results in arrays indexed by logical id instead).
    output_globals: Tuple[str, ...] = ()
    #: Low-order bits ignored when comparing integer results — the
    #: analogue of comparing a real benchmark's *printed* output, which
    #: only carries a handful of significant digits.  0 = exact.
    quantize_bits: int = 0
    #: Hang budget: multiple of the golden run's instruction count.
    hang_factor: int = 10
    quantum: int = 32


@dataclass
class InjectionRecord:
    """One injection and its classification (kept for debugging/tests)."""

    spec: FaultSpec
    outcome: Outcome
    baseline_outcome: Outcome
    flipped_branch: bool
    detail: str = ""
    #: Per-injection metrics + trace events (None unless the campaign
    #: ran with telemetry); picklable, so it crosses worker boundaries.
    telemetry: Optional[TelemetrySnapshot] = None
    #: How the trial ended early (:attr:`RunResult.cut`): "" (ran in
    #: full), "settled" (stopped checking after the first violation) or
    #: "rejoined" (stopped at an exact golden re-join).  Bookkeeping,
    #: not part of the result: it depends on whether the campaign had
    #: golden checkpoints, so it is not compared.
    cut: str = field(default="", compare=False)


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    ``stats`` is the aggregated census; ``telemetry`` (when the campaign
    ran with ``telemetry=True``) is the bit-identical-under-partitioning
    merge of the golden run's and every injection's snapshot, and carries
    the full event trace.
    """

    stats: CampaignStats
    records: list = field(default_factory=list)
    golden: Optional[RunResult] = None
    telemetry: Optional[TelemetrySnapshot] = None
    #: ``plan="stratified"`` only: the planner's JSON-safe summary —
    #: per-class strata (weight, planned draws, outcome counts) and the
    #: reweighted full-sweep coverage estimates.
    stratified: Optional[dict] = None
    #: Thread similarity classes recorded by the golden run: sorted tid
    #: lists ordered by least member (see repro.runtime.golden).
    thread_classes: List[List[int]] = field(default_factory=list)
    #: The golden run's :class:`~repro.store.artifacts.GoldenSummary`,
    #: on a golden-cache hit too (its branch streams attribute records
    #: to static sites: :func:`site_streams`).  In memory only: a
    #: result read back from its wire form has none.
    summary: Optional["GoldenSummary"] = field(default=None, compare=False,
                                               repr=False)

    @property
    def trace_events(self) -> List[dict]:
        """The campaign's merged events in canonical (inj, seq) order."""
        return list(self.telemetry.events) if self.telemetry else []

    def write_trace(self, path: str) -> int:
        """Serialize the merged event trace as JSONL; returns the event
        count.  Requires the campaign to have run with telemetry."""
        if self.telemetry is None:
            raise ValueError(
                "campaign ran without telemetry; run a spec with "
                "telemetry=True to record a trace")
        return _write_trace_file(path, self.telemetry.events)

    def triage(self, spec=None, program=None, store=None,
               merge_distance: int = 1):
        """Cluster this campaign's failure witnesses and flag
        performance anomalies; returns a
        :class:`repro.triage.TriageReport`.

        Requires the campaign to have kept its records
        (``keep_records=True``).  The thread similarity classes are the
        ones the golden run recorded; ``spec`` and ``program``, when
        given, are checked to describe this campaign.  A ``store``
        caches the finished report as a content-addressed artifact.
        """
        from repro.triage import triage_campaign
        return triage_campaign(self, spec=spec, program=program,
                               store=store, merge_distance=merge_distance)


def quantize_signature(signature, bits: int):
    """Drop ``bits`` low-order bits from every integer in a signature
    (recursively through the nested tuples) and map every finite float
    to ``round(value / 2**bits)``: an absolute step of ``2**bits``."""
    if bits <= 0:
        return signature

    def q(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value >> bits
        if isinstance(value, float):
            scale = float(1 << bits)
            try:
                return round(value / scale)
            except (OverflowError, ValueError):
                return value
        if isinstance(value, tuple):
            return tuple(q(v) for v in value)
        return value

    return q(signature)


def golden_run(program: ParallelProgram, config: CampaignConfig,
               setup: Optional[Callable[[SharedMemory], None]],
               recorder: GoldenRecorder,
               telemetry: Optional[Telemetry] = None) -> RunResult:
    """The campaign's fault-free reference run; ``recorder`` collects its
    branch streams and checkpoints."""
    result = program.run(
        RunConfig(nthreads=config.nthreads, seed=config.seed,
                  monitor_mode=MonitorMode.FULL, quantum=config.quantum,
                  telemetry=telemetry),
        setup=setup, recorder=recorder)
    if result.status != "ok":
        raise RuntimeError("golden run failed: %s (%s)"
                           % (result.status, result.failure_message))
    if result.detected:
        raise RuntimeError("false positive in golden run: %s"
                           % result.violations[0])
    return result


def _golden_summary_of(golden: RunResult, recorder: GoldenRecorder,
                       config: CampaignConfig):
    """The light, cacheable facts a campaign needs from its golden run."""
    from repro.store.artifacts import GoldenSummary
    return GoldenSummary(
        signature=golden.output_signature(config.output_globals),
        branch_counts=dict(golden.branch_counts),
        steps=golden.steps,
        thread_classes=group_streams(recorder.streams,
                                     len(golden.branch_counts)),
        streams=recorder.streams,
        branch_sites=tuple(recorder.sites))


def site_streams(summary: "GoldenSummary", program: ParallelProgram,
                 report) -> Dict[int, List[int]]:
    """The golden run's branch streams as static fault sites of
    ``report`` (a :class:`~repro.lint.vuln.VulnReport` of ``program``):
    ``streams[tid][k-1]`` is the site id of thread ``tid``'s ``k``-th
    dynamic branch, the ``(thread, k)`` coordinates a
    :class:`FaultSpec` targets.  Maps what the golden run recorded; runs
    nothing."""
    from repro.lint.vuln import branch_site_map
    site_of = {(branch.parent.parent.name, branch.parent.name): site
               for branch, site
               in branch_site_map(program.protected, report).items()}
    table = [site_of[block] for block in summary.branch_sites]
    return {tid: [table[symbol >> 1] for symbol in stream]
            for tid, stream in summary.streams.items()}


def injection_seed(base_seed: int, fault_type: FaultType, index: int) -> int:
    """The seed of injection ``index``'s planning RNG, derived from
    ``(base_seed, fault_type, index)`` by a stable hash — independent of
    the process, of ``PYTHONHASHSEED``, and of how a campaign is
    partitioned across workers."""
    return derive_seed(base_seed, "injection", fault_type.value, index)


def plan_injection(fault_type: FaultType, branch_counts: Dict[int, int],
                   base_seed: int, index: int) -> Optional[FaultSpec]:
    """Plan the ``index``-th injection of a campaign.  Each injection
    owns an independent RNG (counter-mode derivation), so the plan for
    index ``i`` never depends on how many random draws injections
    ``0..i-1`` consumed — the property that makes any work partitioning
    reproduce the serial fault plan."""
    rng = random.Random(injection_seed(base_seed, fault_type, index))
    return plan_fault(fault_type, branch_counts, rng)


@dataclass(frozen=True)
class PlannedFault:
    """One entry of a campaign's plan."""

    #: The seed the fault was planned from: the ``seed`` tag of the
    #: injection's trace events.
    seed: int
    spec: FaultSpec
    #: The predicted class a stratified plan drew the fault for.
    stratum: str = ""


@dataclass
class _CampaignContext:
    """Per-worker campaign state: the compiled program plus the golden
    artifacts every injection classifies against and resumes from.
    Built once in the parent: fork workers inherit it, checkpoints
    included; spawn workers unpickle it without them (its injections
    start at step 0).  A :class:`~repro.parallel.WorkerPool` worker
    gets every field but the program, the setup and the checkpoints
    with each chunk, and resolves those itself
    (:func:`_context_in_worker`)."""

    program: ParallelProgram
    config: CampaignConfig
    setup: Optional[Callable[[SharedMemory], None]]
    golden_signature: Tuple
    max_steps: int
    #: Collect per-injection telemetry snapshots + trace events.
    telemetry: bool = False
    #: The golden run's checkpoints, in run order (empty: step 0 only).
    checkpoints: Tuple[Checkpoint, ...] = ()
    #: :func:`repro.store.hashing.golden_fingerprint` of the golden run.
    golden_fingerprint: str = ""

    def __getstate__(self):
        # Checkpoints point into this process's compiled closures, the
        # reason a Module pickles without its closure cache.
        state = dict(self.__dict__)
        state["checkpoints"] = ()
        return state


def _campaign_context(spec: CampaignSpec, store,
                      program: Optional[ParallelProgram], setup,
                      telemetry: Optional[Telemetry]
                      ) -> Tuple[Optional[RunResult], object,
                                 _CampaignContext]:
    """Resolve what every injection of ``spec`` needs: the program and
    setup (the spec's own when None) and the golden run, which comes
    from ``store``'s golden LRU unless it records into ``telemetry`` or
    its inputs have no canonical form.  Returns ``(golden run or None
    on a cache hit, GoldenSummary, context)``."""
    from repro.store.hashing import golden_fingerprint, setup_inputs
    if program is None:
        program = spec.resolve_program(store)
    if setup is None:
        setup = spec.default_setup()
    config = spec.campaign_config()
    golden: Optional[RunResult] = None
    inputs = setup_inputs(setup)
    if store is not None and telemetry is None and inputs is not None:
        def compute():
            recorder = GoldenRecorder()
            run = golden_run(program, config, setup, recorder)
            return (_golden_summary_of(run, recorder, config),
                    tuple(recorder.checkpoints))

        summary, checkpoints = store.get_golden(
            program, config.nthreads, config.seed, config.quantum,
            tuple(config.output_globals), compute=compute, inputs=inputs)
    else:
        recorder = GoldenRecorder()
        golden = golden_run(program, config, setup, recorder,
                            telemetry=telemetry)
        summary = _golden_summary_of(golden, recorder, config)
        checkpoints = tuple(recorder.checkpoints)
    ctx = _CampaignContext(
        program=program, config=config, setup=setup,
        golden_signature=quantize_signature(summary.signature,
                                            config.quantize_bits),
        max_steps=max(summary.steps * config.hang_factor,
                      summary.steps + 100_000),
        telemetry=spec.telemetry, checkpoints=checkpoints,
        golden_fingerprint=golden_fingerprint(
            summary.signature, summary.branch_counts, summary.steps))
    return golden, summary, ctx


def _context_in_worker(light: _CampaignContext, spec: CampaignSpec,
                       store_root: Optional[str]) -> _CampaignContext:
    """:class:`~repro.parallel.WorkerPool` factory: ``light`` (the
    parent's context without program, setup and checkpoints) completed
    in the worker by :func:`_campaign_context` through the worker's own
    handle on the store, whose LRUs share programs and golden runs
    between specs.  A telemetry spec's golden run records into a
    private collector, so its checkpoints carry the prefix metrics the
    parent's do.  A golden run that differs from the parent's refuses
    the chunk."""
    from repro.store.runtime import store_for
    telemetry = None
    if light.telemetry:
        telemetry = Telemetry(context={"inj": -1, "seed": light.config.seed})
    store = store_for(store_root) if store_root is not None else None
    _golden, _summary, ctx = _campaign_context(spec, store, None, None,
                                               telemetry)
    if ctx.golden_fingerprint != light.golden_fingerprint:
        raise RuntimeError(
            "worker %d refuses the chunk: its golden run of %s differs "
            "from the parent's (fingerprint %s... != %s...)"
            % (os.getpid(), spec.name, ctx.golden_fingerprint[:12],
               light.golden_fingerprint[:12]))
    return dataclasses.replace(light, program=ctx.program, setup=ctx.setup,
                               checkpoints=ctx.checkpoints)


def _dispatch(items: List[Tuple[int, PlannedFault]], ctx: _CampaignContext,
              spec: CampaignSpec, store, pool, **kwargs) -> List:
    """``run_tasks`` of :func:`_injection_task` over ``items``: on the
    caller's context, or on a warm ``pool`` whose workers resolve it
    from the spec."""
    if pool is None:
        return run_tasks(_injection_task, items, context=ctx, **kwargs)
    light = dataclasses.replace(ctx, program=None, setup=None)
    return run_tasks(_injection_task, items, context=ctx,
                     context_factory=_context_in_worker,
                     factory_args=(light, spec,
                                   store.root if store is not None else None),
                     pool=pool, context_key=spec.plan_hash, **kwargs)


def _injection_task(ctx: _CampaignContext,
                    item: Tuple[int, PlannedFault]) -> InjectionRecord:
    """Execute injection ``index`` of the plan; returns a picklable
    record.

    With telemetry on, the injection gets its own collector whose events
    are stamped with ``(inj=index, seed=planning seed)`` — the tags that
    make traces from any worker partitioning merge into the same stream.
    Wall-clock goes into the ``campaign.injection_ns`` timer only, never
    into events, so the event stream stays deterministic.
    """
    index, planned = item
    spec = planned.spec
    tel = None
    started = 0
    if ctx.telemetry:
        tel = Telemetry(context={"inj": index, "seed": planned.seed})
        tel.event("injection_start", fault=spec.fault_type.value,
                  target_thread=spec.thread_id,
                  target_branch=spec.branch_index)
        started = time.perf_counter_ns()
    outcome, baseline_outcome, hook, cut = run_one_injection(
        ctx.program, spec, ctx.config, ctx.setup, ctx.golden_signature,
        ctx.max_steps, telemetry=tel, checkpoints=ctx.checkpoints)
    record = InjectionRecord(
        spec=spec, outcome=outcome, baseline_outcome=baseline_outcome,
        flipped_branch=hook.flipped_branch, detail=hook.detail, cut=cut)
    if tel is not None:
        tel.add_time_ns("campaign.injection_ns",
                        time.perf_counter_ns() - started)
        tel.count("campaign.injections")
        tel.count("campaign.outcome.%s" % outcome.value)
        tel.count("campaign.baseline.%s" % baseline_outcome.value)
        tel.event("injection_end", outcome=outcome.value,
                  baseline_outcome=baseline_outcome.value,
                  activated=outcome is not Outcome.NOT_ACTIVATED,
                  flipped=hook.flipped_branch)
        record.telemetry = tel.snapshot()
    return record


def allocate_stratified(budget: int, weights: Dict[str, float]
                        ) -> Dict[str, int]:
    """Split ``budget`` draws over strata proportionally to ``weights``
    (largest-remainder rounding, every stratum gets at least one draw
    while the budget allows, deterministic tie-breaks by name)."""
    names = sorted((name for name, w in weights.items() if w > 0),
                   key=lambda name: (-weights[name], name))
    if not names or budget <= 0:
        return {}
    names = names[:budget]  # too-tight budget: keep the heaviest strata
    total = sum(weights[name] for name in names)
    shares = {name: budget * weights[name] / total for name in names}
    out = {name: max(1, int(shares[name])) for name in names}
    # Largest remainder, then deterministic trimming if min-1 overspent.
    by_remainder = sorted(names, key=lambda name:
                          (-(shares[name] - int(shares[name])), name))
    index = 0
    while sum(out.values()) < budget:
        out[by_remainder[index % len(names)]] += 1
        index += 1
    by_size = sorted(names, key=lambda name: (-out[name], name))
    index = 0
    while sum(out.values()) > budget:
        name = by_size[index % len(names)]
        if out[name] > 1:
            out[name] -= 1
        index += 1
    return out


def plan_stratified(report, streams: Dict[int, List[int]],
                    fault_type: FaultType, budget: int, base_seed: int
                    ) -> Tuple[List[PlannedFault], dict]:
    """Plan a stratified campaign: partition the dynamic fault-site
    population by predicted class and allocate ``budget`` draws.

    The full sweep (:func:`plan_fault`) samples a dynamic site ``(j,
    k)`` with probability ``1/(T * n_j)`` (thread uniform among the
    ``T`` threads that branch, then uniform among thread ``j``'s
    ``n_j`` dynamic branches).  Each stratum inherits exactly that
    measure, so re-weighting per-stratum outcome rates by the stratum
    weights estimates the full sweep's coverage — from far fewer
    injections, because strata with near-certain outcomes no longer
    soak up samples.  Draws use counter-mode seed derivation per
    ``(class, draw index)``: the plan is one deterministic function of
    ``(report, golden streams, budget, seed)``, independent of worker
    partitioning.
    """
    import bisect

    threads = sorted(tid for tid, stream in streams.items() if stream)
    nthreads = len(threads)
    if not nthreads:
        raise RuntimeError("program executed no branches; nothing to inject")
    model = fault_type.value
    strata: Dict[str, List[Tuple[int, int]]] = {}
    weight_of: Dict[Tuple[int, int], float] = {}
    for tid in threads:
        stream = streams[tid]
        per_site = 1.0 / (nthreads * len(stream))
        for k, site in enumerate(stream, start=1):
            cls = report.class_of(site, model)
            strata.setdefault(cls, []).append((tid, k))
            weight_of[(tid, k)] = per_site
    weights = {cls: sum(weight_of[inst] for inst in instances)
               for cls, instances in strata.items()}
    planned = allocate_stratified(budget, weights)

    plan: List[PlannedFault] = []
    for cls in sorted(planned):
        instances = sorted(strata[cls])
        cumulative: List[float] = []
        acc = 0.0
        for inst in instances:
            acc += weight_of[inst]
            cumulative.append(acc)
        for draw in range(planned[cls]):
            seed = derive_seed(base_seed, "stratified", model, cls, draw)
            rng = random.Random(seed)
            position = bisect.bisect_left(cumulative, rng.random() * acc)
            position = min(position, len(instances) - 1)
            tid, k = instances[position]
            plan.append(PlannedFault(seed, FaultSpec(
                fault_type=fault_type, thread_id=tid, branch_index=k,
                rng_seed=rng.randrange(2 ** 31)), cls))
    meta = {
        "model": model,
        "budget": int(budget),
        "threads": nthreads,
        "total_instances": sum(len(s) for s in streams.values()),
        "classes": {cls: {"weight": weights[cls],
                          "instances": len(strata[cls]),
                          "planned": planned.get(cls, 0)}
                    for cls in sorted(strata)},
    }
    return plan, meta


def _plan_campaign(spec: CampaignSpec, ctx: _CampaignContext, summary,
                   store, vuln_report
                   ) -> Tuple[List[PlannedFault], Optional[dict]]:
    """The campaign's plan, one entry per injection, and the stratified
    planner's summary (None for a full sweep)."""
    config, fault_type = ctx.config, spec.fault_type
    if spec.plan == "stratified":
        from repro.lint.vuln import analyze_program
        if vuln_report is None:
            vuln_report = analyze_program(
                ctx.program, output_globals=config.output_globals,
                store=store)
        return plan_stratified(
            vuln_report, site_streams(summary, ctx.program, vuln_report),
            fault_type, config.injections, config.seed)
    plan = []
    for index in range(config.injections):
        fault = plan_injection(fault_type, summary.branch_counts,
                               config.seed, index)
        if fault is None:
            raise RuntimeError(
                "program executed no branches; nothing to inject")
        plan.append(PlannedFault(
            injection_seed(config.seed, fault_type, index), fault))
    return plan, None


def _stratified_estimate(meta: dict, plan: List[PlannedFault],
                         records: List[InjectionRecord]) -> dict:
    """``meta`` completed with the per-class outcome census and the
    re-weighted coverage estimates.  Every planned spec activates (its
    branch index comes from the golden stream and the pre-injection
    prefix is deterministic), so the estimate targets the same activated
    population a full sweep measures coverage over."""
    by_class: Dict[str, Tuple[Counter, Counter]] = {}
    for planned, record in zip(plan, records):
        outcomes, baselines = by_class.setdefault(planned.stratum,
                                                  (Counter(), Counter()))
        outcomes[record.outcome.value] += 1
        baselines[record.baseline_outcome.value] += 1
    sdc_protected = 0.0
    sdc_original = 0.0
    for cls, info in meta["classes"].items():
        drawn = info["planned"]
        if not drawn:
            continue
        outcomes, baselines = by_class[cls]
        sdc_protected += info["weight"] * (outcomes[Outcome.SDC.value]
                                           / drawn)
        sdc_original += info["weight"] * (baselines[Outcome.SDC.value]
                                          / drawn)
        info["outcomes"] = dict(sorted(outcomes.items()))
        info["baseline_outcomes"] = dict(sorted(baselines.items()))
    meta["estimate"] = {
        "coverage_protected": 1.0 - sdc_protected,
        "coverage_original": 1.0 - sdc_original,
        "injections": len(plan),
    }
    return meta


def run_campaign(spec: CampaignSpec,
                 setup: Optional[Callable[[SharedMemory], None]] = None,
                 keep_records: bool = False,
                 jobs: Optional[int] = None,
                 progress: Optional[Callable[[int, int, float], None]] = None,
                 store=None,
                 vuln_report=None,
                 program: Optional[ParallelProgram] = None,
                 pool=None) -> CampaignResult:
    """Execute the campaign ``spec`` describes; returns a
    :class:`CampaignResult`.

    ``spec`` is a :class:`repro.faults.spec.CampaignSpec` — the same
    value object the CLIs and the :mod:`repro.serve` wire protocol use,
    and the single source of the journal plan hash.  The spec describes
    *what* the campaign is (fault model, knobs, ``telemetry``,
    ``journal``/``resume``, ``plan``); the keywords are execution-side.
    ``program=`` and ``setup=`` accept a pre-compiled program and a
    closure setup for in-process callers; when omitted they come from
    the spec (kernel registry / inline source, and
    :meth:`~repro.faults.spec.CampaignSpec.default_setup`).

    ``spec.plan`` picks how the parent plans the campaign, one
    :class:`PlannedFault` per injection, before anything runs:
    ``"full"`` plans index ``i`` with :func:`plan_injection`;
    ``"stratified"`` partitions the dynamic fault-site population by the
    class the static vulnerability report (``vuln_report``, or one
    computed via :func:`repro.lint.vuln.analyze_program`) predicts,
    spends ``spec.injections`` as a draw *budget* across the strata
    (:func:`plan_stratified`) and sets ``result.stratified`` to the
    re-weighted full-sweep coverage estimates.  Everything below holds
    for both plans.

    ``jobs`` fans the independent injections out across a process pool
    (``None`` reads ``REPRO_JOBS``; ``1`` runs the serial loop; ``0``
    uses every core).  The result is identical for every ``jobs`` value:
    records are re-assembled in plan order, and :class:`CampaignStats`
    aggregation is order-independent.  ``progress(done, total,
    chunk_seconds)`` fires after every completed chunk.

    ``spec.telemetry`` additionally collects metrics and a structured
    event trace: the golden run and every injection get a collector, the
    per-worker snapshots merge into ``result.telemetry``, and everything
    except wall-clock timers is bit-identical whatever ``jobs`` was.

    ``spec.journal`` names a crash-safe JSONL checkpoint file: every
    completed injection is appended (with its telemetry snapshot) as
    soon as its chunk finishes, so a killed campaign loses at most
    in-flight work.  ``spec.resume`` replays an existing journal — after
    validating its plan hash, its golden fingerprint and, per replayed
    record, that its fault is the one the plan holds at its index — and
    schedules **only the missing injection indices**; the merged result
    (stats, records, event trace) is identical to an uninterrupted run
    with the same seed.  Journal bookkeeping is reported through
    ``store.journal.*`` *counters* only, never events, precisely so that
    identity holds.  A fresh campaign refuses to overwrite an existing
    journal unless ``resume`` is set.

    ``store`` (an :class:`repro.store.ArtifactStore`; default: this
    process's handle on the spec's ``store`` directory
    (:func:`repro.store.store_for`), else the process-wide store from
    :func:`repro.store.default_store`, usually ``$REPRO_STORE``) caches
    the golden run in memory: telemetry-off campaigns of this process on
    the same program object and (nthreads, seed, quantum, outputs,
    inputs) reuse one golden execution, checkpoints included, across
    fault types and figures.  On a golden-cache hit ``result.golden`` is
    ``None`` (stats and records are unaffected).

    ``pool`` (a :class:`repro.parallel.WorkerPool`) runs the chunks of a
    ``jobs > 1`` campaign on long-lived workers instead of a pool started
    for this call.  Each worker resolves the program, the setup and the
    golden run from the spec through its own handle on ``store``'s root
    and keeps them for later chunks and campaigns; the result is the
    same as with any other ``jobs``.  Such a campaign takes neither
    ``program=`` nor ``setup=``.
    """
    if not isinstance(spec, CampaignSpec):
        raise TypeError("run_campaign() takes a CampaignSpec, got %s"
                        % type(spec).__name__)
    if store is None and spec.store is not None:
        from repro.store.runtime import store_for
        store = store_for(spec.store)
    if store is None:
        from repro.store.runtime import default_store
        store = default_store()
    if pool is not None and (program is not None or setup is not None):
        raise ValueError("a WorkerPool campaign resolves its program and "
                         "setup from the spec; pass neither")
    if program is None:
        program = spec.resolve_program(store)
    config = spec.campaign_config()
    journal = spec.journal

    parent_tel = None
    if spec.telemetry:
        parent_tel = Telemetry(context={"inj": -1, "seed": config.seed})
        parent_tel.event("campaign_start", fault=spec.fault,
                         injections=config.injections,
                         nthreads=config.nthreads, program=program.name)

    # -- golden run (cached only when no events are being collected and
    # the inputs have a canonical form to key on), then the plan --------
    golden, summary, ctx = _campaign_context(spec, store, program, setup,
                                             parent_tel)
    plan, stratified = _plan_campaign(spec, ctx, summary, store,
                                      vuln_report)

    # -- journal replay / checkpoint setup ------------------------------
    pending = list(range(len(plan)))
    replayed: Dict[int, InjectionRecord] = {}
    writer = None
    if journal is not None:
        from repro.errors import PlanMismatchError, StoreError
        from repro.store.hashing import describe_plan_mismatch
        from repro.store.journal import JournalWriter, read_journal
        from repro.store.serialize import spec_to_dict
        # The spec is the single source of the plan hash: the same
        # fingerprint a client computes before submitting over the wire,
        # and the same one any CLI prints.  (Golden *caching* above still
        # keys on the compiled program so custom-configured programs
        # never share cache entries; divergence from the spec-described
        # program is caught by the golden fingerprint right here.)
        plan_hash, plan_dict = spec.plan_fingerprint()
        golden_fp = ctx.golden_fingerprint
        exists = os.path.exists(journal) and os.path.getsize(journal) > 0
        if exists and not spec.resume:
            raise StoreError(
                "journal %s already exists; pass resume=True (--resume) "
                "to continue it, or delete it to start over" % journal)
        if exists:
            replay = read_journal(journal, expect_plan_hash=plan_hash,
                                  expect_plan=plan_dict)
            if replay.golden_fingerprint != golden_fp:
                raise PlanMismatchError(
                    "journal %s was written against a different golden "
                    "run (fingerprint %s... != %s...); the environment "
                    "is not reproducing the original execution"
                    % (journal, replay.golden_fingerprint[:12],
                       golden_fp[:12]))
            for index, record in sorted(replay.records.items()):
                if record.spec != plan[index].spec:
                    raise PlanMismatchError(
                        "journal %s records injection %d with a fault "
                        "this campaign does not plan: %s"
                        % (journal, index, describe_plan_mismatch(
                            spec_to_dict(record.spec),
                            spec_to_dict(plan[index].spec))))
            replayed = replay.records
            pending = replay.missing_indices(len(plan))
            writer = JournalWriter(journal)
            if parent_tel is not None:
                parent_tel.count("store.journal.replayed", len(replayed))
                if replay.partial_tail_dropped:
                    parent_tel.count("store.journal.partial_tail_dropped")
        else:
            writer = JournalWriter(journal)
            writer.write_header(plan_hash, plan_dict, golden_fp)

    stats = CampaignStats(program=program.name, fault_type=spec.fault,
                          nthreads=config.nthreads)
    result = CampaignResult(stats=stats, golden=golden,
                            thread_classes=list(summary.thread_classes),
                            summary=summary)
    timings: Optional[List[Tuple[int, int, float]]] = (
        [] if parent_tel is not None else None)

    checkpoint = None
    if writer is not None:
        def checkpoint(pairs):
            # Parent-side, per completed chunk: positions are into
            # ``pending``, the journal records original indices.  One
            # commit per chunk: a crash loses at most unsynced chunks.
            for position, record in pairs:
                writer.append(pending[position], record)
            writer.sync()

    try:
        new_records = _dispatch(
            [(index, plan[index]) for index in pending], ctx, spec, store,
            pool, jobs=jobs, progress=progress, timings=timings,
            on_results=checkpoint)
    finally:
        if writer is not None:
            writer.close()
    if parent_tel is not None and writer is not None:
        parent_tel.count("store.journal.appended", len(pending))

    records: List[InjectionRecord] = [None] * len(plan)
    for index, record in replayed.items():
        records[index] = record
    for position, index in enumerate(pending):
        records[index] = new_records[position]
    for record in records:
        stats.note(record.outcome, record.baseline_outcome, record.cut)
    if stratified is not None:
        result.stratified = _stratified_estimate(stratified, plan, records)
    if keep_records:
        result.records = list(records)
    if parent_tel is not None:
        # Per-worker wall-clock lives in timers only: counters, gauges,
        # histograms, and events stay partition-independent.
        for _chunk_id, _nitems, seconds in timings:
            parent_tel.add_time_ns("campaign.chunk_ns", int(seconds * 1e9))
        parent_tel.event("campaign_end", outcomes={
            outcome.value: count
            for outcome, count in sorted(stats.counts.items(),
                                         key=lambda kv: kv[0].value)})
        result.telemetry = TelemetrySnapshot.merge_all(
            [parent_tel.snapshot()] + [r.telemetry for r in records])
    return result


def run_one_injection(program: ParallelProgram, spec: FaultSpec,
                      config: CampaignConfig,
                      setup: Optional[Callable[[SharedMemory], None]],
                      golden_signature, max_steps: int,
                      telemetry: Optional[Telemetry] = None,
                      checkpoints: Sequence[Checkpoint] = ()
                      ) -> Tuple[Outcome, Outcome, InjectingHook, str]:
    """One fault run, classified.  Returns (protected outcome, outcome the
    unprotected program would have had, the hook, how the run was cut
    short: :attr:`InjectionRecord.cut`).

    The run resumes from the latest of the golden run's ``checkpoints``
    taken before the fault site (step 0 when there is none): up to the
    fault the run is the golden run, so the result is the same as a run
    from step 0.  Without telemetry it runs only until its outcome is
    decided: it stops checking at the first violation and stops at an
    exact re-join with a later checkpoint.  Both leave the outcome pair
    unchanged.  A telemetry collector records the whole run (triage
    reads its violations and per-thread metrics), so such a trial runs
    in full."""
    hook = InjectingHook(spec)
    run = program.run(
        RunConfig(nthreads=config.nthreads, seed=config.seed,
                  monitor_mode=MonitorMode.FULL, max_steps=max_steps,
                  quantum=config.quantum, telemetry=telemetry),
        setup=setup, fault_hook=hook,
        resume=select_checkpoint(checkpoints, spec.thread_id,
                                 spec.branch_index),
        cut_short=checkpoints if telemetry is None else None)
    if not hook.activated:
        return Outcome.NOT_ACTIVATED, Outcome.NOT_ACTIVATED, hook, run.cut
    if run.cut == "rejoined":
        return Outcome.MASKED, Outcome.MASKED, hook, run.cut
    if run.status == "crash":
        underlying = Outcome.CRASH
    elif run.status in ("hang", "deadlock"):
        underlying = Outcome.HANG
    else:
        signature = quantize_signature(
            run.output_signature(config.output_globals), config.quantize_bits)
        underlying = (Outcome.MASKED if signature == golden_signature
                      else Outcome.SDC)
    protected = Outcome.DETECTED if run.detected else underlying
    return protected, underlying, hook, run.cut


@dataclass
class _TrialContext:
    program: ParallelProgram
    nthreads: int
    base_seed: int
    setup: Optional[Callable[[SharedMemory], None]]


def _trial_task(ctx: _TrialContext, index: int) -> bool:
    result = ctx.program.run_protected(
        ctx.nthreads, seed=ctx.base_seed + index, setup=ctx.setup)
    if result.status != "ok":
        raise RuntimeError("error-free run #%d failed: %s"
                           % (index, result.failure_message))
    return result.detected


def run_false_positive_trial(program: ParallelProgram, nthreads: int,
                             runs: int, base_seed: int,
                             setup: Optional[Callable[[SharedMemory], None]] = None,
                             output_globals: Sequence[str] = (),
                             jobs: Optional[int] = None) -> int:
    """The paper's false-positive experiment: ``runs`` error-free runs
    (different schedules via different seeds); returns the number of runs
    in which the monitor reported anything — must be zero.  Each run's
    seed is ``base_seed + index``, so the trial parallelizes across
    ``jobs`` workers without changing a single schedule."""
    ctx = _TrialContext(program=program, nthreads=nthreads,
                        base_seed=base_seed, setup=setup)
    return sum(run_tasks(_trial_task, range(runs), jobs=jobs, context=ctx))
