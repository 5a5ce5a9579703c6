"""High-level run API: compile → (analyze → instrument) → execute.

:class:`ParallelProgram` owns the two compiled images of one MiniC
program — the plain baseline and the BLOCKWATCH-instrumented version —
plus its analysis artifacts, and knows how to execute either on the
simulated machine.  This is the object the examples, the fault-injection
campaigns, and the benchmark harnesses all drive.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis import AnalysisConfig, SimilarityResult, analyze_module
from repro.frontend import compile_source
from repro.instrument import InstrumentConfig, instrument_module
from repro.monitor import Monitor, MonitorMode
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import Checkpoint, FaultHook, Machine, RunResult
from repro.runtime.memory import SharedMemory
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.golden import GoldenRecorder

#: Environment knob mirrored by the CLI ``--opt-level`` flag; resolved
#: once, when a :class:`ParallelProgram` is built.
OPT_LEVEL_ENV = "REPRO_OPT_LEVEL"

#: The one execution engine: precompiled block closures
#: (:mod:`repro.runtime.closures`).
ENGINE = "closure"


def resolve_opt_level(opt_level: Optional[int] = None) -> int:
    """``opt_level`` or ``$REPRO_OPT_LEVEL`` or 0; validated."""
    if opt_level is None:
        raw = os.environ.get(OPT_LEVEL_ENV, "").strip()
        opt_level = int(raw) if raw else 0
    opt_level = int(opt_level)
    if opt_level not in (0, 1, 2):
        raise ValueError("unknown optimization level %r (supported: 0, 1, 2)"
                         % (opt_level,))
    return opt_level


def resolve_backend(backend: Optional[str] = None) -> str:
    """The engine name; a ``backend`` argument may only repeat it."""
    if backend is not None and backend != ENGINE:
        raise ValueError("unknown backend %r (the one execution engine is "
                         "%r)" % (backend, ENGINE))
    return ENGINE


@dataclass
class RunConfig:
    """Per-run knobs."""

    nthreads: int = 4
    seed: int = 0
    #: MonitorMode.FULL checks; MonitorMode.FEED sends without processing
    #: (the paper's 32-thread performance setup); None runs the
    #: uninstrumented image.
    monitor_mode: Optional[MonitorMode] = MonitorMode.FULL
    #: >1 enables the hierarchical multi-monitor of the paper's Section VI
    #: (that many leaf monitor threads, each serving a thread sub-group).
    monitor_groups: int = 1
    cost_model: CostModel = field(default_factory=CostModel)
    quantum: int = 32
    max_steps: int = 20_000_000
    schedule_jitter: float = 2.0
    halt_on_detection: bool = False
    #: One collector shared by the machine and the monitor; None (the
    #: default) keeps every telemetry path disabled at zero cost.
    telemetry: Optional[Telemetry] = None


class ParallelProgram:
    """One SPMD program in both baseline and protected form."""

    def __init__(self, source: str, name: str = "program",
                 entry: str = "slave",
                 analysis_config: Optional[AnalysisConfig] = None,
                 instrument_config: Optional[InstrumentConfig] = None,
                 opt_level: Optional[int] = None,
                 backend: Optional[str] = None):
        resolve_backend(backend)  # only the engine's own name is accepted
        self.source = source
        self.name = name
        self.entry = entry
        #: Uninstrumented image (the paper's baseline measurements).
        self.baseline = compile_source(source, name)
        #: Instrumented image plus its analysis.
        self.protected = compile_source(source, name + ".bw")
        aconfig = analysis_config if analysis_config is not None else AnalysisConfig(
            entry=entry)
        if aconfig.entry != entry:
            raise ValueError("analysis entry %r != program entry %r"
                             % (aconfig.entry, entry))
        #: Resolved configs, kept so the artifact store can compute the
        #: program's content hash (source + every compile option).  The
        #: stored config is the caller's — the race-aware refinement
        #: below derives ``racy_locations`` from the source, so it never
        #: changes the program's content address.
        self.analysis_config = aconfig
        self.instrument_config = instrument_config
        #: Static race report over the baseline image (None when the
        #: refinement is disabled).  Error-severity findings feed the
        #: race-aware refinement: branches whose conditions load racy
        #: locations are demoted and never checked.
        self.lint_report = None
        effective = aconfig
        pre_analysis: Optional[SimilarityResult] = None
        if aconfig.race_refinement:
            from repro.lint import lint_module
            pre_analysis = analyze_module(self.baseline, aconfig)
            self.lint_report = lint_module(self.baseline, entry=entry,
                                           analysis=pre_analysis, name=name)
            racy = set(aconfig.racy_locations)
            racy.update(self.lint_report.racy_locations)
            if racy != set(aconfig.racy_locations):
                effective = dataclasses.replace(
                    aconfig, racy_locations=tuple(sorted(racy)))
        self.analysis: SimilarityResult = analyze_module(
            self.protected, effective)
        self.metadata = instrument_module(self.protected, self.analysis,
                                          instrument_config)
        #: Analysis of the baseline image (identical IR), for reporting.
        self.baseline_analysis: SimilarityResult = (
            pre_analysis if effective is aconfig and pre_analysis is not None
            else analyze_module(self.baseline, effective))
        #: Optimization level, resolved from the argument or the
        #: environment at construction time.
        self.opt_level = resolve_opt_level(opt_level)
        if self.opt_level:
            # Both images run through the same trace-preserving pipeline
            # after instrumentation, so optimized and unoptimized runs
            # stay golden-trace identical (see repro.opt).
            from repro.opt import optimize_module
            optimize_module(self.baseline, self.opt_level)
            optimize_module(self.protected, self.opt_level)

    # -- execution ---------------------------------------------------------

    def run(self, config: RunConfig,
            setup: Optional[Callable[[SharedMemory], None]] = None,
            fault_hook: Optional[FaultHook] = None,
            resume: Optional[Checkpoint] = None,
            recorder: Optional["GoldenRecorder"] = None) -> RunResult:
        """Execute one image per ``config.monitor_mode``.

        ``setup`` is the host-side ``main()``: it may fill input globals
        and arrays before the workers start.  ``resume`` continues a run
        of the same image and configuration from one of its checkpoints
        instead (``setup`` is then already part of the restored
        memory).  ``recorder`` (a
        :class:`repro.runtime.golden.GoldenRecorder`, in place of a
        fault hook) records thread classes and checkpoints.
        """
        if config.monitor_mode is None:
            module, monitor = self.baseline, None
        else:
            mode = config.monitor_mode
            module = self.protected
            if config.monitor_groups > 1:
                from repro.monitor import HierarchicalMonitor
                monitor = HierarchicalMonitor(
                    self.metadata, config.nthreads,
                    groups=config.monitor_groups, mode=mode,
                    telemetry=config.telemetry)
            else:
                monitor = Monitor(self.metadata, config.nthreads,
                                  mode=mode, telemetry=config.telemetry)
        machine = Machine(
            module, config.nthreads, entry=self.entry, monitor=monitor,
            cost_model=config.cost_model, fault_hook=fault_hook,
            seed=config.seed, quantum=config.quantum,
            max_steps=config.max_steps,
            schedule_jitter=config.schedule_jitter,
            halt_on_detection=config.halt_on_detection,
            telemetry=config.telemetry, recorder=recorder)
        if resume is not None:
            machine.restore(resume)
        elif setup is not None:
            setup(machine.memory)
        return machine.run()

    def run_baseline(self, nthreads: int, seed: int = 0,
                     setup: Optional[Callable[[SharedMemory], None]] = None,
                     **kwargs) -> RunResult:
        return self.run(RunConfig(nthreads=nthreads, seed=seed,
                                  monitor_mode=None, **kwargs), setup=setup)

    def run_protected(self, nthreads: int, seed: int = 0,
                      setup: Optional[Callable[[SharedMemory], None]] = None,
                      monitor_mode: MonitorMode = MonitorMode.FULL,
                      fault_hook: Optional[FaultHook] = None,
                      **kwargs) -> RunResult:
        return self.run(RunConfig(nthreads=nthreads, seed=seed,
                                  monitor_mode=monitor_mode, **kwargs),
                        setup=setup, fault_hook=fault_hook)

    # -- reporting helpers ------------------------------------------------

    def overhead(self, nthreads: int, seed: int = 0,
                 setup: Optional[Callable[[SharedMemory], None]] = None) -> float:
        """Instrumented/baseline parallel-section time ratio, measured the
        paper's way: the monitor is fed but disabled (MonitorMode.FEED)."""
        base = self.run_baseline(nthreads, seed=seed, setup=setup)
        prot = self.run_protected(nthreads, seed=seed, setup=setup,
                                  monitor_mode=MonitorMode.FEED)
        if base.status != "ok" or prot.status != "ok":
            raise RuntimeError(
                "overhead measurement needs clean runs (baseline=%s, "
                "protected=%s)" % (base.status, prot.status))
        if base.parallel_time <= 0:
            raise RuntimeError("baseline run consumed no cycles")
        return prot.parallel_time / base.parallel_time

    def checked_branch_count(self) -> int:
        return len(self.metadata.branches)
