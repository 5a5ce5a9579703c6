"""High-level facade: protect an SPMD program with BLOCKWATCH in one call.

This is the API a downstream user starts with::

    from repro import BlockWatch

    bw = BlockWatch(minic_source)          # compile + analyze + instrument
    print(bw.report())                     # per-branch category census

    result = bw.run(nthreads=8, setup=fill_inputs)
    assert result.status == "ok" and not result.detected

    overhead = bw.overhead(nthreads=32)    # paper Figure 6 measurement

    campaign = bw.inject(bw.spec(fault="flip", nthreads=4,
                                 injections=100,
                                 output_globals=("result",),
                                 telemetry=True),
                         setup=fill_inputs)
    print(campaign.stats.coverage_protected)
    print(campaign.telemetry.format_summary())
    campaign.write_trace("campaign.jsonl")

A campaign is always described by a :class:`repro.CampaignSpec`: the
same frozen, canonical-JSON value the CLIs and the ``repro-serve`` wire
protocol consume, and the single source of the campaign's journal plan
hash.

Everything here delegates to the layered modules (frontend → analysis →
instrument → runtime → monitor → faults); use those directly for finer
control.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis import (
    AnalysisConfig,
    Category,
    CategoryStatistics,
    category_statistics,
    format_table,
)
from repro.errors import SpecError
from repro.faults import CampaignResult, CampaignSpec, FaultType, run_campaign
from repro.instrument import InstrumentConfig
from repro.monitor import MonitorMode
from repro.runtime import ParallelProgram, RunResult
from repro.runtime.memory import SharedMemory
from repro.telemetry import Telemetry

Setup = Optional[Callable[[SharedMemory], None]]


class BlockWatch:
    """One MiniC program, compiled, analyzed, and instrumented."""

    def __init__(self, source: str, name: str = "program",
                 entry: str = "slave",
                 analysis_config: Optional[AnalysisConfig] = None,
                 instrument_config: Optional[InstrumentConfig] = None,
                 opt_level: Optional[int] = None):
        self.program = ParallelProgram(
            source, name, entry=entry,
            analysis_config=analysis_config,
            instrument_config=instrument_config,
            opt_level=opt_level)

    @classmethod
    def from_program(cls, program: ParallelProgram) -> "BlockWatch":
        """Wrap an already-compiled program — e.g. one loaded from a
        :class:`repro.store.ArtifactStore` — without recompiling."""
        instance = cls.__new__(cls)
        instance.program = program
        return instance

    # -- introspection ----------------------------------------------------

    @property
    def analysis(self):
        return self.program.analysis

    @property
    def checked_branches(self) -> int:
        return self.program.checked_branch_count()

    def statistics(self) -> CategoryStatistics:
        """Table V-style category census of the parallel section."""
        return category_statistics(self.program.name, self.program.analysis)

    def report(self) -> str:
        """Readable per-branch classification report."""
        rows = []
        for record in self.program.analysis.all_branches():
            rows.append([
                record.function.name,
                record.branch.parent.name,
                record.category.value,
                record.check_kind or "-",
                "yes" if record.promoted else "",
                record.skip_reason,
            ])
        stats = self.statistics()
        title = ("BLOCKWATCH report for %s: %d parallel-section branches, "
                 "%.0f%% statically similar, %d checked"
                 % (self.program.name, stats.total,
                    100 * stats.similar_fraction, self.checked_branches))
        return format_table(
            ["function", "block", "category", "check", "promoted", "skipped"],
            rows, title=title)

    # -- execution ---------------------------------------------------------

    def run(self, nthreads: int, setup: Setup = None, seed: int = 0,
            monitor_mode: MonitorMode = MonitorMode.FULL,
            telemetry: Optional[Telemetry] = None, **kwargs) -> RunResult:
        """Run the protected program.

        Pass a :class:`repro.Telemetry` collector to get metrics and a
        structured event trace back on ``result.telemetry``.
        """
        return self.program.run_protected(
            nthreads, seed=seed, setup=setup, monitor_mode=monitor_mode,
            telemetry=telemetry, **kwargs)

    def run_baseline(self, nthreads: int, setup: Setup = None,
                     seed: int = 0, **kwargs) -> RunResult:
        """Run the unprotected program (for comparisons)."""
        return self.program.run_baseline(nthreads, seed=seed, setup=setup,
                                         **kwargs)

    def overhead(self, nthreads: int, setup: Setup = None,
                 seed: int = 0) -> float:
        """Protected/baseline parallel-section time ratio (paper Fig. 6)."""
        return self.program.overhead(nthreads, seed=seed, setup=setup)

    # -- fault injection ---------------------------------------------------

    def spec(self, **kwargs) -> CampaignSpec:
        """A :class:`repro.CampaignSpec` bound to this compiled program:
        same source, name, entry point, and optimization level.
        Accepts every spec field (``fault=``, ``injections=``,
        ``nthreads=``, ``output_globals=``, ``telemetry=``, ...); the
        result is what :meth:`inject` runs, what ``repro-serve``
        submits, and where the campaign's plan hash comes from.
        """
        kwargs.setdefault("name", self.program.name)
        kwargs.setdefault("entry", self.program.entry)
        kwargs.setdefault("opt_level", self.program.opt_level)
        return CampaignSpec.build(self.program.source, **kwargs)

    def inject(self, spec: CampaignSpec, *, setup: Setup = None,
               jobs: Optional[int] = None, keep_records: bool = False,
               store=None) -> CampaignResult:
        """Run the fault-injection campaign ``spec`` on this program;
        returns the full :class:`CampaignResult` (stats on ``.stats``,
        merged telemetry and trace on ``.telemetry`` when the spec asks
        for telemetry).

        Build the spec with :meth:`spec`: one frozen
        :class:`repro.CampaignSpec` carries the fault model and every
        campaign knob (``telemetry``, ``journal``/``resume``, ``plan``),
        serializes to canonical JSON, and is the single source of the
        journal plan hash (the same fingerprint ``repro-serve``
        validates on submission).  The spec must describe this program.
        ``setup`` (default: the spec's inputs), ``jobs``,
        ``keep_records`` and ``store`` are the execution-side knobs of
        :func:`repro.faults.run_campaign`.
        """
        if not isinstance(spec, CampaignSpec):
            raise TypeError("inject() takes a CampaignSpec (build one with "
                            "bw.spec(fault=..., ...)), got %s"
                            % type(spec).__name__)
        if spec.resolved_source()[0] != self.program.source:
            raise SpecError(
                "spec describes a different program than this "
                "BlockWatch compiled; build it with bw.spec(...) or "
                "run it directly through run_campaign(spec)")
        return run_campaign(spec, setup=setup, jobs=jobs,
                            keep_records=keep_records, store=store,
                            program=self.program)


def protect(source: str, **kwargs) -> BlockWatch:
    """Convenience constructor: ``protect(source).run(8, ...)``."""
    return BlockWatch(source, **kwargs)


__all__ = ["BlockWatch", "protect", "Category", "FaultType"]
