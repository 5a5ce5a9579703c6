"""BLOCKWATCH reproduction — cross-thread control-data similarity checking
for SPMD parallel programs (Wei & Pattabiraman, DSN 2012).

Layers (bottom-up):

``repro.ir``          SSA intermediate representation (the LLVM-IR stand-in)
``repro.frontend``    MiniC: the kernel language compiled to the IR
``repro.analysis``    the similarity-inference fixpoint (paper Section III-A)
``repro.instrument``  the sendBranchCondition/sendBranchAddr pass
``repro.runtime``     simulated 32-core SPMD machine + cycle cost model
``repro.monitor``     lock-free queues, two-level table, category checks
``repro.faults``      PIN-analogue single-bit fault injector + campaigns
``repro.telemetry``   zero-cost-when-disabled metrics + JSONL event traces
``repro.triage``      witness clustering + similarity-based perf anomalies
``repro.splash2``     seven SPLASH-2-style benchmark kernels
``repro.experiments`` one harness per paper table/figure

Quickstart::

    from repro import BlockWatch, Telemetry

    bw = BlockWatch(source)               # compile, analyze, instrument
    result = bw.run(nthreads=8, setup=fill_inputs, telemetry=Telemetry())
    print(result.telemetry.format_summary())

    spec = bw.spec(fault="flip", injections=100,
                   output_globals=("result",), telemetry=True)
    campaign = bw.inject(spec, setup=fill_inputs)
    print(campaign.stats.coverage_protected)
    campaign.write_trace("campaign.jsonl")
"""

from repro.analysis import AnalysisConfig, Category, analyze_module
from repro.api import BlockWatch, protect
from repro.faults import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    CampaignStats,
    FaultType,
    Outcome,
    run_campaign,
)
from repro.frontend import compile_source
from repro.instrument import InstrumentConfig, instrument_module
from repro.monitor import MODE_FEED, MODE_FULL, Monitor, MonitorMode
from repro.runtime import CostModel, Machine, ParallelProgram, RunConfig, RunResult
from repro.telemetry import Telemetry, TelemetrySnapshot
from repro.triage import TriageReport, triage_campaign

__version__ = "1.1.0"

__all__ = [
    "AnalysisConfig", "Category", "analyze_module",
    "BlockWatch", "protect",
    "CampaignConfig", "CampaignResult", "CampaignSpec", "CampaignStats",
    "FaultType", "Outcome", "run_campaign",
    "compile_source",
    "InstrumentConfig", "instrument_module",
    "MODE_FEED", "MODE_FULL", "Monitor", "MonitorMode",
    "CostModel", "Machine", "ParallelProgram", "RunConfig", "RunResult",
    "Telemetry", "TelemetrySnapshot",
    "TriageReport", "triage_campaign",
    "__version__",
]
