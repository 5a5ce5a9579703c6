"""repro.opt — trace-preserving SSA optimizer pipeline.

Passes rewrite the instrumented IR without changing anything the
BLOCKWATCH machinery observes: the CFG and branch population stay
bit-identical, monitor/injector-visible registers are frozen, and every
deleted instruction is re-charged through ghosts so step counts and
cycle clocks match the unoptimized run exactly.  Same seeds, same
detections, same golden fingerprints — just fewer dispatched
instructions.

Entry point: :func:`optimize_module`.  Levels: 0 (off), 1 (local
cleanup), 2 (adds sparse conditional constant propagation).
"""

from repro.opt.legality import compute_frozen
from repro.opt.pipeline import (
    PASS_FUNCS,
    PIPELINES,
    PassStats,
    PipelineReport,
    optimize_module,
)
from repro.opt.ssa import from_ssa, to_ssa

__all__ = [
    "PASS_FUNCS",
    "PIPELINES",
    "PassStats",
    "PipelineReport",
    "compute_frozen",
    "from_ssa",
    "optimize_module",
    "to_ssa",
]
