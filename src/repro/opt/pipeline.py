"""The pass pipeline: named passes, -O level schedules, and reporting.

``optimize_module`` mutates a module in place, running the schedule for
the requested level over every function, verifying the IR after each
pass, and attaching a summary dict (``module.opt_summary``) that the
runtime reads for telemetry and for enabling ghost accounting.

Pass schedules (all trace-preserving; see :mod:`repro.opt.legality`):

========  ==========================================================
level     passes
========  ==========================================================
``-O0``   (nothing — the module is left untouched, no summary)
``-O1``   copyprop, fold, dce
``-O2``   copyprop, fold, sccp, copyprop, fold, dce
========  ==========================================================

The front end builds SSA directly, so every pass takes and leaves SSA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple

from repro.errors import OptimizationError, VerificationError
from repro.ir import Function, Module, Value
from repro.ir.verifier import verify_module
from repro.opt import copyprop, dce, fold, sccp
from repro.opt.legality import compute_frozen

PassFunc = Callable[[Function, Set[Value]], Dict[str, int]]

PASS_FUNCS: Dict[str, PassFunc] = {
    "copyprop": copyprop.run,
    "fold": fold.run,
    "sccp": sccp.run,
    "dce": dce.run,
}

PIPELINES: Dict[int, Tuple[str, ...]] = {
    0: (),
    1: ("copyprop", "fold", "dce"),
    2: ("copyprop", "fold", "sccp", "copyprop", "fold", "dce"),
}


@dataclass
class PassStats:
    """Per-pass instruction accounting (Bril-harness style)."""

    name: str
    instructions_before: int = 0
    instructions_after: int = 0
    removed: int = 0
    replaced: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "name": self.name,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "removed": self.removed,
            "replaced": self.replaced,
        }


@dataclass
class PipelineReport:
    """What one ``optimize_module`` invocation did."""

    module: str
    level: int
    passes: List[PassStats] = field(default_factory=list)
    instructions_before: int = 0
    instructions_after: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "level": self.level,
            "instructions_before": self.instructions_before,
            "instructions_after": self.instructions_after,
            "passes": [stats.to_dict() for stats in self.passes],
        }


def _count_instructions(module: Module) -> int:
    return sum(1 for function in module.function_table
               for _ in function.instructions())


def optimize_module(module: Module, level: int) -> PipelineReport:
    """Run the ``-O<level>`` schedule over ``module`` in place.

    Frozen sets are computed once per function up front: legality is a
    property of the *instrumented input* program, so a value observed
    by the monitor or injector stays frozen through every later pass
    even if intermediate rewrites would make it look unobserved.
    """
    if level not in PIPELINES:
        raise OptimizationError("unknown optimization level: %r (have %s)"
                                % (level, sorted(PIPELINES)))
    report = PipelineReport(module=module.name, level=level)
    report.instructions_before = _count_instructions(module)
    if level == 0:
        report.instructions_after = report.instructions_before
        return report
    frozen_of: Dict[str, Set[Value]] = {
        function.name: compute_frozen(function)
        for function in module.function_table}
    for pass_name in PIPELINES[level]:
        pass_func = PASS_FUNCS[pass_name]
        stats = PassStats(name=pass_name,
                          instructions_before=_count_instructions(module))
        for function in module.function_table:
            counts = pass_func(function, frozen_of[function.name])
            stats.removed += counts.get("removed", 0)
            stats.replaced += counts.get("replaced", 0)
        stats.instructions_after = _count_instructions(module)
        report.passes.append(stats)
        try:
            verify_module(module)
        except VerificationError as exc:
            raise OptimizationError(
                "pass %r broke module %r: %s"
                % (pass_name, module.name, exc)) from exc
    report.instructions_after = _count_instructions(module)
    module.opt_summary = report.to_dict()
    return report
