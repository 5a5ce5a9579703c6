"""Static lint layer: sync analyses, race detection, vulnerability
prediction.

Public surface:

* :func:`lint_module` — run the race detector over a compiled module
  and return a finalized, deterministically-ordered
  :class:`~repro.lint.diagnostics.LintReport`;
* the `repro lint` command (:mod:`repro.lint.cli`).

The sync analyses run on the dataflow engine in
:mod:`repro.ir.dataflow` and read the parallel region from the
similarity analysis' :class:`~repro.ir.CallGraph`.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import Module
from repro.lint.diagnostics import (
    LINT_SCHEMA,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AccessSite,
    Diagnostic,
    LintReport,
)
from repro.lint.races import RaceDetector, detect_races
from repro.lint.sync import lockset_analysis, phase_analysis
from repro.lint.vuln import (
    CLASS_MASKED,
    CLASS_MONITORED,
    CLASS_SDC,
    CLASSES,
    MODEL_CONDITION,
    MODEL_FLIP,
    MODELS,
    VULN_SCHEMA,
    VulnReport,
    VulnSite,
    analyze_program,
    analyze_vulnerability,
    branch_site_map,
    function_fingerprint,
    summarize_function,
)


def lint_module(module: Module, entry: str = "slave",
                analysis=None, name: str = "module") -> LintReport:
    """Statically check ``module``'s parallel region for data races."""
    return detect_races(module, entry=entry, analysis=analysis, name=name)


__all__ = [
    "CLASSES",
    "CLASS_MASKED",
    "CLASS_MONITORED",
    "CLASS_SDC",
    "MODELS",
    "MODEL_CONDITION",
    "MODEL_FLIP",
    "VULN_SCHEMA",
    "AccessSite",
    "Diagnostic",
    "LINT_SCHEMA",
    "LintReport",
    "RaceDetector",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "VulnReport",
    "VulnSite",
    "analyze_program",
    "analyze_vulnerability",
    "branch_site_map",
    "detect_races",
    "function_fingerprint",
    "lint_module",
    "lockset_analysis",
    "phase_analysis",
    "summarize_function",
]
