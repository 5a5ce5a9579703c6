"""Prediction-vs-measurement validation of the vulnerability analyzer.

For each selected SPLASH-2 kernel, compiled under the *sparse-check*
profile (redundant checks elided, no ``none`` → ``partial`` promotion —
the configuration where flip faults can actually escape monitoring):

1. run a full branch-flip sweep with per-record outcomes,
2. join every activated injection against the static per-site class
   predicted by :mod:`repro.lint.vuln` (monitored / masked / sdc-prone),
3. report per-class detection and SDC rates, prediction precision and
   recall, and the stratified estimator's coverage error at a quarter of
   the full sweep's budget.

The acceptance bar (enforced by ``repro vuln --validate --check``
and mirrored here): predicted-monitored sites must show a strictly
higher measured detection rate than predicted-SDC-prone sites, and the
stratified estimate must land within ±5 percentage points of the full
sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis import AnalysisConfig, format_table
from repro.faults import CampaignSpec, check_validation, validate_predictions
from repro.lint.vuln import analyze_program
from repro.splash2 import kernel
from repro.store import default_store

#: Kernels with a non-trivial predicted-class mix under the
#: sparse-check profile (others predict all-monitored, which validates
#: trivially and measures nothing).
KERNELS: Tuple[str, ...] = ("radix", "water_nsquared")

SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)

NTHREADS = 4
SEED = 99
BUDGET_FRACTION = 0.25


def compute(kernels: Tuple[str, ...] = KERNELS, injections: int = 120,
            jobs: Optional[int] = None, opt_level: Optional[int] = None,
            store=None) -> List[Dict]:
    """One validation result dict per kernel (see
    :func:`repro.faults.validate_predictions` for the schema),
    plus a ``"failures"`` key listing violated acceptance checks.
    ``store`` (default: the process default store) caches goldens and
    per-function vulnerability summaries."""
    store = store if store is not None else default_store()
    results = []
    for name in kernels:
        program = kernel(name).program(analysis_config=SPARSE,
                                       opt_level=opt_level)
        spec = CampaignSpec.for_kernel(
            name, fault="flip", injections=injections, nthreads=NTHREADS,
            seed=SEED, opt_level=program.opt_level)
        report = analyze_program(program,
                                 output_globals=spec.output_globals,
                                 store=store)
        result = validate_predictions(
            spec, program=program, report=report, store=store,
            budget_fraction=BUDGET_FRACTION, jobs=jobs)
        result["failures"] = check_validation(result)
        results.append(result)
    return results


def render(results: List[Dict]) -> str:
    rows = []
    for result in results:
        for cls in ("monitored", "masked", "sdc-prone"):
            census = result["classes"].get(cls)
            if census is None:
                continue
            rows.append([
                result["program"], cls, census["activated"],
                _rate(census["detection_rate"]),
                _rate(census["sdc_rate"]),
            ])
        rows.append([
            result["program"], "(overall)", result["injections"],
            "precision %s / recall %s" % (_rate(result["precision"]),
                                          _rate(result["recall"])),
            "stratified err %+.1fpp @ %d inj"
            % (100 * result["stratified"]["error"],
               result["stratified"]["budget"]),
        ])
    table = format_table(
        ["kernel", "predicted class", "activated", "detection rate",
         "SDC rate"],
        rows,
        title="Vulnerability-prediction validation: branch-flip faults, "
              "sparse-check profile, %d injections per kernel"
              % results[0]["injections"] if results else "(no kernels)")
    failures = [f for r in results for f in r["failures"]]
    verdict = ("all acceptance checks passed" if not failures
               else "FAILED: " + "; ".join(failures))
    return table + "\n" + verdict


def _rate(value) -> str:
    return "n/a" if value is None else "%.3f" % value
