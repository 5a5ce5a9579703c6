"""The ``repro lint`` and ``repro vuln`` subcommands: static analyses
for MiniC programs.

Race reports::

    repro lint kernel:radix                      # text report
    repro lint --all-kernels --format json       # canonical JSON
    repro lint --all-kernels --jobs 0            # parallel, same bytes
    repro lint prog.mc --entry worker
    repro lint --all-kernels --format json --baseline .github/lint-baseline.json
    repro lint --all-kernels --update-baseline   # regenerate the baseline

Fault-vulnerability predictions::

    repro vuln kernel:radix                      # per-site predictions
    repro vuln --all-kernels --format json
    repro vuln --all-kernels --baseline .github/vuln-baseline.json
    repro vuln --all-kernels --update-baseline
    repro vuln kernel:radix kernel:fft --validate --check

Exit status: 0 — clean (no errors; with ``--baseline``, no drift beyond
it; with ``--check``, all acceptance checks pass), 1 — findings, 2 —
usage or I/O problems.  Output is deterministic: reports sort by name,
diagnostics by program position, JSON by key — byte-identical under any
``PYTHONHASHSEED`` and any ``--jobs`` value.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.cliutil import (
    DriftGate,
    add_shared_options,
    emit,
    resolve_programs,
)
from repro.errors import UsageError

DEFAULT_LINT_BASELINE = ".github/lint-baseline.json"
DEFAULT_VULN_BASELINE = ".github/vuln-baseline.json"

Target = Tuple[str, str, str, Tuple[str, ...]]


def _targets(args) -> List[Target]:
    """The operands as sorted ``(name, source, entry, output_globals)``
    targets.  Kernels carry their declared output globals; plain
    programs have none, so vuln treats *every* store as observable."""
    targets = resolve_programs(args.programs, args.entry, args.all_kernels)
    if not targets:
        raise UsageError("no programs given (pass paths, kernel:NAME, "
                         "or --all-kernels)")
    return sorted(targets)


def _add_operands(parser, what: str) -> None:
    parser.add_argument("programs", nargs="*",
                        help="program paths, '-' for stdin, or kernel:NAME")
    parser.add_argument("--all-kernels", action="store_true",
                        help="%s every bundled SPLASH-2 kernel" % what)
    parser.add_argument("--entry", default="slave",
                        help="SPMD entry function for plain programs "
                             "(default: slave)")


def _lint_one(name: str, source: str, entry: str, store=None) -> Dict:
    """One report in ``as_dict`` form (via the store cache if given)."""
    def compute() -> Dict:
        from repro.frontend import compile_source
        from repro.lint import lint_module
        module = compile_source(source, name)
        return lint_module(module, entry=entry, name=name).as_dict()
    if store is not None:
        return store.get_lint(source, name, entry, compute)
    return compute()


def _lint_task(store_root: Optional[str], target: Target) -> Dict:
    """``run_tasks`` unit: lint one program.  The context is the store
    *root* (a picklable string), opened per worker invocation — cheap,
    and the cache stays shared across workers through the filesystem."""
    from repro.store import open_store
    name, source, entry, _ = target
    return _lint_one(name, source, entry, store=open_store(store_root))


def _run(task, items, args, what: str) -> List[Dict]:
    """``task`` over ``items`` on ``--jobs`` workers sharing the
    ``--store``/``$REPRO_STORE`` store; a failure is a usage error."""
    from repro.parallel import run_tasks
    from repro.store import open_store
    store = open_store(args.store)
    root = store.root if store is not None else None
    try:
        return run_tasks(task, items, jobs=args.jobs, context=root)
    except Exception as exc:
        raise UsageError("%s failed: %s" % (what, exc)) from None


def _render_site(site: Dict) -> str:
    return "%s:%s:%%v%d %s @%s" % (
        site["function"], site["block"], site["vid"], site["kind"],
        site["location"])


def _render_diag(diag: Dict) -> str:
    return "%s: %s: %s [%s] (witness: %s)" % (
        _render_site(diag["access"]), diag["severity"], diag["message"],
        diag["code"], _render_site(diag["witness"]))


def _render_text(report: Dict) -> str:
    summary = report["summary"]
    lines = ["%s (entry %s): %d error(s), %d warning(s)"
             % (report["name"], report["entry"], summary["errors"],
                summary["warnings"])]
    for diag in report["diagnostics"]:
        lines.append("  " + _render_diag(diag))
    return "\n".join(lines)


def _reports(payload) -> List[Dict]:
    """The reports of one payload (single report, multi, or a list)."""
    if isinstance(payload, dict):
        return payload.get("reports", [payload])
    return payload


def _lint_keys(payload) -> Dict[Tuple[str, int], Tuple[str, Dict]]:
    """Diagnostics by ``(fingerprint, occurrence)``: a baseline holding a
    fingerprint k times absorbs a report's first k copies of it."""
    keys: Dict[Tuple[str, int], Tuple[str, Dict]] = {}
    seen: Dict[str, int] = {}
    for report in _reports(payload):
        for diag in report.get("diagnostics", ()):
            fp = diag.get("fingerprint", "")
            keys[(fp, seen.get(fp, 0))] = (report["name"], diag)
            seen[fp] = seen.get(fp, 0) + 1
    return keys


LINT_GATE = DriftGate(
    what="baseline", default=DEFAULT_LINT_BASELINE,
    baseline_help="previous JSON report; fail only on diagnostics "
                  "beyond it",
    keys=_lint_keys,
    describe=lambda key, old, new: "[%s] %s" % (new[0], _render_diag(new[1])),
    header="%d new diagnostic(s) beyond baseline:")


def cmd_lint(args) -> int:
    from repro.lint.diagnostics import LINT_SCHEMA
    targets = _targets(args)
    reports = _run(_lint_task, targets, args, "linting")
    payload = reports[0] if len(reports) == 1 else {
        "schema": LINT_SCHEMA, "reports": reports}
    errors = sum(r["summary"]["errors"] for r in reports)
    return LINT_GATE.finish(
        args, payload,
        lambda: "\n".join(_render_text(r) for r in reports) + "\n",
        "%d report(s)" % len(reports), status=1 if errors else 0)


def _analysis_config(sparse: bool):
    if not sparse:
        return None
    from repro.analysis import AnalysisConfig
    # The sparse-check profile: branches whose condition data is checked
    # elsewhere are elided and `none` branches are not promoted — the
    # configuration under which flip faults can actually escape, giving
    # the predictor (and its validation) a non-trivial class mix.
    return AnalysisConfig(elide_redundant_checks=True,
                          promote_none_to_partial=False)


def _vuln_task(store_root: Optional[str],
               item: Tuple[str, str, str, Tuple[str, ...], bool]) -> Dict:
    """``run_tasks`` unit: predict one program's fault vulnerability."""
    name, source, entry, output_globals, sparse = item
    from repro.lint.vuln import analyze_program
    from repro.runtime.program import ParallelProgram
    from repro.store import open_store
    program = ParallelProgram(source, name, entry=entry,
                              analysis_config=_analysis_config(sparse))
    return analyze_program(program, output_globals=output_globals,
                           store=open_store(store_root)).as_dict()


def _render_vuln_text(report: Dict) -> str:
    summary = report["summary"]
    lines = ["%s (entry %s): %d site(s)  flip: %s  cond: %s" % (
        report["name"], report["entry"], len(report["sites"]),
        _render_counts(summary["branch-flip"]),
        _render_counts(summary["branch-condition"]))]
    for site in report["sites"]:
        lines.append("  site %-3d %s:%s %s flip=%s cond=%s" % (
            site["site"], site["function"], site["block"],
            "checked" if site["checked"] else "unchecked",
            site["predictions"]["branch-flip"],
            site["predictions"]["branch-condition"]))
    return "\n".join(lines)


def _render_counts(counts: Dict[str, int]) -> str:
    return "/".join("%d %s" % (counts[cls], cls)
                    for cls in ("monitored", "masked", "sdc-prone"))


def _vuln_keys(payload) -> Dict[Tuple, Dict]:
    """Site predictions by ``(name, function, index, block)``."""
    return {(report["name"], site["function"], site["index"], site["block"]):
            site["predictions"]
            for report in _reports(payload)
            for site in report.get("sites", ())}


VULN_GATE = DriftGate(
    what="vuln baseline", default=DEFAULT_VULN_BASELINE,
    baseline_help="pinned prediction baseline; fail on any prediction "
                  "drift against it",
    keys=_vuln_keys,
    describe=lambda key, old, new: "[%s] %s:%s site %d: %s -> %s"
    % (key[0], key[1], key[3], key[2], old, new),
    header="%d prediction(s) drifted from baseline:", pinned=True)


def _render_validation(result: Dict) -> str:
    lines = ["%s [%s]: coverage %.4f (full, %d inj) vs %.4f "
             "(stratified, %d inj; err %+.1fpp)  precision %s recall %s"
             % (result["program"], result["model"],
                result["coverage_full"], result["injections"],
                result["stratified"]["coverage_estimate"],
                result["stratified"]["budget"],
                100 * result["stratified"]["error"],
                _fmt_rate(result["precision"]), _fmt_rate(result["recall"]))]
    for cls, census in sorted(result["classes"].items()):
        lines.append(
            "  predicted %-10s %3d activated, detection rate %s, "
            "sdc rate %s" % (cls, census["activated"],
                             _fmt_rate(census["detection_rate"]),
                             _fmt_rate(census["sdc_rate"])))
    return "\n".join(lines)


def _fmt_rate(rate) -> str:
    return "n/a" if rate is None else "%.3f" % rate


def cmd_vuln(args) -> int:
    targets = _targets(args)
    if args.validate:
        return _vuln_validate(args, targets)
    from repro.lint.vuln import VULN_SCHEMA
    items = [target + (args.sparse_checks,) for target in targets]
    reports = _run(_vuln_task, items, args, "vulnerability analysis")
    payload = reports[0] if len(reports) == 1 else {
        "schema": VULN_SCHEMA, "reports": reports}
    return VULN_GATE.finish(
        args, payload,
        lambda: "\n".join(_render_vuln_text(r) for r in reports) + "\n",
        "%d report(s)" % len(reports))


def _vuln_validate(args, targets) -> int:
    from repro.faults import (CampaignSpec, check_validation,
                              validate_predictions)
    from repro.faults.validation import VALIDATION_SCHEMA
    from repro.lint.vuln import analyze_program
    from repro.runtime.program import ParallelProgram
    from repro.splash2 import kernel as kernel_spec
    from repro.store import open_store

    if not 0 < args.budget_fraction <= 1:
        raise UsageError("--budget-fraction must be in (0, 1], got %s"
                         % args.budget_fraction)
    store = open_store(args.store)
    results = []
    failures: List[str] = []
    for name, source, entry, outputs in targets:
        program = ParallelProgram(
            source, name, entry=entry,
            analysis_config=_analysis_config(args.sparse_checks))
        setup = None
        quantize_bits = 0
        try:
            kernel = kernel_spec(name)
            setup = kernel.setup(args.threads)
            quantize_bits = kernel.sdc_quantize_bits
        except KeyError:
            pass
        try:
            spec = CampaignSpec.build(
                source, name=name, entry=entry, fault=args.fault,
                injections=args.injections, nthreads=args.threads,
                seed=args.seed, output_globals=outputs,
                quantize_bits=quantize_bits, opt_level=program.opt_level)
            report = analyze_program(program, output_globals=outputs,
                                     store=store)
            result = validate_predictions(
                spec, program=program, setup=setup, report=report,
                store=store, budget_fraction=args.budget_fraction,
                jobs=args.jobs)
        except Exception as exc:
            raise UsageError("validating %s failed: %s" % (name, exc)) \
                from None
        results.append(result)
        if args.check:
            failures.extend("[%s] %s" % (name, failure)
                            for failure in check_validation(result))

    if args.format == "json":
        payload = results[0] if len(results) == 1 else {
            "schema": VALIDATION_SCHEMA, "validations": results}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_validation(r) for r in results) + "\n"
    emit(text, args.output)
    if failures:
        print("%d validation check(s) failed:" % len(failures),
              file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    return 0


def register(sub) -> None:
    """The ``lint`` and ``vuln`` subcommands."""
    parser = sub.add_parser(
        "lint", help="static race detection",
        description="Static race detection (lockset + barrier phases) "
                    "for MiniC parallel programs.  'repro vuln' predicts "
                    "fault-injection coverage instead.")
    _add_operands(parser, "lint")
    LINT_GATE.add_options(parser)
    add_shared_options(parser, "jobs", "store")
    parser.set_defaults(func=cmd_lint)

    parser = sub.add_parser(
        "vuln", help="static fault-vulnerability prediction",
        description="Static fault-vulnerability prediction: classify "
                    "every branch fault site as monitored / masked / "
                    "sdc-prone, per fault model.")
    _add_operands(parser, "analyze")
    VULN_GATE.add_options(parser)
    add_shared_options(parser, "jobs", "store")
    parser.add_argument("--sparse-checks", action="store_true",
                        help="analyze under the sparse-check profile "
                             "(elide redundant checks, no none->partial "
                             "promotion) so unchecked branches exist")
    parser.add_argument("--validate", action="store_true",
                        help="run fault-injection campaigns and join "
                             "measured outcomes against the predictions")
    parser.add_argument("--check", action="store_true",
                        help="with --validate: enforce the acceptance "
                             "checks (monitored rate > sdc-prone rate; "
                             "stratified estimate within tolerance)")
    parser.add_argument("--fault", choices=("flip", "condition"),
                        default="flip",
                        help="fault model for --validate (default: flip)")
    parser.add_argument("--threads", type=int, default=4,
                        help="campaign thread count for --validate")
    parser.add_argument("--injections", type=int, default=120,
                        help="full-sweep injections for --validate")
    parser.add_argument("--budget-fraction", type=float, default=0.25,
                        help="stratified budget as a fraction in "
                             "(0, 1] of the full sweep (default: 0.25)")
    parser.add_argument("--seed", type=int, default=12345,
                        help="campaign base seed for --validate")
    parser.set_defaults(func=cmd_vuln)
