"""The ``repro`` command: compile, inspect, run, and protect MiniC
programs, lint them, triage campaigns, regenerate the paper's figures,
and serve campaigns.

Subcommands::

    repro dump    prog.mc               # SSA IR listing
    repro report  prog.mc               # branch classification
    repro run     prog.mc -t 4          # execute (protected)
    repro run     prog.mc -t 4 --baseline
    repro trace   prog.mc -t 4 -o run.jsonl   # run + JSONL trace
    repro inject  prog.mc -t 4 -n 100 --fault flip -j 4
    repro inject  kernel:radix -n 50 --trace campaign.jsonl
    repro run     kernel:radix --store ~/.cache/repro
    repro inject  kernel:radix -n 500 --journal camp.jsonl
    repro inject  kernel:radix -n 500 --journal camp.jsonl --resume
    repro lint    kernel:radix          # static race report
    repro vuln    kernel:radix          # fault-vulnerability predictions
    repro triage  kernel:radix -n 400   # clustered failure modes
    repro figures fig8 fig9             # the paper's tables and figures
    repro store   ls                    # inspect the artifact store
    repro serve   start --store /tmp/store
    repro check-trace run.jsonl         # validate a JSONL trace

Programs receive ``nprocs`` automatically; other inputs can be seeded
with ``--set name=value`` (scalars) and ``--fill array=v0,v1,...``.
``kernel:NAME`` instead of a file path selects a built-in SPLASH-2-style
kernel (its canonical inputs and output globals come along).  Output
arrays for SDC comparison in ``inject`` are chosen with ``--outputs
a,b``; ``--trace out.jsonl`` records a telemetry event trace.

A usage or I/O error on any subcommand is one ``error:`` line on stderr
and exit status 2.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Callable, Optional

from repro.analysis import format_table
from repro.api import BlockWatch
from repro.cliutil import (
    KERNEL_PREFIX,
    add_shared_options,
    campaign_spec_from_args,
    kernel_spec,
    parse_assignments,
    parse_fills,
    resolve_program,
)
from repro.errors import AnalysisError, ReproError, UsageError
from repro.frontend import compile_source
from repro.ir import print_module
from repro.monitor import MonitorMode
from repro.runtime.memory import SharedMemory
from repro.store import open_store
from repro.store.runtime import default_store_scope
from repro.telemetry import Telemetry, write_trace


def _make_blockwatch(args, store=None, telemetry=None) -> BlockWatch:
    # A plain file compiles under the name "program".
    name, source, entry, _ = resolve_program(args.program, args.entry,
                                             name="program")
    opt_level = getattr(args, "opt_level", None)
    if store is not None:
        hits = store.counters.get("store.cache.hit", 0)
        program = store.get_program(source, name, entry=entry,
                                    telemetry=telemetry,
                                    opt_level=opt_level)
        outcome = ("hit" if store.counters.get("store.cache.hit", 0)
                   > hits else "miss")
        print("store: program cache %s (%s)" % (outcome, name))
        return BlockWatch.from_program(program)
    return BlockWatch(source, name=name, entry=entry, opt_level=opt_level)


def make_setup(nthreads: int, scalars, arrays,
               kernel_setup=None) -> Callable[[SharedMemory], None]:
    def apply(memory: SharedMemory) -> None:
        if kernel_setup is not None:
            kernel_setup(memory)
        if "nprocs" in memory.scalars:
            memory.set_scalar("nprocs", nthreads)
        for name, value in scalars.items():
            memory.set_scalar(name, value)
        for name, values in arrays.items():
            memory.set_array(name, values)
    return apply


def _make_run_setup(args) -> Callable[[SharedMemory], None]:
    kernel_setup = None
    if args.program.startswith(KERNEL_PREFIX):
        kernel_setup = kernel_spec(args.program).setup(args.threads)
    return make_setup(args.threads, parse_assignments(args.set),
                      parse_fills(args.fill), kernel_setup=kernel_setup)


def cmd_dump(args) -> int:
    _, source, entry, _ = resolve_program(args.program, args.entry)
    module = compile_source(source, "program")
    if entry not in module.functions:
        raise AnalysisError("entry function %r not found in module" % entry)
    print(print_module(module))
    return 0


def cmd_report(args) -> int:
    print(_make_blockwatch(args).report())
    return 0


def _run_once(args, trace_path: Optional[str]) -> int:
    """Shared body of ``run`` and ``trace``: execute + report one run;
    returns the exit status."""
    telemetry = None
    if trace_path is not None:
        telemetry = Telemetry(context={"inj": -1, "seed": args.seed})
    bw = _make_blockwatch(args, store=open_store(args.store, install=True),
                          telemetry=telemetry)
    setup = _make_run_setup(args)
    try:
        if args.baseline:
            result = bw.run_baseline(args.threads, setup=setup,
                                     seed=args.seed, telemetry=telemetry)
        else:
            result = bw.run(args.threads, setup=setup, seed=args.seed,
                            monitor_mode=MonitorMode.FULL, telemetry=telemetry)
    except ValueError as exc:
        # Run settings the machine rejects (e.g. ``-t 0``).
        raise UsageError(str(exc)) from None
    print("status: %s" % result.status)
    if result.failure_message:
        print("failure: %s" % result.failure_message)
    for tid in sorted(result.outputs):
        if result.outputs[tid]:
            print("thread %d output: %s" % (tid, result.outputs[tid]))
    if result.violations:
        print("detections:")
        for violation in result.violations[:10]:
            print("  %s" % violation)
    for name in args.show:
        print("%s = %s" % (name, result.memory.get_array(name)
                           if name in result.memory.arrays
                           else result.memory.get_scalar(name)))
    print("parallel-section cycles: %.0f" % result.parallel_time)
    if result.telemetry is not None:
        print()
        print("telemetry (steps/s: %.0f):"
              % result.telemetry.rate("interp.steps", "interp.wall_ns"))
        print(result.telemetry.format_summary())
        if trace_path is not None:
            count = write_trace(trace_path, result.telemetry.events)
            print("trace: %d events -> %s" % (count, trace_path))
    return 0 if result.status == "ok" and not result.detected else 1


def cmd_run(args) -> int:
    return _run_once(args, trace_path=args.trace)


def cmd_trace(args) -> int:
    return _run_once(args, trace_path=args.out)


def cmd_inject(args) -> int:
    store = open_store(args.store, install=True)
    bw = _make_blockwatch(args, store=store)
    spec = campaign_spec_from_args(args)
    try:
        result = bw.inject(spec=spec, jobs=args.jobs, store=store)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    stats = result.stats
    print(format_table(
        stats.SUMMARY_HEADERS, [stats.summary_row()],
        title="Campaign: %d x %s on %s" % (args.injections, spec.fault,
                                           args.program)))
    print("trials cut short: %d stopped checking, %d re-joined golden"
          % (stats.settled, stats.rejoined))
    if result.stratified is not None:
        estimate = result.stratified["estimate"]
        print("stratified estimate: coverage %.4f (protected) / %.4f "
              "(original) from %d injection(s) over %d dynamic site(s)"
              % (estimate["coverage_protected"],
                 estimate["coverage_original"], estimate["injections"],
                 result.stratified["total_instances"]))
        for cls, info in sorted(result.stratified["classes"].items()):
            print("  %-10s weight %.3f, %d instance(s), %d draw(s)"
                  % (cls, info["weight"], info["instances"],
                     info["planned"]))
    if args.journal is not None:
        print("journal: %s%s" % (args.journal,
                                 " (resumed)" if args.resume else ""))
    if args.trace is not None:
        count = result.write_trace(args.trace)
        print("trace: %d events -> %s" % (count, args.trace))
        print(result.telemetry.format_summary())
    return 0


def register(sub) -> None:
    """The program subcommands: ``dump``, ``report``, ``run``,
    ``trace`` and ``inject``."""
    p_dump = sub.add_parser("dump", help="print the SSA IR")
    add_shared_options(p_dump, "program")
    p_dump.set_defaults(func=cmd_dump)

    p_report = sub.add_parser("report", help="print branch classification")
    add_shared_options(p_report, "program")
    p_report.set_defaults(func=cmd_report)

    def run_parser(name, text):
        p = sub.add_parser(name, help=text)
        add_shared_options(p, "program", "inputs", "opt", "store")
        p.add_argument("--baseline", action="store_true",
                       help="run the uninstrumented image")
        p.add_argument("--show", action="append", default=[],
                       metavar="GLOBAL", help="print a global after the run")
        return p

    p_run = run_parser("run", "execute the program")
    p_run.add_argument("--trace", default=None, metavar="OUT.JSONL",
                       help="collect telemetry and write the event trace")
    p_run.set_defaults(func=cmd_run)

    p_trace = run_parser(
        "trace", "execute the program with telemetry + JSONL trace")
    p_trace.add_argument("-o", "--out", default="trace.jsonl",
                         metavar="OUT.JSONL",
                         help="trace destination (default: trace.jsonl)")
    p_trace.set_defaults(func=cmd_trace)

    p_inject = sub.add_parser("inject", help="fault-injection campaign")
    add_shared_options(p_inject, "program", "inputs", "opt", "campaign",
                       "jobs", "journal", "store")
    p_inject.add_argument("--trace", default=None, metavar="OUT.JSONL",
                          help="collect campaign telemetry and write the "
                               "merged event trace")
    p_inject.set_defaults(func=cmd_inject)


# The modules that register the other subcommands, in help order.  Only
# the one owning the requested subcommand is imported, so ``repro dump``
# does not pay for the serve, lint and experiment imports.
SUBCOMMAND_MODULES = {
    "lint": "repro.lint.cli",
    "vuln": "repro.lint.cli",
    "triage": "repro.triage.cli",
    "figures": "repro.experiments.runner",
    "store": "repro.store.cli",
    "serve": "repro.serve.cli",
    "check-trace": "repro.telemetry.trace",
}


def main(argv=None) -> int:
    """Run one ``repro`` subcommand; returns its exit status.  Every
    usage or I/O error ends here as one ``error:`` line and status 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLOCKWATCH on MiniC SPMD programs: compile, inspect, "
                    "run, protect, lint, triage, and serve campaigns.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    register(sub)
    command = argv[0] if argv else None
    if command in SUBCOMMAND_MODULES:
        modules = [SUBCOMMAND_MODULES[command]]
    elif command in sub.choices:
        modules = []
    else:
        # Help or a usage error: list every subcommand.
        modules = list(dict.fromkeys(SUBCOMMAND_MODULES.values()))
    for name in modules:
        importlib.import_module(name).register(sub)
    args = parser.parse_args(argv)
    with default_store_scope():
        try:
            return args.func(args)
        except (ReproError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
