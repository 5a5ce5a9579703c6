"""``repro-minic`` — compile, inspect, run, and protect MiniC programs
from the command line.

Subcommands::

    repro-minic dump    prog.mc               # SSA IR listing
    repro-minic report  prog.mc               # branch classification
    repro-minic run     prog.mc -t 4          # execute (protected)
    repro-minic run     prog.mc -t 4 --baseline
    repro-minic trace   prog.mc -t 4 -o run.jsonl   # run + JSONL trace
    repro-minic inject  prog.mc -t 4 -n 100 --fault flip -j 4
    repro-minic inject  kernel:radix -n 50 --trace campaign.jsonl
    repro-minic run     kernel:radix --store ~/.cache/repro-store
    repro-minic inject  kernel:radix -n 500 --journal camp.jsonl
    repro-minic inject  kernel:radix -n 500 --journal camp.jsonl --resume

Programs receive ``nprocs`` automatically; other inputs can be seeded
with ``--set name=value`` (scalars) and ``--fill array=v0,v1,...``.
``kernel:NAME`` instead of a file path selects a built-in SPLASH-2-style
kernel (its canonical inputs and output globals come along).  Output
arrays for SDC comparison in ``inject`` are chosen with ``--outputs
a,b``; ``--trace out.jsonl`` records a telemetry event trace.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable, List, Optional

from repro.analysis import format_table
from repro.api import BlockWatch
from repro.cliutil import UsageExit, add_shared_options
from repro.errors import AnalysisError, ReproError
from repro.faults import CampaignSpec, FaultType
from repro.frontend import compile_source
from repro.ir import print_module
from repro.monitor import MonitorMode
from repro.runtime.memory import SharedMemory
from repro.telemetry import Telemetry, write_trace

KERNEL_PREFIX = "kernel:"


def _load_source(path: str) -> str:
    if path.startswith(KERNEL_PREFIX):
        return _kernel_spec(path).source
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit("error: cannot read program %r: %s"
                         % (path, exc.strerror or exc))


def _kernel_spec(path: str):
    from repro.splash2 import kernel
    try:
        return kernel(path[len(KERNEL_PREFIX):])
    except KeyError as exc:
        raise SystemExit("error: %s" % exc.args[0])


def _open_store(args):
    """The ``--store``/``$REPRO_STORE`` artifact store, installed as the
    process default so campaigns resolve programs through it and share
    golden runs (kept in its memory, with their checkpoints)."""
    from repro.store import open_store
    return open_store(getattr(args, "store", None), install=True)


def _program_source(args):
    """``(source, name, entry)`` named by the ``program`` argument."""
    if args.program.startswith(KERNEL_PREFIX):
        spec = _kernel_spec(args.program)
        return spec.source, spec.name, spec.entry
    return _load_source(args.program), "program", args.entry


@contextmanager
def _program_errors():
    """A program that fails to compile or analyze is one ``error:`` line
    and exit status 2, not a traceback."""
    try:
        yield
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)


def _make_blockwatch(args, store=None, telemetry=None) -> BlockWatch:
    source, name, entry = _program_source(args)
    opt_level = getattr(args, "opt_level", None)
    with _program_errors():
        if store is not None:
            hits = store.counters.get("store.cache.hit", 0)
            program = store.get_program(source, name, entry=entry,
                                        telemetry=telemetry,
                                        opt_level=opt_level)
            outcome = ("hit" if store.counters.get("store.cache.hit", 0)
                       > hits else "miss")
            print("store: program cache %s (%s)" % (outcome, name))
            return BlockWatch.from_program(program)
        return BlockWatch(source, name=name, entry=entry,
                          opt_level=opt_level)


def _parse_assignments(pairs: List[str]):
    scalars = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit("--set expects name=value, got %r" % pair)
        scalars[name] = float(value) if "." in value else int(value)
    return scalars


def _parse_fills(pairs: List[str]):
    arrays = {}
    for pair in pairs:
        name, _, values = pair.partition("=")
        if not name or not values:
            raise SystemExit("--fill expects array=v0,v1,..., got %r" % pair)
        arrays[name] = [float(v) if "." in v else int(v)
                        for v in values.split(",")]
    return arrays


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
        kernel_setup = _kernel_spec(args.program).setup(args.threads)
    return make_setup(args.threads, _parse_assignments(args.set),
                      _parse_fills(args.fill), kernel_setup=kernel_setup)


def cmd_dump(args) -> int:
    source, _name, entry = _program_source(args)
    with _program_errors():
        module = compile_source(source, "program")
        if entry not in module.functions:
            raise AnalysisError("entry function %r not found in module"
                                % entry)
    print(print_module(module))
    return 0


def cmd_report(args) -> int:
    bw = _make_blockwatch(args)
    print(bw.report())
    return 0


def _run_once(args, trace_path: Optional[str]):
    """Shared body of ``run`` and ``trace``: execute + report one run.
    Returns the result, or None after a one-line error for run settings
    the machine rejects (e.g. ``-t 0``)."""
    telemetry = None
    if trace_path is not None:
        telemetry = Telemetry(context={"inj": -1, "seed": args.seed})
    bw = _make_blockwatch(args, store=_open_store(args), telemetry=telemetry)
    setup = _make_run_setup(args)
    try:
        if args.baseline:
            result = bw.run_baseline(args.threads, setup=setup,
                                     seed=args.seed, telemetry=telemetry)
        else:
            result = bw.run(args.threads, setup=setup, seed=args.seed,
                            monitor_mode=MonitorMode.FULL, telemetry=telemetry)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return None
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
    return result


def _exit_status(result) -> int:
    if result is None:
        return 2
    return 0 if result.status == "ok" and not result.detected else 1


def cmd_run(args) -> int:
    return _exit_status(_run_once(args, trace_path=args.trace))


def cmd_trace(args) -> int:
    return _exit_status(_run_once(args, trace_path=args.out))


def campaign_spec_from_args(args) -> CampaignSpec:
    """The one CLI → :class:`repro.CampaignSpec` translation, shared by
    ``repro-minic inject`` and ``repro-serve submit`` so both surfaces
    describe (and fingerprint) campaigns identically.  Kernel references
    travel as ``kernel:NAME``; plain programs travel as source text."""
    program_ref = (args.program if args.program.startswith(KERNEL_PREFIX)
                   else _load_source(args.program))
    try:
        return CampaignSpec.build(
            program_ref, entry=args.entry, fault=args.fault,
            injections=args.injections, nthreads=args.threads,
            seed=args.seed,
            output_globals=tuple(n for n in args.outputs.split(",") if n),
            quantize_bits=args.quantize, plan=args.plan,
            opt_level=getattr(args, "opt_level", None),
            telemetry=getattr(args, "trace", None) is not None,
            scalars=_parse_assignments(args.set),
            arrays=_parse_fills(args.fill),
            journal=getattr(args, "journal", None),
            resume=getattr(args, "resume", False))
    except ValueError as exc:
        # A usage error (an empty program file lands here): one line,
        # exit status 2.
        message = "error: %s" % exc
        print(message, file=sys.stderr)
        raise UsageExit(message)


def cmd_inject(args) -> int:
    store = _open_store(args)
    bw = _make_blockwatch(args, store=store)
    spec = campaign_spec_from_args(args)
    from repro.errors import StoreError
    try:
        result = bw.inject(spec=spec, jobs=args.jobs, store=store)
    except (StoreError, ValueError) as exc:
        raise SystemExit("error: %s" % exc)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-minic",
        description="Compile, inspect, run, and protect MiniC SPMD programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_run_opts=True):
        p.add_argument("program", help="MiniC source file ('-' for stdin)")
        p.add_argument("--entry", default="slave",
                       help="SPMD worker function (default: slave)")
        if with_run_opts:
            p.add_argument("-t", "--threads", type=int, default=4)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--set", action="append", default=[],
                           metavar="NAME=VALUE",
                           help="set a scalar global before the run")
            p.add_argument("--fill", action="append", default=[],
                           metavar="ARRAY=V0,V1,...",
                           help="fill an array global before the run")
            add_shared_options(p, "opt")

    p_dump = sub.add_parser("dump", help="print the SSA IR")
    common(p_dump, with_run_opts=False)
    p_dump.set_defaults(func=cmd_dump)

    p_report = sub.add_parser("report", help="print branch classification")
    common(p_report, with_run_opts=False)
    p_report.set_defaults(func=cmd_report)

    def run_opts(p):
        p.add_argument("--baseline", action="store_true",
                       help="run the uninstrumented image")
        p.add_argument("--show", action="append", default=[],
                       metavar="GLOBAL", help="print a global after the run")

    def store_opt(p):
        add_shared_options(p, "store")

    p_run = sub.add_parser("run", help="execute the program")
    common(p_run)
    run_opts(p_run)
    store_opt(p_run)
    p_run.add_argument("--trace", default=None, metavar="OUT.JSONL",
                       help="collect telemetry and write the event trace")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="execute the program with telemetry + JSONL trace")
    common(p_trace)
    run_opts(p_trace)
    store_opt(p_trace)
    p_trace.add_argument("-o", "--out", default="trace.jsonl",
                         metavar="OUT.JSONL",
                         help="trace destination (default: trace.jsonl)")
    p_trace.set_defaults(func=cmd_trace)

    p_inject = sub.add_parser("inject", help="fault-injection campaign")
    common(p_inject)
    p_inject.add_argument("-n", "--injections", type=int, default=100)
    p_inject.add_argument("--fault", choices=("flip", "condition"),
                          default="flip")
    p_inject.add_argument("--outputs", default="",
                          help="comma-separated result globals for SDC "
                               "comparison")
    p_inject.add_argument("--quantize", type=int, default=0,
                          help="low-order result bits ignored in comparison")
    add_shared_options(p_inject, "jobs", "journal")
    p_inject.add_argument("--trace", default=None, metavar="OUT.JSONL",
                          help="collect campaign telemetry and write the "
                               "merged event trace")
    store_opt(p_inject)
    p_inject.add_argument("--plan", choices=("full", "stratified"),
                          default="full",
                          help="injection plan: 'full' samples dynamic "
                               "branches uniformly; 'stratified' samples "
                               "per statically-predicted vulnerability "
                               "class and estimates full-sweep coverage "
                               "from the -n budget")
    p_inject.set_defaults(func=cmd_inject)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
