"""Shared building blocks of the ``repro`` command's subcommands.

Every subcommand that names a program, runs a campaign, fans work
across processes, touches the artifact store, checkpoints campaigns, or
selects a compilation profile takes the same flags, declared once here
by :func:`add_shared_options`::

    add_shared_options(parser, "program", "inputs", "campaign", "jobs")

so ``repro inject``, ``repro triage`` and ``repro serve submit`` spell,
default, and document their campaign arguments identically, and all
three turn them into a :class:`repro.CampaignSpec` through
:func:`campaign_spec_from_args`.  Defaults of the process flags stay
``None`` so each keeps deferring to its environment knob
(``REPRO_JOBS``, ``REPRO_STORE``, ``REPRO_OPT_LEVEL``) at resolution
time, not at parse time.

Program operands (a file, ``-`` for stdin, or ``kernel:NAME``) resolve
through :func:`resolve_program`.  The baseline-gated reports
(``repro lint``, ``repro vuln``, ``repro triage``) share one
:class:`DriftGate`.  Bad operands raise :class:`repro.errors.UsageError`,
which :func:`repro.cli.main` prints as one ``error:`` line, exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import UsageError
from repro.faults.spec import KERNEL_PREFIX

#: Canonical one-line help per shared flag (the single place the
#: wording lives; pass ``jobs_help=`` for command-specific phrasing,
#: e.g. the server's shard count).
HELP_JOBS = ("worker processes (0 = all cores; default: $REPRO_JOBS or "
             "serial); results are bit-identical for every value")
HELP_STORE = ("artifact-store root for cached compiles, golden runs, and "
              "results (default: $REPRO_STORE, else off)")
HELP_JOURNAL = ("checkpoint completed injections to a crash-safe JSONL "
                "journal file")
HELP_RESUME = ("resume an interrupted campaign from --journal (validates "
               "the plan hash; runs only the missing injections)")
HELP_OPT = ("trace-preserving optimization level (default: "
            "$REPRO_OPT_LEVEL or 0); results are identical at every level")
HELP_PLAN = ("injection plan: 'full' samples dynamic branches uniformly; "
             "'stratified' samples per statically-predicted vulnerability "
             "class and estimates full-sweep coverage from the -n budget")

FEATURES = ("program", "inputs", "campaign", "jobs", "store", "journal",
            "opt")


def add_shared_options(parser: argparse.ArgumentParser, *features: str,
                       jobs_help: Optional[str] = None,
                       store_help: Optional[str] = None) -> None:
    """Add the named shared flag groups to ``parser`` in place:
    ``program`` (the operand and ``--entry``), ``inputs`` (``-t``,
    ``--seed``, ``--set``, ``--fill``), ``campaign`` (``-n``,
    ``--fault``, ``--outputs``, ``--quantize``, ``--plan``), and the
    process flags ``jobs``, ``store``, ``journal`` and ``opt``."""
    for feature in features:
        if feature not in FEATURES:
            raise ValueError("unknown shared CLI feature %r (expected %s)"
                             % (feature, ", ".join(FEATURES)))
    if "program" in features:
        parser.add_argument("program", help="MiniC source file ('-' for "
                                            "stdin) or kernel:NAME")
        parser.add_argument("--entry", default="slave",
                            help="SPMD worker function (default: slave)")
    if "inputs" in features:
        parser.add_argument("-t", "--threads", type=int, default=4)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--set", action="append", default=[],
                            metavar="NAME=VALUE",
                            help="set a scalar global before the run")
        parser.add_argument("--fill", action="append", default=[],
                            metavar="ARRAY=V0,V1,...",
                            help="fill an array global before the run")
    if "campaign" in features:
        parser.add_argument("-n", "--injections", type=int, default=100)
        parser.add_argument("--fault", choices=("flip", "condition"),
                            default="flip")
        parser.add_argument("--outputs", default="",
                            help="comma-separated result globals for SDC "
                                 "comparison")
        parser.add_argument("--quantize", type=int, default=0,
                            help="low-order result bits ignored in "
                                 "comparison")
        parser.add_argument("--plan", choices=("full", "stratified"),
                            default="full", help=HELP_PLAN)
    if "jobs" in features:
        parser.add_argument("-j", "--jobs", type=int, default=None,
                            metavar="N", help=jobs_help or HELP_JOBS)
    if "store" in features:
        parser.add_argument("--store", default=None, metavar="PATH",
                            help=store_help or HELP_STORE)
    if "journal" in features:
        parser.add_argument("--journal", default=None, metavar="OUT.JSONL",
                            help=HELP_JOURNAL)
        parser.add_argument("--resume", action="store_true",
                            help=HELP_RESUME)
    if "opt" in features:
        parser.add_argument("-O", "--opt-level", type=int, default=None,
                            choices=(0, 1, 2), dest="opt_level",
                            help=HELP_OPT)


# -- programs and inputs ------------------------------------------------------


def load_source(path: str) -> str:
    """The text of a program file (``-`` reads stdin)."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError("cannot read program %r: %s"
                         % (path, exc.strerror or exc)) from None


def kernel_spec(operand: str):
    """The bundled kernel a ``kernel:NAME`` operand names."""
    from repro.splash2 import kernel
    try:
        return kernel(operand[len(KERNEL_PREFIX):])
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def resolve_program(operand: str, entry: str = "slave",
                    name: Optional[str] = None
                    ) -> Tuple[str, str, str, Tuple[str, ...]]:
    """``(name, source, entry, output_globals)`` of one program operand.

    A kernel brings its own name, entry and output globals.  A file is
    called ``name``, by default its base name without ``.mc``, and has
    no output globals."""
    if operand.startswith(KERNEL_PREFIX):
        spec = kernel_spec(operand)
        return spec.name, spec.source, spec.entry, tuple(spec.output_globals)
    if name is None:
        name = operand.rsplit("/", 1)[-1]
        if name.endswith(".mc"):
            name = name[:-3]
    return name or "program", load_source(operand), entry, ()


def resolve_programs(operands: List[str], entry: str,
                     all_kernels: bool = False
                     ) -> List[Tuple[str, str, str, Tuple[str, ...]]]:
    """:func:`resolve_program` over ``operands``, after every bundled
    kernel when ``all_kernels``."""
    targets = []
    if all_kernels:
        from repro.splash2 import all_kernels as kernels
        targets = [resolve_program(KERNEL_PREFIX + spec.name)
                   for spec in kernels()]
    return targets + [resolve_program(operand, entry)
                      for operand in operands]


def _number(text: str):
    return float(text) if "." in text else int(text)


def parse_assignments(pairs: List[str]) -> Dict[str, object]:
    """``--set name=value`` operands as a scalar map."""
    scalars = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            if not name:
                raise ValueError
            scalars[name] = _number(value)
        except ValueError:
            raise UsageError("--set expects name=value, got %r"
                             % pair) from None
    return scalars


def parse_fills(pairs: List[str]) -> Dict[str, list]:
    """``--fill array=v0,v1,...`` operands as an array map."""
    arrays = {}
    for pair in pairs:
        name, _, values = pair.partition("=")
        try:
            if not name:
                raise ValueError
            arrays[name] = [_number(v) for v in values.split(",")]
        except ValueError:
            raise UsageError("--fill expects array=v0,v1,..., got %r"
                             % pair) from None
    return arrays


def campaign_spec_from_args(args):
    """The one CLI → :class:`repro.CampaignSpec` translation, shared by
    ``repro inject``, ``repro triage`` and ``repro serve submit`` so all
    three describe (and fingerprint) campaigns identically.  Kernel
    references travel as ``kernel:NAME``; plain programs travel as
    source text."""
    from repro.faults import CampaignSpec
    program_ref = (args.program if args.program.startswith(KERNEL_PREFIX)
                   else load_source(args.program))
    if not program_ref.strip():
        # An empty program defines no functions: say what compiling it
        # says in every other subcommand.
        raise UsageError("entry function %r not found in module"
                         % args.entry)
    try:
        return CampaignSpec.build(
            program_ref, entry=args.entry, fault=args.fault,
            injections=args.injections, nthreads=args.threads,
            seed=args.seed,
            output_globals=tuple(n for n in args.outputs.split(",") if n),
            quantize_bits=args.quantize, plan=args.plan,
            opt_level=getattr(args, "opt_level", None),
            telemetry=getattr(args, "trace", None) is not None,
            scalars=parse_assignments(args.set),
            arrays=parse_fills(args.fill),
            journal=getattr(args, "journal", None),
            resume=getattr(args, "resume", False))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- report files -------------------------------------------------------------


def load_json(path: str, what: str) -> Dict:
    """Read a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read %s %r: %s" % (what, path, exc)) \
            from None


def write_text_atomic(path: str, text: str) -> None:
    """Replace ``path`` atomically and durably (see
    :func:`repro.store.artifacts.write_atomic`): a crashed run can never
    leave a truncated baseline behind."""
    from repro.store.artifacts import write_atomic
    try:
        write_atomic(path, text.encode("utf-8"))
    except OSError as exc:
        raise UsageError("cannot write %r: %s" % (path, exc)) from None


def emit(text: str, output: Optional[str]) -> None:
    """Write a report to ``output`` (or stdout)."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("cannot write %r: %s" % (output, exc)) from None


@dataclass(frozen=True)
class DriftGate:
    """A report checked against a baseline file: ``repro lint``'s race
    diagnostics, ``repro vuln``'s predictions, ``repro triage``'s
    failure modes.  The gate owns ``--format``, ``--baseline``,
    ``--update-baseline`` and ``-o``; a report supplies only how to key
    its payload and how to word one drift."""

    #: The baseline's name in messages ("vuln baseline").
    what: str
    #: The file ``--update-baseline`` writes without ``--baseline``.
    default: str
    baseline_help: str
    #: Payload (report or baseline file) -> ``{key: value}``.
    keys: Callable[[object], Dict]
    #: ``(key, baseline value, report value)`` -> one drift line.
    describe: Callable[[object, object, object], str]
    #: Heading over the drift lines, given their count.
    header: str
    #: False: a drift is a key the baseline lacks (new findings only).
    #: True: every key's value is pinned, so a changed or vanished key
    #: drifts too, in sorted key order.
    pinned: bool = False

    def add_options(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--format", choices=("text", "json"),
                            default="text")
        parser.add_argument("--baseline", metavar="FILE",
                            help=self.baseline_help)
        parser.add_argument("--update-baseline", action="store_true",
                            help="regenerate the baseline file atomically "
                                 "(default target: %s)" % self.default)
        parser.add_argument("-o", "--output", metavar="FILE",
                            help="write the report here instead of stdout")

    def drift(self, payload, baseline) -> List[str]:
        current, base = self.keys(payload), self.keys(baseline)
        if self.pinned:
            changed = [key for key in sorted(set(current) | set(base))
                       if current.get(key) != base.get(key)]
        else:
            changed = [key for key in current if key not in base]
        return [self.describe(key, base.get(key), current.get(key))
                for key in changed]

    def finish(self, args, payload, render: Callable[[], str], count: str,
               status: int = 0) -> int:
        """Write, print, or gate ``payload``; returns the exit status.
        ``render`` gives the text form, ``count`` sizes the update
        message, and ``status`` is the verdict without ``--baseline``."""
        json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.update_baseline:
            target = args.baseline or self.default
            write_text_atomic(target, json_text)
            print("%s updated: %s (%s)" % (self.what, target, count))
            return 0
        emit(json_text if args.format == "json" else render(), args.output)
        if not args.baseline:
            return status
        fresh = self.drift(payload, load_json(args.baseline, self.what))
        if not fresh:
            return 0
        print(self.header % len(fresh), file=sys.stderr)
        for line in fresh:
            print("  " + line, file=sys.stderr)
        return 1
