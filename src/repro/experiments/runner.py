"""Command-line entry point: regenerate any table/figure of the paper.

The ``repro figures`` subcommand::

    repro figures list
    repro figures table3 table4 table5
    repro figures fig6 fig7
    repro figures -n 4 -t 4 fig8               # 4 injections, 4 threads
    repro figures -n 1000 -j 0 fig8 fig9       # paper scale, all cores
    repro figures --store ~/.cache/repro fig8 fig9
    repro figures all

Every setting reaches an experiment as an argument of its ``compute``
(:data:`EXPERIMENTS`); an unset flag passes nothing, so the experiment
keeps its own default.  Results are bit-identical for every ``--jobs``.
``--store`` routes kernel compiles and campaign golden runs through a
:mod:`repro.store` cache, so the figures of one invocation share one
compiled program and one golden run per configuration.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Callable, Dict, Optional, Tuple

from repro.cliutil import add_shared_options
from repro.errors import UsageError
from repro.experiments import (
    duplication,
    false_positives,
    fig6,
    fig7,
    fig8,
    fig9,
    table3,
    table4,
    table5,
    vuln_validation,
)


def thread_list(text: str) -> Tuple[int, ...]:
    """A comma-separated list of thread counts (``4,32``)."""
    counts = tuple(int(part) for part in text.split(",") if part.strip())
    if not counts or min(counts) < 1:
        raise ValueError("no positive thread counts in %r" % text)
    return counts


#: Size flag -> (its environment variable, parser).
SIZE_ENV = {"injections": ("REPRO_FAULTS", int),
            "threads": ("REPRO_THREADS", thread_list),
            "runs": ("REPRO_FP_RUNS", int)}


def size_settings(args: Optional[argparse.Namespace] = None) -> Dict:
    """The campaign sizes of a run: each size flag set in ``args``, else
    its environment variable (:data:`SIZE_ENV`), else ``None`` (the
    experiment's own default).  The one place where an experiment
    setting is read from the environment."""
    sizes = {}
    for name, (variable, parse) in SIZE_ENV.items():
        sizes[name] = getattr(args, name, None)
        raw = os.environ.get(variable, "").strip()
        if sizes[name] is None and raw:
            try:
                sizes[name] = parse(raw)
            except ValueError:
                raise UsageError("$%s: invalid value %r"
                                 % (variable, raw)) from None
    return sizes


def _given(**kwargs) -> Dict:
    """``kwargs`` without the ``None`` values: an unset flag passes
    nothing."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _coverage(module) -> Callable[[argparse.Namespace], str]:
    return lambda a: module.render(module.compute(
        jobs=a.jobs, opt_level=a.opt_level, store=a.store,
        **_given(injections=a.injections, thread_counts=a.threads)))


#: Experiment name -> a callable of the parsed ``repro figures`` args
#: that computes and renders it, passing the settings it uses.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table3": lambda a: table3.render(table3.compute()),
    "table4": lambda a: table4.render(table4.compute(opt_level=a.opt_level)),
    "table5": lambda a: table5.render(table5.compute(opt_level=a.opt_level)),
    "fig6": lambda a: fig6.render(fig6.compute(
        jobs=a.jobs, opt_level=a.opt_level)),
    "fig7": lambda a: fig7.render(fig7.compute(
        jobs=a.jobs, opt_level=a.opt_level)),
    "fig8": _coverage(fig8),
    "fig9": _coverage(fig9),
    "false-positives": lambda a: false_positives.render(
        false_positives.compute(jobs=a.jobs, opt_level=a.opt_level,
                                **_given(runs=a.runs))),
    "duplication": lambda a: duplication.render(
        duplication.compute(opt_level=a.opt_level)),
    "vuln-validation": lambda a: vuln_validation.render(
        vuln_validation.compute(jobs=a.jobs, opt_level=a.opt_level,
                                store=a.store,
                                **_given(injections=a.injections))),
}

DESCRIPTIONS = {
    "table3": "category-propagation trace on the Figure 2 example",
    "table4": "benchmark program characteristics",
    "table5": "similarity category statistics",
    "fig6": "normalized execution time at 4 and 32 threads",
    "fig7": "geomean overhead vs thread count (1..32)",
    "fig8": "SDC coverage, branch-flip faults",
    "fig9": "SDC coverage, branch-condition faults",
    "false-positives": "error-free runs, zero reports expected",
    "duplication": "comparison against software duplication (Section VI)",
    "vuln-validation": "static vulnerability predictions vs measured "
                       "campaign outcomes",
}


def cmd_figures(args) -> int:
    requested = list(args.experiments)
    if requested == ["all"]:
        requested = list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown and requested != ["list"]:
        raise UsageError("unknown experiment(s): %s (available: %s)"
                         % (", ".join(unknown), ", ".join(EXPERIMENTS)))
    vars(args).update(size_settings(args))
    from repro.store import open_store
    args.store = open_store(args.store, install=True)
    if args.store is not None:
        print("artifact store: %s" % args.store.root)

    if requested == ["list"]:
        for name in EXPERIMENTS:
            print("%-16s %s" % (name, DESCRIPTIONS[name]))
        return 0
    for name in requested:
        started = time.time()
        print(EXPERIMENTS[name](args))
        print("[%s took %.1fs]" % (name, time.time() - started))
        print()
    return 0


def register(sub) -> None:
    """The ``figures`` subcommand."""
    parser = sub.add_parser(
        "figures", help="regenerate the paper's tables and figures",
        description="Regenerate the tables and figures of BLOCKWATCH "
                    "(Wei & Pattabiraman, DSN 2012) on the simulated "
                    "32-core substrate.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment names, 'list', or 'all'")
    parser.add_argument("-n", "--injections", type=int, help=(
        "injections per campaign of fig8/fig9/vuln-validation "
        "(default: $REPRO_FAULTS, else 60/60/120)"))
    parser.add_argument("-t", "--threads", type=thread_list, metavar="N,..",
                        help="fig8/fig9 thread counts (default: "
                             "$REPRO_THREADS, else 4,32)")
    parser.add_argument("--runs", type=int, help=(
        "false-positives runs per program (default: $REPRO_FP_RUNS, "
        "else 100)"))
    add_shared_options(parser, "jobs", "store", "opt")
    parser.set_defaults(func=cmd_figures)
