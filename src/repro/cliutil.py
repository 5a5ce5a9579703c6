"""Shared argparse building blocks for the ``repro-*`` CLIs.

Every repro command that fans work across processes, touches the
artifact store, checkpoints campaigns, or selects a compilation profile
takes the same flags — historically re-declared (with drifting help
text and aliases) in each CLI.  :func:`shared_options` builds one
*parent parser* per feature set; ``repro-minic``, ``repro-blockwatch``,
``repro-lint``, and ``repro-serve`` all compose their parsers from it,
so ``-j/--jobs``, ``--store``, ``--journal``/``--resume``, and
``-O/--opt-level`` spell, default, and document identically
everywhere::

    parser = argparse.ArgumentParser(
        prog="repro-thing",
        parents=[shared_options("jobs", "store")])

Defaults stay ``None`` so each flag keeps deferring to its environment
knob (``REPRO_JOBS``, ``REPRO_STORE``, ``REPRO_OPT_LEVEL``) at
resolution time, not at parse time.
"""

from __future__ import annotations

import argparse
from typing import Optional

#: Canonical one-line help per shared flag (the single place the
#: wording lives; pass ``jobs_help=`` for command-specific phrasing,
#: e.g. repro-serve's shard count).
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

FEATURES = ("jobs", "store", "journal", "opt")


def add_shared_options(parser: argparse.ArgumentParser, *features: str,
                       jobs_help: Optional[str] = None,
                       store_help: Optional[str] = None) -> None:
    """Add the named shared flag groups to ``parser`` in place."""
    for feature in features:
        if feature not in FEATURES:
            raise ValueError("unknown shared CLI feature %r (expected %s)"
                             % (feature, ", ".join(FEATURES)))
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


def shared_options(*features: str, jobs_help: Optional[str] = None,
                   store_help: Optional[str] = None
                   ) -> argparse.ArgumentParser:
    """A parent parser (``add_help=False``) carrying the named shared
    flag groups — pass it via ``ArgumentParser(parents=[...])`` or
    ``add_parser(..., parents=[...])``."""
    parent = argparse.ArgumentParser(add_help=False)
    add_shared_options(parent, *features, jobs_help=jobs_help,
                       store_help=store_help)
    return parent
