"""``repro store`` — inspect and maintain a durable artifact store.

Subcommands::

    repro store [--store PATH] ls                # list cached objects
    repro store gc     [--max-entries N] [--max-bytes B] [--dry-run]
    repro store verify [--delete]                # strict integrity check

The store root comes from ``--store`` or the ``REPRO_STORE`` environment
variable.  ``gc`` evicts least-recently-used objects first; ``verify``
loads every object strictly and reports (optionally deletes) anything
corrupt or written under an incompatible schema version.
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.errors import UsageError
from repro.store.artifacts import ArtifactStore
from repro.store.runtime import open_store


def _require_store(args) -> ArtifactStore:
    store = open_store(args.store)
    if store is None:
        raise UsageError(
            "no store configured: pass --store PATH or set REPRO_STORE")
    return store


def _fmt_bytes(size: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return ("%d %s" % (size, unit) if unit == "B"
                    else "%.1f %s" % (size, unit))
        size /= 1024.0
    return "%d B" % size


def _fmt_when(ts: float) -> str:
    if ts <= 0:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


def cmd_ls(args) -> int:
    store = _require_store(args)
    entries = sorted(store.entries(), key=lambda e: e.last_used,
                     reverse=True)
    rows = [[entry.key[:12], entry.kind, entry.name or "-",
             _fmt_bytes(entry.size), _fmt_when(entry.created),
             _fmt_when(entry.last_used)]
            for entry in entries]
    print(format_table(
        ["key", "kind", "name", "size", "created", "last used"], rows,
        title="store %s: %d objects, %s"
              % (store.root, len(entries),
                 _fmt_bytes(sum(e.size for e in entries)))))
    return 0


def cmd_gc(args) -> int:
    store = _require_store(args)
    if args.max_entries is None and args.max_bytes is None:
        raise UsageError("gc needs --max-entries and/or --max-bytes")
    for flag, bound in (("--max-entries", args.max_entries),
                        ("--max-bytes", args.max_bytes)):
        if bound is not None and bound < 0:
            raise UsageError("gc %s must be >= 0, got %d" % (flag, bound))
    evicted = store.gc(max_entries=args.max_entries,
                       max_bytes=args.max_bytes, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print("%s %d object(s), %s"
          % (verb, len(evicted), _fmt_bytes(sum(e.size for e in evicted))))
    for entry in evicted:
        print("  %s %s %s" % (entry.key[:12], entry.kind,
                              entry.name or ""))
    return 0


def cmd_verify(args) -> int:
    store = _require_store(args)
    problems = store.verify(delete=args.delete)
    total = len(store.entries()) + (len(problems) if args.delete else 0)
    if not problems:
        print("store %s: %d object(s), all verifiable" % (store.root, total))
        return 0
    for entry, problem in problems:
        action = " (deleted)" if args.delete else ""
        print("BAD %s %s: %s%s" % (entry.key[:12], entry.kind, problem,
                                   action))
    print("%d of %d object(s) failed verification" % (len(problems), total))
    return 1


def register(sub) -> None:
    """The ``store`` subcommand and its own subcommands."""
    parser = sub.add_parser(
        "store", help="inspect and maintain an artifact store",
        description="Inspect and maintain a repro artifact store.")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="store root (default: $REPRO_STORE)")
    sub = parser.add_subparsers(dest="store_command", required=True,
                                metavar="COMMAND")

    p_ls = sub.add_parser("ls", help="list cached objects (LRU order)")
    p_ls.set_defaults(func=cmd_ls)

    p_gc = sub.add_parser("gc", help="evict least-recently-used objects")
    p_gc.add_argument("--max-entries", type=int, default=None)
    p_gc.add_argument("--max-bytes", type=int, default=None)
    p_gc.add_argument("--dry-run", action="store_true")
    p_gc.set_defaults(func=cmd_gc)

    p_verify = sub.add_parser("verify", help="strict integrity check")
    p_verify.add_argument("--delete", action="store_true",
                          help="delete objects that fail verification")
    p_verify.set_defaults(func=cmd_verify)
