"""Process-wide store handles and the default store configuration.

A store root has one :class:`ArtifactStore` object per process:
:func:`store_for` hands it out, so every campaign, CLI and server of a
process that names one root shares its in-memory program and golden
LRUs.  The handle belongs to the process that opened it: a forked child
gets an object of its own for each inherited handle
(:meth:`ArtifactStore.forked_copy`), never the parent's, whose lock
another parent thread may have held at the fork.  The copy keeps the
programs and golden runs the parent had in memory, so a worker forked
after the parent's golden run starts with it.

Campaigns, kernels, and CLIs all consult one optional *default store*:
``None`` (the initial state, and the state when ``REPRO_STORE`` is
unset) means every caching path is disabled and the package behaves
exactly as it did before :mod:`repro.store` existed — compilation and
golden runs happen inline, nothing touches disk.  A store caches
programs, golden runs and reports, never block closures: every process
generates its own at a module's first run, store or not
(:func:`repro.runtime.closures.get_compiled`).

Resolution order for :func:`default_store`:

1. a store installed with :func:`set_default_store` (CLIs do this for
   their ``--store`` flag, for the length of the command:
   :func:`default_store_scope`);
2. the ``REPRO_STORE`` environment variable, read afresh on every call
   (also how worker processes of a spawn pool inherit the setting);
3. nothing — caching off.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Optional

from repro.store.artifacts import STORE_ENV, ArtifactStore

#: Store handles a process keeps; the least recently asked-for root is
#: dropped past this many.
STORE_HANDLES = 8

#: root -> this process's handle, least recently used first.
_HANDLES: "OrderedDict[str, ArtifactStore]" = OrderedDict()

#: Guards ``_HANDLES``; replaced in a forked child (see
#: :func:`_own_handles_after_fork`).
_LOCK = threading.Lock()

#: The installed store; a one-element list so tests can monkeypatch.
_DEFAULT: list = [None]


def _own_handles_after_fork() -> None:
    """In a forked child: a fresh lock, and the child's own copy of
    every inherited handle."""
    global _LOCK
    _LOCK = threading.Lock()
    for root, store in list(_HANDLES.items()):
        _HANDLES[root] = store.forked_copy()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=_own_handles_after_fork)


def store_for(root: str) -> ArtifactStore:
    """This process's one handle on the store at ``root``."""
    root = os.path.abspath(root)
    with _LOCK:
        store = _HANDLES.get(root)
        if store is None:
            store = _HANDLES[root] = ArtifactStore(root)
        _HANDLES.move_to_end(root)
        while len(_HANDLES) > STORE_HANDLES:
            _HANDLES.popitem(last=False)
    return store


def set_default_store(store: Optional[ArtifactStore]) -> None:
    """Install (or with ``None``, clear) the process default store."""
    _DEFAULT[0] = store


def default_store() -> Optional[ArtifactStore]:
    """The active store, or ``None`` when caching is disabled.  A store
    installed before a fork is replaced, in the child, by the child's
    own handle on its root."""
    store = _DEFAULT[0]
    if store is not None:
        if store.pid != os.getpid():
            store = _DEFAULT[0] = store_for(store.root)
        return store
    root = os.environ.get(STORE_ENV, "").strip()
    return store_for(root) if root else None


@contextmanager
def default_store_scope():
    """Restore the installed default store on exit, so a store installed
    inside (a command's ``--store``) does not outlive it."""
    installed = _DEFAULT[0]
    try:
        yield
    finally:
        _DEFAULT[0] = installed


def open_store(path: Optional[str] = None,
               install: bool = False) -> Optional[ArtifactStore]:
    """CLI helper: ``path`` or ``$REPRO_STORE`` or ``None``; optionally
    install the result as the process default."""
    store = store_for(path) if path else default_store()
    if install and store is not None:
        set_default_store(store)
    return store
