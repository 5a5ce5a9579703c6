"""The monitor's two-level branch table (paper Section III-B).

The paper keys each runtime branch instance by a *static identifier*
(position of the branch in the program) plus a *runtime identifier* (the
call-site path of the enclosing invocation and the iteration numbers of
all outer loops), and splits the table in two levels — call-site × static
id first, loop iterations second — "to achieve better utilization of the
memory and reduction of access times".

We add a third component the paper leaves implicit: an *occurrence
index*.  When the same call site is re-executed (e.g. the caller spins in
a loop the callee knows nothing about), identical (static, runtime) keys
repeat; the table then matches the k-th occurrence reported by each
thread against the k-th of every other, which keeps SPMD instances
aligned without ever mixing distinct dynamic instances.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # checker imports this module
    from repro.monitor.checker import CheckSite


class InstanceEntry:
    """All reports for one dynamic instance of one branch."""

    __slots__ = ("site", "values", "outcomes", "checked")

    def __init__(self, site: "CheckSite",
                 values: Optional[Dict[int, Tuple]] = None,
                 outcomes: Optional[Dict[int, bool]] = None,
                 checked: bool = False):
        self.site = site
        #: thread id -> condition basis values (from sendBranchCondition)
        self.values = {} if values is None else values
        #: thread id -> branch outcome (from sendBranchAddr)
        self.outcomes = {} if outcomes is None else outcomes
        self.checked = checked


class BranchTable:
    """Two-level hash table plus per-thread occurrence counters."""

    def __init__(self):
        #: level 1: (call-site path, static id) -> level 2 dict;
        #: level 2: (loop iterations, occurrence) -> InstanceEntry
        self._levels: Dict[Tuple[Tuple[int, ...], int],
                           Dict[Tuple[Tuple[int, ...], int],
                                InstanceEntry]] = {}
        #: (level-1 key, loop iterations, thread, is outcome) ->
        #: reports of that kind seen so far
        self._occurrence: Dict[Tuple, int] = {}

    def file(self, messages: Sequence[Tuple], nthreads: int,
             on_complete: Callable[[InstanceEntry], None]) -> None:
        """File a drained batch of ``(site, tid, key, payload,
        is_outcome)`` messages, calling ``on_complete`` on an unchecked
        instance once all ``nthreads`` threads have reported it.

        The k-th report of a thread for one (call path, branch, loop
        iterations) key joins the k-th instance.  One call per batch
        keeps the per-message work inline.

        A condition message directly followed by this thread's outcome
        of the same site, key object and occurrence (a checked tail's
        two sends) is filed with it in one lookup.  That is exact: the
        instance cannot complete on the condition while this outcome is
        missing.  Store kinds complete on values alone: never paired.
        """
        levels = self._levels
        occurrence = self._occurrence
        i, n = 0, len(messages)
        while i < n:
            site, tid, key, payload, is_outcome = messages[i]
            i += 1
            call_path, loop_iters = key
            level1_key = (call_path, site.info.static_id)
            occ_key = (level1_key, loop_iters, tid, is_outcome)
            seen = occurrence.get(occ_key, 0)
            occurrence[occ_key] = seen + 1
            paired = False
            if not is_outcome and i < n and not site.values_only:
                nxt = messages[i]
                if (nxt[2] is key and nxt[0] is site and nxt[1] == tid
                        and nxt[4]):
                    out_key = (level1_key, loop_iters, tid, True)
                    if occurrence.get(out_key, 0) == seen:
                        occurrence[out_key] = seen + 1
                        paired = True
                        i += 1
            level2 = levels.get(level1_key)
            if level2 is None:
                level2 = levels[level1_key] = {}
            level2_key = (loop_iters, seen)
            entry = level2.get(level2_key)
            if entry is None:
                entry = level2[level2_key] = InstanceEntry(site)
            if paired:
                entry.values[tid] = payload
                entry.outcomes[tid] = nxt[3]
            elif is_outcome:
                entry.outcomes[tid] = payload
            else:
                entry.values[tid] = payload
            if (not entry.checked and len(entry.values) == nthreads
                    and (site.values_only
                         or len(entry.outcomes) == nthreads)):
                on_complete(entry)

    def pending_entries(self) -> List[InstanceEntry]:
        """Unchecked instances, in level-1 then level-2 insertion order
        (the final sweep's order)."""
        return [entry for level2 in self._levels.values()
                for entry in level2.values() if not entry.checked]

    def save_state(self) -> Tuple:
        """A copy of the table and occurrence counters that later runs
        of the same prefix can :meth:`load_state` from.

        Flat encoding: one list of object references for the table and
        two tuples for the counters, about a third of the memory of
        copied dicts and entries (a machine checkpoint holds one).
        Report values are immutable and shared, not copied."""
        flat: List = []
        for level1_key, level2 in self._levels.items():
            flat.append(level1_key)
            flat.append(len(level2))
            for level2_key, entry in level2.items():
                values, outcomes = entry.values, entry.outcomes
                flat.extend((level2_key, entry.site, entry.checked,
                             len(values)))
                flat.extend(values)
                flat.extend(values.values())
                flat.append(len(outcomes))
                flat.extend(outcomes)
                flat.extend(outcomes.values())
        occurrence = self._occurrence
        return flat, tuple(occurrence), tuple(occurrence.values())

    def load_state(self, state: Tuple) -> None:
        """Fill this (fresh) table from :meth:`save_state` output, with
        entries of its own."""
        flat, occ_keys, occ_counts = state
        table: Dict = {}
        i, n = 0, len(flat)
        while i < n:
            level2 = table[flat[i]] = {}
            count = flat[i + 1]
            i += 2
            for _ in range(count):
                level2_key, site, checked, nv = flat[i:i + 4]
                i += 4
                values = dict(zip(flat[i:i + nv], flat[i + nv:i + 2 * nv]))
                i += 2 * nv
                no = flat[i]
                i += 1
                outcomes = dict(zip(flat[i:i + no],
                                    flat[i + no:i + 2 * no]))
                i += 2 * no
                level2[level2_key] = InstanceEntry(site, values, outcomes,
                                                   checked)
        self._levels = table
        self._occurrence = dict(zip(occ_keys, occ_counts))

    def discard_checked(self) -> int:
        """Free completed instances (keeps the table bounded on long runs)."""
        freed = 0
        levels = self._levels
        for level1_key in list(levels):
            level2 = levels[level1_key]
            for level2_key in list(level2):
                if level2[level2_key].checked:
                    del level2[level2_key]
                    freed += 1
            if not level2:
                del levels[level1_key]
        return freed

    def __len__(self) -> int:
        return sum(len(level2) for level2 in self._levels.values())
