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

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.instrument.config import CheckedBranchInfo
from repro.monitor.messages import RuntimeKey


@dataclass
class InstanceEntry:
    """All reports for one dynamic instance of one branch."""

    info: CheckedBranchInfo
    #: thread id -> condition basis values (from sendBranchCondition)
    values: Dict[int, Tuple] = field(default_factory=dict)
    #: thread id -> branch outcome (from sendBranchAddr)
    outcomes: Dict[int, bool] = field(default_factory=dict)
    checked: bool = False

    @property
    def reporters(self) -> int:
        return len(self.outcomes)

    def complete_for(self, nthreads: int) -> bool:
        """All worker threads have reported this instance.

        Store-value checks have no outcome message (there is no decision
        to report), so completeness is value-count only for them."""
        if self.info.check_kind.startswith("store"):
            return len(self.values) == nthreads
        return len(self.outcomes) == nthreads and len(self.values) == nthreads


class BranchTable:
    """Two-level hash table plus per-thread occurrence counters."""

    def __init__(self):
        # level 1: (call-site path, static id) -> level 2 dict
        # level 2: (loop iterations, occurrence) -> InstanceEntry
        self._table: Dict[Tuple[Tuple[int, ...], int],
                          Dict[Tuple[Tuple[int, ...], int], InstanceEntry]] = {}
        # (level1 key, loop iters, thread, message kind) -> occurrences seen
        self._occurrence: Dict[Tuple, int] = {}
        self.entries_created = 0

    def _entry(self, info: CheckedBranchInfo, key: RuntimeKey,
               thread_id: int, kind: str) -> InstanceEntry:
        call_path, loop_iters = key
        level1_key = (call_path, info.static_id)
        occ_key = (level1_key, loop_iters, thread_id, kind)
        occurrence = self._occurrence.get(occ_key, 0)
        self._occurrence[occ_key] = occurrence + 1
        level2 = self._table.setdefault(level1_key, {})
        level2_key = (loop_iters, occurrence)
        entry = level2.get(level2_key)
        if entry is None:
            entry = InstanceEntry(info=info)
            level2[level2_key] = entry
            self.entries_created += 1
        return entry

    def record_condition(self, info: CheckedBranchInfo, key: RuntimeKey,
                         thread_id: int, values: Tuple) -> InstanceEntry:
        entry = self._entry(info, key, thread_id, "cond")
        entry.values[thread_id] = values
        return entry

    def record_outcome(self, info: CheckedBranchInfo, key: RuntimeKey,
                       thread_id: int, taken: bool) -> InstanceEntry:
        entry = self._entry(info, key, thread_id, "outcome")
        entry.outcomes[thread_id] = taken
        return entry

    def all_entries(self) -> List[InstanceEntry]:
        return [entry for level2 in self._table.values()
                for entry in level2.values()]

    def pending_entries(self) -> List[InstanceEntry]:
        return [e for e in self.all_entries() if not e.checked]

    def save_state(self) -> Tuple:
        """A copy of the table, occurrence counters and entry count that
        later runs of the same prefix can :meth:`load_state` from.

        Flat encoding: one list of object references for the table and
        two tuples for the counters, about a third of the memory of
        copied dicts and entries (a machine checkpoint holds one).
        Report values are immutable and shared, not copied."""
        flat: List = []
        for level1_key, level2 in self._table.items():
            flat.append(level1_key)
            flat.append(len(level2))
            for level2_key, entry in level2.items():
                values, outcomes = entry.values, entry.outcomes
                flat.extend((level2_key, entry.info, entry.checked,
                             len(values)))
                flat.extend(values)
                flat.extend(values.values())
                flat.append(len(outcomes))
                flat.extend(outcomes)
                flat.extend(outcomes.values())
        occurrence = self._occurrence
        return (flat, tuple(occurrence), tuple(occurrence.values()),
                self.entries_created)

    def load_state(self, state: Tuple) -> None:
        """Fill this (fresh) table from :meth:`save_state` output, with
        entries of its own."""
        flat, occ_keys, occ_counts, self.entries_created = state
        table: Dict = {}
        i, n = 0, len(flat)
        while i < n:
            level2 = table[flat[i]] = {}
            count = flat[i + 1]
            i += 2
            for _ in range(count):
                level2_key, info, checked, nv = flat[i:i + 4]
                i += 4
                values = dict(zip(flat[i:i + nv], flat[i + nv:i + 2 * nv]))
                i += 2 * nv
                no = flat[i]
                i += 1
                outcomes = dict(zip(flat[i:i + no],
                                    flat[i + no:i + 2 * no]))
                i += 2 * no
                level2[level2_key] = InstanceEntry(info, values, outcomes,
                                                   checked)
        self._table = table
        self._occurrence = dict(zip(occ_keys, occ_counts))

    def discard_checked(self) -> int:
        """Free completed instances (keeps the table bounded on long runs)."""
        freed = 0
        for level1_key in list(self._table):
            level2 = self._table[level1_key]
            for level2_key in list(level2):
                if level2[level2_key].checked:
                    del level2[level2_key]
                    freed += 1
            if not level2:
                del self._table[level1_key]
        return freed

    def __len__(self) -> int:
        return sum(len(level2) for level2 in self._table.values())
