"""Lock-region analysis: which instructions run under a mutex.

The paper's second optimization removes checks from branches that can be
executed by at most one thread at a time — branches inside critical
sections — since BLOCKWATCH needs at least two concurrent threads to
compare (Section III-A, *Optimizations*).

The analysis is a forward dataflow on :mod:`repro.ir.dataflow` whose
fact is the lock nesting depth.  The join is conservative: if
predecessors disagree, the larger depth wins, so a branch is only ever
*excluded* from checking (a coverage loss), never checked while actually
serialized (which could, with the shared check, be a soundness problem
for data guarded by the lock).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir import (
    CFG,
    CallGraph,
    Function,
    Instruction,
    LockAcquire,
    LockRelease,
)
from repro.ir.dataflow import Semilattice, run_dataflow


class _MaxDepth(Semilattice):
    def initial(self):
        return 0

    def boundary(self):
        return 0

    def join(self, a, b):
        return max(a, b)


def _lock_transfer(depth: int, inst: Instruction) -> int:
    if isinstance(inst, LockAcquire):
        return depth + 1
    if isinstance(inst, LockRelease):
        return max(0, depth - 1)
    return depth


class CriticalSections:
    """Per-instruction lock depth for one function."""

    def __init__(self, function: Function, cfg: CFG = None):
        self.function = function
        depths = run_dataflow(function, _MaxDepth(), _lock_transfer, cfg=cfg)
        # The depth *at* the instruction is the lower side: a branch
        # right after unlock is outside the critical section, and so is
        # the lock acquire itself.
        self._inst_depth: Dict[Instruction, int] = {
            inst: min(depths.before(inst), depths.after(inst))
            for inst in function.instructions()}

    def depth_at(self, inst: Instruction) -> int:
        return self._inst_depth.get(inst, 0)

    def in_critical_section(self, inst: Instruction) -> bool:
        return self.depth_at(inst) > 0


def functions_only_called_under_lock(
        graph: CallGraph, sections: Dict[str, CriticalSections]) -> Set[str]:
    """Functions all of whose (direct) parallel call sites are inside
    critical sections — their branches are serialized too.

    A function with no direct parallel call sites at all (e.g. only
    reachable through a function pointer) is *not* included: we cannot
    prove serialization.
    """
    callers = {callee: [(site.parent.parent.name,
                         sections[site.parent.parent.name].depth_at(site))
                        for site in sites]
               for callee, sites in graph.call_sites.items()}
    result: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for fname, sites in callers.items():
            if fname in result:
                continue
            # Serialized if every call site is under a lock, or inside a
            # caller that is itself serialized (transitive case).
            if all(depth > 0 or caller in result for caller, depth in sites):
                result.add(fname)
                changed = True
    return result
