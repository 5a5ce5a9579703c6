"""Lock-region analysis: which instructions run under a mutex.

The paper's second optimization removes checks from branches that can be
executed by at most one thread at a time — branches inside critical
sections — since BLOCKWATCH needs at least two concurrent threads to
compare (Section III-A, *Optimizations*).

The analysis is a forward dataflow over the CFG computing, per block, the
lock nesting depth on entry.  The meet is conservative: if predecessors
disagree, the larger depth wins, so a branch is only ever *excluded* from
checking (a coverage loss), never checked while actually serialized
(which could, with the shared check, be a soundness problem for data
guarded by the lock).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir import (
    CFG,
    Function,
    Instruction,
    LockAcquire,
    LockRelease,
    Module,
)


class CriticalSections:
    """Per-instruction lock depth for one function."""

    def __init__(self, function: Function, cfg: CFG = None):
        self.function = function
        cfg = cfg if cfg is not None else CFG(function)
        self._entry_depth: Dict[int, int] = {id(b): 0 for b in function.blocks}
        self._inst_depth: Dict[int, int] = {}
        self._compute(cfg)

    def _compute(self, cfg: CFG) -> None:
        order = cfg.reverse_postorder()
        changed = True
        while changed:
            changed = False
            for block in order:
                preds = cfg.predecessors[block]
                if preds:
                    depth = max(self._exit_depth(p) for p in preds)
                else:
                    depth = 0
                if depth != self._entry_depth[id(block)]:
                    self._entry_depth[id(block)] = depth
                    changed = True
        for block in self.function.blocks:
            depth = self._entry_depth[id(block)]
            for inst in block.instructions:
                # The depth *at* the instruction: a branch right after
                # unlock is outside the critical section.
                if isinstance(inst, LockRelease):
                    depth = max(0, depth - 1)
                self._inst_depth[id(inst)] = depth
                if isinstance(inst, LockAcquire):
                    depth += 1

    def _exit_depth(self, block) -> int:
        depth = self._entry_depth[id(block)]
        for inst in block.instructions:
            if isinstance(inst, LockAcquire):
                depth += 1
            elif isinstance(inst, LockRelease):
                depth = max(0, depth - 1)
        return depth

    def depth_at(self, inst: Instruction) -> int:
        return self._inst_depth.get(id(inst), 0)

    def in_critical_section(self, inst: Instruction) -> bool:
        return self.depth_at(inst) > 0


def functions_only_called_under_lock(module: Module, parallel: Set[str],
                                     sections: Dict[str, CriticalSections]) -> Set[str]:
    """Functions all of whose (direct) parallel call sites are inside
    critical sections — their branches are serialized too.

    A function with no direct parallel call sites at all (e.g. only
    reachable through a function pointer) is *not* included: we cannot
    prove serialization.
    """
    from repro.ir import Call

    call_sites: Dict[str, list] = {}
    for fname in parallel:
        function = module.functions.get(fname)
        if function is None:
            continue
        cs = sections[fname]
        for inst in function.instructions():
            if isinstance(inst, Call) and inst.callee.name in parallel:
                call_sites.setdefault(inst.callee.name, []).append(
                    (fname, cs.depth_at(inst)))
    result: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for fname, sites in call_sites.items():
            if fname in result or not sites:
                continue
            # Serialized if every call site is under a lock, or inside a
            # caller that is itself serialized (transitive case).
            if all(depth > 0 or caller in result for caller, depth in sites):
                result.add(fname)
                changed = True
    return result
