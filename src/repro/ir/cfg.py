"""Control-flow-graph library: edge maps, block orders, reachability,
(post)dominator trees, and the call graph of a parallel region.

The verifier, the loop finder, the dataflow engine
(:mod:`repro.ir.dataflow`), SSA construction and the vulnerability
model all derive whole-function structure here, and every static
analysis reads the parallel region and its call sites from one
:class:`CallGraph`.  :class:`DominatorTree` is the Cooper–Harvey–Kennedy
iteration; the postdominator tree (:meth:`DominatorTree.post`) is the
same iteration over reversed edges, rooted at the exit blocks.  The
module lives in :mod:`repro.ir` because the verifier needs it before
any analysis is trusted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import AnalysisError, VerificationError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Call, CallIndirect
from repro.ir.module import Module
from repro.ir.values import FunctionRef

Edges = Dict[BasicBlock, List[BasicBlock]]

#: Virtual root of the CHK iteration: the common parent of all roots.
_ROOT = object()


class CFG:
    """Per-edge predecessor/successor maps plus traversal orders.

    ``predecessors[b]`` lists one entry per edge (a ``br`` with both arms
    on ``b`` contributes its block twice), the shape phi incoming lists
    are checked against.
    """

    def __init__(self, function: Function):
        self.function = function
        self.predecessors: Edges = {block: [] for block in function.blocks}
        self.successors: Edges = {}
        for block in function.blocks:
            succs = list(block.successors())
            self.successors[block] = succs
            for succ in succs:
                preds = self.predecessors.get(succ)
                if preds is None:
                    raise VerificationError(
                        "%s: successor %s of %s is not in the function"
                        % (function.name, succ.name, block.name))
                preds.append(block)

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse postorder from the entry (forward dataflow
        order); unreachable blocks are appended at the end."""
        order = _reverse_postorder([self.function.entry], self.successors)
        seen = set(order)
        order.extend(b for b in self.function.blocks if b not in seen)
        return order

    def reachable(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in depth-first visit order."""
        seen = set()
        result = []
        stack = [self.function.entry]
        while stack:
            block = stack.pop()
            if block in seen:
                continue
            seen.add(block)
            result.append(block)
            stack.extend(self.successors[block])
        return result


def _reverse_postorder(roots: Sequence[BasicBlock],
                       successors: Edges) -> List[BasicBlock]:
    """Reverse postorder of a depth-first walk from each root in turn —
    the order a walk from one virtual root over ``roots`` would give."""
    seen = set()
    postorder: List[BasicBlock] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(successors[root]))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(successors[succ])))
                    break
            else:
                postorder.append(block)
                stack.pop()
    postorder.reverse()
    return postorder


class DominatorTree:
    """Immediate-dominator map plus O(depth) dominance queries.

    ``DominatorTree(function)`` is rooted at the entry;
    :meth:`DominatorTree.post` builds the postdominator tree.  Blocks
    the roots do not reach (unreachable from the entry; no path to an
    exit, for postdominators) have no tree node.
    """

    def __init__(self, function: Function, cfg: Optional[CFG] = None):
        self.function = function
        self.cfg = cfg if cfg is not None else CFG(function)
        #: idom[b] — immediate dominator.  A block with no strict
        #: dominator maps to itself: the entry; for postdominators, each
        #: exit and each block whose paths end at different exits.
        self.idom = _immediate_dominators(
            [function.entry], self.cfg.successors, self.cfg.predecessors)

    @classmethod
    def post(cls, function: Function,
             cfg: Optional[CFG] = None) -> "DominatorTree":
        """The postdominator tree: ``dominates(a, b)`` reads "``a``
        postdominates ``b``"."""
        tree = cls.__new__(cls)
        tree.function = function
        tree.cfg = cfg if cfg is not None else CFG(function)
        exits = [b for b in function.blocks if not tree.cfg.successors[b]]
        tree.idom = _immediate_dominators(
            exits, tree.cfg.predecessors, tree.cfg.successors)
        return tree

    def dominators(self, block: BasicBlock) -> List[BasicBlock]:
        """``block`` and its dominators, innermost first; empty for a
        block outside the tree."""
        chain: List[BasicBlock] = []
        current = block if block in self.idom else None
        while current is not None:
            chain.append(current)
            parent = self.idom[current]
            current = parent if parent is not current else None
        return chain

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff ``a`` dominates ``b`` (reflexive)."""
        current = b
        while True:
            if current is a:
                return True
            parent = self.idom.get(current)
            if parent is None or parent is current:
                return False
            current = parent

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)


def _immediate_dominators(roots: Sequence[BasicBlock], successors: Edges,
                          predecessors: Edges
                          ) -> Dict[BasicBlock, BasicBlock]:
    """CHK over the graph below a virtual root whose successors are
    ``roots``.  Blocks whose immediate dominator is the virtual root map
    to themselves; blocks the roots do not reach are absent."""
    order = _reverse_postorder(roots, successors)
    index = {block: position
             for position, block in enumerate(order, start=1)}
    index[_ROOT] = 0
    idom: Dict[object, object] = {root: _ROOT for root in roots}
    root_set = set(roots)

    def intersect(a, b):
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block in root_set:
                continue
            new_idom = None
            for pred in predecessors[block]:
                if pred not in idom:
                    continue
                new_idom = pred if new_idom is None else intersect(
                    pred, new_idom)
            if new_idom is not None and idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    return {block: (block if idom[block] is _ROOT else idom[block])
            for block in order}


class CallGraph:
    """The parallel region below ``entry`` and the calls inside it.

    The region is every function reachable from ``entry`` through
    direct calls, plus every function whose address is taken inside it
    (conservatively callable through a pointer).
    """

    def __init__(self, module: Module, entry: str):
        if entry not in module.functions:
            raise AnalysisError(
                "entry function %r not found in module" % entry)
        self.entry = entry
        #: Names of the functions in the region.
        self.parallel: Set[str] = set()
        #: Region functions whose address is taken inside the region.
        self.address_taken: Set[str] = set()
        #: Region functions that contain a ``CallIndirect``.
        self.indirect_callers: Set[str] = set()
        #: callee name -> its direct call sites, ordered by caller name,
        #: then program order.  A site's caller is ``site.parent.parent``.
        self.call_sites: Dict[str, List[Call]] = {}
        calls: Dict[str, List[Call]] = {}
        worklist = [entry]
        while worklist:
            name = worklist.pop()
            if name in self.parallel:
                continue
            self.parallel.add(name)
            calls[name] = []
            for inst in module.functions[name].instructions():
                if isinstance(inst, Call):
                    calls[name].append(inst)
                    worklist.append(inst.callee.name)
                elif isinstance(inst, CallIndirect):
                    self.indirect_callers.add(name)
                for op in inst.operands:
                    if isinstance(op, FunctionRef):
                        self.address_taken.add(op.function_name)
                        worklist.append(op.function_name)
        for name in sorted(calls):
            for site in calls[name]:
                self.call_sites.setdefault(site.callee.name, []).append(site)
