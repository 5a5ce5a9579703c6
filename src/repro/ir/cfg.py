"""Control-flow-graph library: edge maps, block orders, reachability,
and (post)dominator trees.

The verifier, the loop finder, the lint dataflow engine, SSA
construction and the vulnerability model all derive whole-function
structure here.  :class:`DominatorTree` is the Cooper–Harvey–Kennedy
iteration; the postdominator tree (:meth:`DominatorTree.post`) is the
same iteration over reversed edges, rooted at the exit blocks.  The
module lives in :mod:`repro.ir` because the verifier needs it before
any analysis is trusted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import VerificationError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function

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
        seen = {id(block) for block in order}
        order.extend(b for b in self.function.blocks if id(b) not in seen)
        return order

    def reachable(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in depth-first visit order."""
        seen = set()
        result = []
        stack = [self.function.entry]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
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
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(successors[root]))]
        while stack:
            block, succs = stack[-1]
            for succ in succs:
                if id(succ) not in seen:
                    seen.add(id(succ))
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
    index = {id(block): position
             for position, block in enumerate(order, start=1)}
    index[id(_ROOT)] = 0
    idom: Dict[object, object] = {root: _ROOT for root in roots}
    root_ids = {id(root) for root in roots}

    def intersect(a, b):
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[a]
            while index[id(b)] > index[id(a)]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if id(block) in root_ids:
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
