"""Natural-loop detection: headers, bodies, nesting, and preheaders.

The instrumentation pass needs, for every checked branch, the chain of
enclosing loops (their iteration counters form the runtime part of the
hash-table key, paper Section III-B) and, per loop, a *preheader* block in
which to reset the counter.  The MiniC code generator guarantees a
dedicated preheader for every loop; :func:`find_loops` asserts it.

The paper's nesting-depth cutoff (branches in loops nested deeper than
six are not checked — the stated reason for raytrace's reduced coverage)
is implemented with :attr:`Loop.depth`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import AnalysisError
from repro.ir import CFG, BasicBlock, DominatorTree, Function


class Loop:
    """One natural loop: header, body blocks, parent/children links."""

    def __init__(self, header: BasicBlock, loop_id: int):
        self.header = header
        self.loop_id = loop_id
        self.blocks: Set[BasicBlock] = {header}
        self.block_list: List[BasicBlock] = [header]
        #: latch blocks: sources of back edges into the header
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        self.preheader: Optional[BasicBlock] = None

    def contains_block(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def _add_block(self, block: BasicBlock) -> None:
        if block not in self.blocks:
            self.blocks.add(block)
            self.block_list.append(block)

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for an outermost loop."""
        depth, current = 1, self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def ancestors_outermost_first(self) -> List["Loop"]:
        """This loop's enclosing chain including itself, outermost first."""
        chain: List[Loop] = []
        current: Optional[Loop] = self
        while current is not None:
            chain.append(current)
            current = current.parent
        chain.reverse()
        return chain

    def __repr__(self) -> str:
        return "Loop(#%d header=%s depth=%d blocks=%d)" % (
            self.loop_id, self.header.name, self.depth, len(self.blocks))


class LoopInfo:
    """All loops of one function, with per-block lookup."""

    def __init__(self, function: Function, loops: List[Loop]):
        self.function = function
        self.loops = loops
        self._innermost: Dict[BasicBlock, Loop] = {}
        # Assign blocks to their innermost loop: process outer loops first
        # so inner assignments overwrite.
        for loop in sorted(loops, key=lambda l: l.depth):
            for block in loop.block_list:
                self._innermost[block] = loop

    def innermost_loop(self, block: BasicBlock) -> Optional[Loop]:
        return self._innermost.get(block)

    def loop_chain(self, block: BasicBlock) -> List[Loop]:
        """Enclosing loops of ``block``, outermost first ([] if none)."""
        inner = self.innermost_loop(block)
        return inner.ancestors_outermost_first() if inner is not None else []

    def nesting_depth(self, block: BasicBlock) -> int:
        inner = self.innermost_loop(block)
        return inner.depth if inner is not None else 0


def find_loops(function: Function, first_loop_id: int = 0,
               cfg: Optional[CFG] = None,
               domtree: Optional[DominatorTree] = None) -> LoopInfo:
    """Detect natural loops.  ``first_loop_id`` lets the caller keep loop
    ids unique module-wide (each function's loops get consecutive ids)."""
    if cfg is None:
        cfg = CFG(function)
    if domtree is None:
        domtree = DominatorTree(function, cfg)
    reachable = set(cfg.reachable())

    # 1. Find back edges (tail -> header where header dominates tail),
    #    grouping by header: one natural loop per header.
    loops_by_header: Dict[BasicBlock, Loop] = {}
    loops: List[Loop] = []
    next_id = first_loop_id
    for block in function.blocks:
        if block not in reachable:
            continue
        for succ in cfg.successors[block]:
            if domtree.dominates(succ, block):
                loop = loops_by_header.get(succ)
                if loop is None:
                    loop = Loop(succ, next_id)
                    next_id += 1
                    loops_by_header[succ] = loop
                    loops.append(loop)
                loop.latches.append(block)

    # 2. Populate loop bodies: backwards reachability from each latch
    #    without passing through the header.
    for loop in loops:
        worklist = list(loop.latches)
        while worklist:
            block = worklist.pop()
            if loop.contains_block(block) and block is not loop.header:
                continue
            if block is loop.header:
                continue
            loop._add_block(block)
            for pred in cfg.predecessors[block]:
                if not loop.contains_block(pred):
                    worklist.append(pred)

    # 3. Nesting: loop A is a child of the smallest loop B whose body
    #    strictly contains A's header (and A != B).
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if other.contains_block(loop.header):
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)

    # 4. Preheaders: the unique out-of-loop predecessor of the header.
    for loop in loops:
        outside = [p for p in cfg.predecessors[loop.header]
                   if not loop.contains_block(p)]
        if len(outside) != 1:
            raise AnalysisError(
                "loop %r in %s has %d outside predecessors; the MiniC "
                "front-end guarantees a dedicated preheader"
                % (loop, function.name, len(outside)))
        loop.preheader = outside[0]

    return LoopInfo(function, loops)
