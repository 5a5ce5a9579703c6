"""Reusable worklist dataflow engine over the function CFG.

Every block-level analysis — lock regions in :mod:`repro.analysis`,
barrier phases and locksets in :mod:`repro.lint` — is an instance of
one fixpoint schema: a join-semilattice of facts, a per-instruction
transfer function, and iteration to convergence over
:class:`repro.ir.cfg.CFG` edges, in that module's reverse postorder.
This module factors that schema out so new analyses (and SCCP-style
passes that want block-level facts) only state their lattice and
transfer.  It lives in :mod:`repro.ir`, below both analysis layers.  Dominance and postdominance are not dataflow problems here:
they come from :class:`repro.ir.cfg.DominatorTree`.

The engine is deliberately value-agnostic: facts are opaque objects
compared with ``lattice.equals``.  Two conventions keep must- and
may-analyses in one schema:

* ``lattice.initial()`` is the *optimistic* starting fact for a block
  that has not been reached yet (⊤ for an intersection join, ⊥ = ∅ for a
  union join);
* ``lattice.boundary()`` is the fact at the function boundary — the
  entry block for a forward analysis, every ``ret`` block for a
  backward one.

Determinism: blocks are processed in reverse postorder (postorder for
backward problems) and the worklist is an ordered deque with a
membership set, so fixpoints — and therefore every diagnostic derived
from them — are independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.ir import CFG, BasicBlock, Function, Instruction

FORWARD = "forward"
BACKWARD = "backward"


class Semilattice:
    """A join-semilattice of dataflow facts.

    Subclasses override the four methods; ``equals`` defaults to ``==``.
    Facts must be treated as immutable — transfer functions return new
    facts, never mutate their argument.
    """

    def initial(self):
        """Optimistic fact for a block not yet reached by the iteration."""
        raise NotImplementedError

    def boundary(self):
        """Fact holding at the function boundary."""
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def equals(self, a, b) -> bool:
        return a == b


#: A transfer function maps (fact-before, instruction) -> fact-after.
Transfer = Callable[[object, Instruction], object]


class DataflowResult:
    """Per-block and per-instruction facts of one converged analysis.

    For a forward problem, ``before(inst)`` is the fact on entry to the
    instruction and ``after(inst)`` on exit; for a backward problem the
    names keep their *program-order* meaning (``before`` = fact above
    the instruction), which is what clients almost always want.
    """

    def __init__(self, function: Function, direction: str):
        self.function = function
        self.direction = direction
        #: Fact on entry to each block, keyed by the block
        #: (program-order entry for forward, program-order exit for
        #: backward — i.e. always the side facing the join).
        self.block_fact: Dict[BasicBlock, object] = {}
        self._before: Dict[Instruction, object] = {}
        self._after: Dict[Instruction, object] = {}

    def before(self, inst: Instruction):
        return self._before[inst]

    def after(self, inst: Instruction):
        return self._after[inst]


def run_dataflow(function: Function, lattice: Semilattice,
                 transfer: Transfer, direction: str = FORWARD,
                 cfg: Optional[CFG] = None,
                 max_passes: int = 10000) -> DataflowResult:
    """Iterate ``transfer`` over ``function`` to a fixpoint.

    ``max_passes`` bounds worklist pops as a safety valve against a
    non-monotone transfer; the structured MiniC CFGs converge in a
    handful of passes.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError("unknown dataflow direction %r" % direction)
    cfg = cfg if cfg is not None else CFG(function)
    if direction == FORWARD:
        order = cfg.reverse_postorder()
        inputs = cfg.predecessors
        outputs = cfg.successors
        is_boundary = {function.entry}
    else:
        order = list(reversed(cfg.reverse_postorder()))
        inputs = cfg.successors
        outputs = cfg.predecessors
        is_boundary = {b for b in function.blocks if not cfg.successors[b]}

    result = DataflowResult(function, direction)
    out_fact: Dict[BasicBlock, object] = {b: lattice.initial()
                                          for b in function.blocks}

    worklist = deque(order)
    queued = set(order)
    passes = 0
    while worklist:
        passes += 1
        if passes > max_passes:
            raise RuntimeError(
                "dataflow on %s did not converge in %d passes (non-monotone "
                "transfer?)" % (function.name, max_passes))
        block = worklist.popleft()
        queued.discard(block)
        ins = inputs[block]
        if block in is_boundary:
            fact = lattice.boundary()
            for pred in ins:
                fact = lattice.join(fact, out_fact[pred])
        elif ins:
            fact = out_fact[ins[0]]
            for pred in ins[1:]:
                fact = lattice.join(fact, out_fact[pred])
        else:
            # Unreachable block: keep the optimistic fact.
            fact = lattice.initial()
        result.block_fact[block] = fact
        insts = (block.instructions if direction == FORWARD
                 else list(reversed(block.instructions)))
        for inst in insts:
            fact = transfer(fact, inst)
        if not lattice.equals(fact, out_fact[block]):
            out_fact[block] = fact
            for succ in outputs[block]:
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)

    # Converged: record per-instruction facts in one replay pass.
    for block in function.blocks:
        fact = result.block_fact.get(block, lattice.initial())
        insts = (block.instructions if direction == FORWARD
                 else list(reversed(block.instructions)))
        for inst in insts:
            if direction == FORWARD:
                result._before[inst] = fact
                fact = transfer(fact, inst)
                result._after[inst] = fact
            else:
                result._after[inst] = fact
                fact = transfer(fact, inst)
                result._before[inst] = fact
    return result


# ---------------------------------------------------------------------------
# Common lattice shapes
# ---------------------------------------------------------------------------


class UnionLattice(Semilattice):
    """May-analysis over frozensets: join = union, initial = boundary = ∅
    (override ``boundary`` for a non-empty seed)."""

    def initial(self):
        return frozenset()

    def boundary(self):
        return frozenset()

    def join(self, a, b):
        return a | b


#: Distinguished ⊤ of :class:`IntersectionLattice` — the fact of a block
#: the iteration has not reached yet ("every set", not "the empty set").
TOP = "<top>"


class IntersectionLattice(Semilattice):
    """Must-analysis over frozensets: join = intersection, with a
    distinguished ⊤ as the optimistic initial fact."""

    def initial(self):
        return TOP

    def boundary(self):
        return frozenset()

    def join(self, a, b):
        if a is TOP:
            return b
        if b is TOP:
            return a
        return a & b
