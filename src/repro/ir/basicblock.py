"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.ir.instructions import Instruction, Phi, Terminator

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class BasicBlock:
    """A node of the control-flow graph.

    Instructions are stored in execution order; zero or more :class:`Phi`
    nodes must appear first, and a well-formed block ends with exactly one
    :class:`Terminator`.  Predecessor edges are derived, not stored: use
    :meth:`predecessors` (or the cached :class:`repro.ir.cfg.CFG` for
    whole-function passes).
    """

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure -----------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError("appending %r to terminated block %s" % (inst, self.name))
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately before this block's terminator."""
        if not self.is_terminated:
            return self.append(inst)
        return self.insert(len(self.instructions) - 1, inst)

    def insert_after_phis(self, inst: Instruction) -> Instruction:
        """Insert ``inst`` after the block's phi nodes (at the block top)."""
        index = 0
        while index < len(self.instructions) and isinstance(self.instructions[index], Phi):
            index += 1
        return self.insert(index, inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    # -- queries -------------------------------------------------------------

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def phis(self) -> List[Phi]:
        result = []
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                break
            result.append(inst)
        return result

    def successors(self) -> Tuple["BasicBlock", ...]:
        term = self.terminator
        return term.successors() if term is not None else ()

    def predecessors(self) -> List["BasicBlock"]:
        """Derive predecessors by scanning the parent function (O(blocks)).

        Deduplicated: a ``br`` with both arms on this block is listed
        once, while :attr:`repro.ir.cfg.CFG.predecessors` lists one entry
        per edge."""
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return "BasicBlock(%s, %d insts)" % (self.name, len(self.instructions))
