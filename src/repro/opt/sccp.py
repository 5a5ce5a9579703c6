"""Sparse conditional constant propagation (trace-preserving variant).

Classic SCCP (the venom/vyper worklist formulation this is modeled on)
tracks two lattices: value constness and CFG-edge executability, and
refines phi meets using only executable incoming edges.  The edge half
is **unsound here**: BLOCKWATCH's fault injector flips branch decisions
at runtime, so an edge that is statically dead can absolutely execute in
a faulty run.  This variant therefore treats *every* edge as executable
— it degenerates into sparse (unconditional) constant propagation with
optimistic phi meets, which is exactly the fixpoint that stays correct
under arbitrary branch flips.

Lattice: TOP (unknown, optimistic) → Constant → BOTTOM (overdefined).
Frozen values start at BOTTOM (their registers are observables).  Loads,
calls and tid are BOTTOM.  Evaluation shares the fold
pass's machine-exact helpers; anything that would trap goes BOTTOM.

Replacement RAUWs const-valued instructions with Constants and leaves
the husks to DCE, so step/cycle accounting stays in one place.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir import (
    Argument,
    BinOp,
    Cast,
    Cmp,
    Constant,
    Function,
    Instruction,
    Phi,
    UnaryOp,
    Value,
)
from repro.opt.fold import _NoFold, eval_instruction
from repro.opt.ghosts import ghost_kind_of, remove_with_ghost, replace_all_uses

_TOP = object()
_BOTTOM = object()

_EVALUATABLE = (BinOp, Cmp, UnaryOp, Cast)


def _meet(a, b):
    """Lattice meet of two abstract values (TOP is the identity)."""
    if a is _TOP:
        return b
    if b is _TOP:
        return a
    if a is _BOTTOM or b is _BOTTOM:
        return _BOTTOM
    # Both constants: equal (same guest value, same value type) or clash.
    if type(a) is type(b) and repr(a) == repr(b):
        return a
    return _BOTTOM


def run(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    lattice: Dict[Instruction, object] = {}
    order: List[Instruction] = [inst for block in function.blocks
                                for inst in block.instructions]

    def value_of(operand):
        if isinstance(operand, Constant):
            return operand.value
        if isinstance(operand, Instruction):
            return lattice.get(operand, _TOP)
        if isinstance(operand, Argument):
            return _BOTTOM
        return _BOTTOM  # globals, function refs, slots: runtime state

    def transfer(inst: Instruction):
        if inst in frozen:
            return _BOTTOM
        if isinstance(inst, Phi):
            result = _TOP
            for operand in inst.operands:
                if operand is inst:
                    continue  # self edge contributes nothing new
                result = _meet(result, value_of(operand))
                if result is _BOTTOM:
                    break
            return result
        if isinstance(inst, _EVALUATABLE):
            operand_values = []
            for operand in inst.operands:
                av = value_of(operand)
                if av is _BOTTOM:
                    return _BOTTOM
                if av is _TOP:
                    return _TOP  # stay optimistic until inputs resolve
                operand_values.append(av)
            try:
                return eval_instruction(inst, operand_values)
            except _NoFold:
                return _BOTTOM
        return _BOTTOM

    def differs(old, new) -> bool:
        if old is new:
            return False
        if (old is _TOP or old is _BOTTOM or new is _TOP or new is _BOTTOM):
            return True
        return not (type(old) is type(new) and repr(old) == repr(new))

    for inst in order:
        lattice[inst] = _TOP
    worklist = list(order)
    while worklist:
        inst = worklist.pop(0)
        new = transfer(inst)
        if differs(lattice[inst], new):
            lattice[inst] = new
            for user in inst.uses:
                if isinstance(user, Instruction) and user.parent is not None:
                    worklist.append(user)

    removed = 0
    for block in function.blocks:
        for inst in list(block.instructions):
            abstract = lattice.get(inst, _BOTTOM)
            if abstract is _TOP or abstract is _BOTTOM:
                continue
            if inst in frozen or not inst.uses:
                continue
            replacement = Constant(abstract, inst.type)
            kind = None if isinstance(inst, Phi) else ghost_kind_of(inst)
            if isinstance(inst, Phi):
                replace_all_uses(inst, replacement)
                removed += 1  # husk removed by DCE (zero-cost anyway)
            elif kind is not None:
                replace_all_uses(inst, replacement)
                remove_with_ghost(inst, kind)
                removed += 1
    return {"removed": removed, "replaced": removed}
