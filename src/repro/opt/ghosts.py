"""Ghost accounting: delete instructions without changing the trace.

A golden fingerprint (:func:`repro.store.hashing.golden_fingerprint`)
covers the output signature, the per-thread dynamic branch counts, *and*
the total step count; campaign hang budgets are derived from golden
steps, and overhead figures from cycle clocks.  If DCE simply dropped an
instruction, every one of those would shift and ``-O2`` results would no
longer be comparable to (or resumable against) ``-O0`` journals.

So removal is *replayed* instead: each deleted instruction leaves a
ghost — ``(steps, kinds)`` attached to the next surviving instruction in
its block — and the runtime charges those steps and the cycle cost of
the symbolic ``kinds`` (resolved against the active cost model by
:meth:`repro.runtime.costmodel.CostModel.ghost_cycles`) immediately
before executing the carrier.  Ghosts cascade: removing a carrier folds
its accumulated baggage into the next survivor.  A block's terminator is
never removable, so a landing spot always exists.

Phi nodes are the exception: the machine executes them as part of
the edge transfer at zero step/cycle cost, so removing one needs no
ghost.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import OptimizationError
from repro.ir import (
    BinOp,
    Cast,
    Cmp,
    Constant,
    FLOAT,
    GetTid,
    Instruction,
    LoadGlobal,
    Phi,
    UnaryOp,
    Value,
)

#: Ghost cost-kind tuples (resolved by CostModel.ghost_cycles).
KIND_ALU = ("alu",)
KIND_CMP = ("cmp",)
KIND_CAST = ("cast",)
KIND_MEM = ("mem",)
KIND_INTRINSIC = ("intrinsic",)


def replace_all_uses(old: Value, new: Value) -> int:
    """RAUW: rewrite every use of ``old`` into ``new``; returns the
    number of users rewritten.  Use-list order is insertion order, so
    the rewrite order is deterministic."""
    users = list(old.uses)
    for user in users:
        user.replace_uses_of(old, new)
    return len(users)


def ghost_kind_of(inst: Instruction) -> Optional[Tuple]:
    """The ghost cost kind for ``inst`` if it is removable, else None.

    Removable means pure (no side effects, no control flow) *and*
    crash-free: an instruction that could raise a guest crash under a
    corrupted register (int div/mod with a non-constant or zero divisor,
    ``ftoi``, array element access) must stay — deleting it would mask a
    crash outcome the unoptimized program exhibits.
    """
    if isinstance(inst, BinOp):
        is_float = inst.type is FLOAT
        if inst.op in ("div", "mod") and not is_float:
            rhs = inst.rhs
            if not (isinstance(rhs, Constant) and rhs.value != 0):
                return None  # may trap on a zero divisor
        return ("binop", inst.op, is_float)
    if isinstance(inst, Cmp):
        return KIND_CMP
    if isinstance(inst, UnaryOp):
        return KIND_ALU
    if isinstance(inst, Cast):
        return KIND_CAST if inst.kind != "ftoi" else None  # ftoi traps
    if isinstance(inst, LoadGlobal):
        return KIND_MEM
    if isinstance(inst, GetTid):
        return KIND_INTRINSIC
    return None


def remove_with_ghost(inst: Instruction, kind: Tuple) -> None:
    """Delete ``inst`` from its block, folding its step and cycle cost
    (plus any ghosts it already carries) into the next survivor."""
    block = inst.parent
    if block is None:
        raise OptimizationError("removing detached instruction %r" % inst)
    index = block.instructions.index(inst)
    steps = 1
    kinds = (kind,)
    own = getattr(inst, "ghost", None)
    if own is not None:
        # The deleted predecessors executed before inst itself did.
        steps += own[0]
        kinds = own[1] + kinds
    block.remove(inst)
    inst.drop_operands()
    successor = block.instructions[index]  # terminator at worst
    existing = getattr(successor, "ghost", None)
    if existing is None:
        successor.ghost = (steps, kinds)
    else:
        # Any ghost already on the successor came from instructions that
        # sat *between* inst and the successor (everything earlier would
        # have landed on inst itself), so inst's kinds execute first.
        successor.ghost = (existing[0] + steps, kinds + existing[1])


def remove_phi(phi: Phi) -> None:
    """Delete a phi node (zero-cost in the runtime: no ghost needed)."""
    block = phi.parent
    if block is None:
        raise OptimizationError("removing detached phi %r" % phi)
    block.remove(phi)
    phi.drop_operands()
    phi.blocks = []
