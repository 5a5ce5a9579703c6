"""Out-of-SSA and back: phi lowering to local slots, and slot promotion.

``from_ssa`` lowers every phi into a :class:`~repro.ir.values.LocalSlot`
with a ``readlocal`` at the phi position and a ``writelocal`` at the end
of each predecessor.  Because all reads happen at the block top (where
the phis were) and all writes at predecessor ends, the lowering has
parallel-copy semantics for free — the swap and lost-copy problems of
naive phi elimination cannot arise, and no critical edge needs
splitting (an extra write on a not-taken edge is dead, never wrong —
CFG shape is a legality invariant here, see :mod:`repro.opt.legality`).

``to_ssa`` promotes slots back: a phi per (slot × join block) with
per-block value renaming in reverse postorder, then trivial-phi pruning
(the Aycock–Horspool "maximal phis then prune" construction, which the
Bril lesson-6 harness validates the same way: round-trip and re-verify).

``from_ssa`` *adds* executed instructions, so it is intentionally not
part of any ``-O`` pipeline (it would break step-count identity); it
exists for round-trip validation and as a lowering stage for backends
that prefer slot form.  ``to_ssa`` on an already-SSA module is a no-op
plus trivial-phi pruning, which is why it leads every pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import OptimizationError
from repro.ir import (
    CFG,
    BasicBlock,
    BOOL,
    Constant,
    FLOAT,
    Function,
    LocalSlot,
    Phi,
    ReadLocal,
    Value,
    WriteLocal,
)
from repro.opt import copyprop
from repro.opt.ghosts import KIND_ALU, remove_phi, remove_with_ghost, replace_all_uses


def _default_constant(type_) -> Constant:
    if type_ is FLOAT:
        return Constant(0.0, FLOAT)
    if type_ is BOOL:
        return Constant(False, BOOL)
    return Constant(0, type_)


# ---------------------------------------------------------------------------
# SSA -> slots
# ---------------------------------------------------------------------------


def from_ssa(function: Function) -> int:
    """Lower every phi to slot reads/writes; returns the phi count."""
    lowered: List[tuple] = []  # (phi, slot, read)
    next_slot = 0
    for block in function.blocks:
        for phi in block.phis():
            slot = LocalSlot(phi.name or "phi%d" % next_slot, phi.type,
                             next_slot)
            next_slot += 1
            lowered.append((phi, slot, ReadLocal(slot, phi.name)))
    if not lowered:
        return 0
    # RAUW first so incoming values that are themselves phis resolve to
    # their replacement reads before we snapshot the write operands.
    for phi, _slot, read in lowered:
        replace_all_uses(phi, read)
    for phi, slot, _read in lowered:
        for value, pred in zip(list(phi.operands), list(phi.blocks)):
            pred.insert_before_terminator(WriteLocal(slot, value))
    # Remove the phis, then plant the reads where they stood (block top,
    # original phi order — the parallel-copy read point).
    by_block: Dict[BasicBlock, List[ReadLocal]] = {}
    for phi, _slot, read in lowered:
        by_block.setdefault(phi.parent, []).append(read)
        remove_phi(phi)
    for block in function.blocks:
        reads = by_block.get(block)
        if reads:
            for position, read in enumerate(reads):
                block.insert(position, read)
    return len(lowered)


# ---------------------------------------------------------------------------
# Slots -> SSA
# ---------------------------------------------------------------------------


def _collect_slots(function: Function) -> List[LocalSlot]:
    slots: List[LocalSlot] = []
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, (ReadLocal, WriteLocal)):
                slot = inst.slot
                if not any(slot is known for known in slots):
                    slots.append(slot)
    return slots


def to_ssa(function: Function, frozen: Optional[Set[Value]] = None) -> int:
    """Promote local slots back to SSA values; returns the number of
    read/write instructions eliminated.

    Maximal-phi construction: every join block gets one phi per slot up
    front; renaming then walks reverse postorder, and trivial-phi
    pruning (copyprop) deletes the placeholders that turned out
    redundant.  Deterministic: blocks, instructions, slots, and
    predecessor lists are all visited in list order.
    """
    slots = _collect_slots(function)
    if not slots:
        return 0
    if frozen is None:
        frozen = set()
    cfg = CFG(function)
    reached = set(cfg.reachable())
    order = [b for b in cfg.reverse_postorder() if b in reached]
    processed: Set[BasicBlock] = set()
    # Placeholder phis for every (join block, slot).
    entry_values: Dict[BasicBlock, Dict[LocalSlot, object]] = {}
    exit_values: Dict[BasicBlock, Dict[LocalSlot, object]] = {}
    join_phis: Dict[BasicBlock, Dict[LocalSlot, Phi]] = {}
    preds_of: Dict[BasicBlock, List[BasicBlock]] = {
        block: block.predecessors() for block in order}
    removed = 0
    for block in order:
        preds = preds_of[block]
        if len(preds) >= 2:
            phis = {}
            for slot in slots:
                phis[slot] = Phi(slot.type, slot.name)
            join_phis[block] = phis
            entry_values[block] = dict(phis)
        elif len(preds) == 1:
            pred = preds[0]
            if pred not in processed:
                raise OptimizationError(
                    "to_ssa: single predecessor %s of %s not yet renamed "
                    "(irreducible control flow?)" % (pred.name, block.name))
            entry_values[block] = dict(exit_values[pred])
        else:
            entry_values[block] = {}
        current = dict(entry_values[block])
        for inst in list(block.instructions):
            if isinstance(inst, WriteLocal):
                current[inst.slot] = inst.value
                remove_with_ghost(inst, KIND_ALU)
                removed += 1
            elif isinstance(inst, ReadLocal):
                value = current.get(inst.slot)
                if value is None:
                    value = _default_constant(inst.slot.type)
                replace_all_uses(inst, value)
                if not inst.uses:
                    remove_with_ghost(inst, KIND_ALU)
                    removed += 1
        exit_values[block] = current
        processed.add(block)
    # Fill phi incoming edges and insert the survivors.
    for block in order:
        phis = join_phis.get(block)
        if not phis:
            continue
        for position, slot in enumerate(slots):
            phi = phis[slot]
            for pred in preds_of[block]:
                value = exit_values.get(pred, {}).get(slot)
                if value is None:
                    value = _default_constant(slot.type)
                phi.add_incoming(value, pred)
            block.insert(position, phi)
    # Prune the (many) trivial placeholders, then drop dead survivors.
    copyprop.run(function, frozen)
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                if not phi.uses and phi not in frozen:
                    remove_phi(phi)
                    changed = True
    return removed


# ---------------------------------------------------------------------------
# Pass-pipeline adapters
# ---------------------------------------------------------------------------


def run_to_ssa(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    return {"removed": to_ssa(function, frozen), "replaced": 0}


def run_from_ssa(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    return {"removed": 0, "replaced": from_ssa(function)}
