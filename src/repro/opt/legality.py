"""Similarity-aware legality rules for the optimizer.

BLOCKWATCH's whole premise is that the *instrumented* branch structure of
the program is an observable: the monitor compares branch conditions
across threads, and the fault injector corrupts the registers feeding
checked branches.  An optimizer that folds a branch condition into a
constant, or reroutes a use through a different register, changes what
the monitor sees and what the injector can corrupt — the optimized
program would produce different detections for the same fault plan.

The rules that keep every pass trace-preserving:

1. **CFG shape is untouchable.**  No pass removes, merges, splits, or
   reorders basic blocks, and no pass deletes or adds a branch.  Block
   names appear in injection detail strings and the dynamic branch census
   (``branch_counts``) is part of every golden fingerprint, so the branch
   population must be bit-identical across opt levels.  (A corrupted
   condition can steer execution down either edge, so edge feasibility
   may never be assumed — SCCP treats *every* CFG edge as executable.)

2. **Frozen values.**  A value is *frozen* when the monitor or the
   injector observes its register directly:

   * the condition operand of every ``Branch``;
   * the operands of a ``Cmp`` that feeds a branch condition (these are
     the injector's victim candidates — see
     :meth:`repro.faults.injector.InjectingHook._corrupt_condition`);
   * every operand of a ``SendBranchCondition`` (the values shipped to
     the monitor).

   A frozen value may be neither replaced (its defining instruction must
   keep producing its register) nor *substituted for another value*: a
   pass that rewrites ``use(y)`` into ``use(x)`` where ``x`` is frozen
   creates a read of ``x``'s register at a point where the unoptimized
   program read a copy — after the injector corrupts ``x``, the two
   programs diverge.  Constants are exempt from the replacer rule (the
   injector never picks Constant operands as victims).

Everything else — dead pure computation, constant arithmetic,
redundant phi copies — is fair game, provided the deleted work is
re-charged through instruction ghosts (:mod:`repro.opt.ghosts`).
"""

from __future__ import annotations

from typing import Set

from repro.ir import Branch, Cmp, Function, SendBranchCondition, Value


def compute_frozen(function: Function) -> Set[Value]:
    """The set of frozen values in ``function``.

    IR values hash by identity, which is the right key: freezing is a
    property of one SSA register, i.e. one value object.
    """
    frozen: Set[Value] = set()
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, Branch):
                cond = inst.cond
                frozen.add(cond)
                if isinstance(cond, Cmp):
                    for op in cond.operands:
                        frozen.add(op)
            elif isinstance(inst, SendBranchCondition):
                for op in inst.operands:
                    frozen.add(op)
    return frozen
