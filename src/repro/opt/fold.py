"""Constant folding + integer algebraic identities.

Evaluation delegates to the guest-value helpers and operator tables of
:mod:`repro.runtime.values` — the semantics the compiled code has — so
a folded constant is bit-identical to what the unoptimized program
would have computed, including 64-bit wrapping, C-style division, shift
masking, and the IEEE inf/nan rules for float division by zero.
Anything that would crash the guest (zero divisor, ``ftoi`` of
nan/inf/out-of-range) refuses to fold: the crash is an observable
outcome the optimized program must still exhibit.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.errors import GuestCrash
from repro.ir import (
    BinOp,
    Cast,
    Cmp,
    Constant,
    FLOAT,
    Function,
    INT,
    Instruction,
    UnaryOp,
    Value,
)
from repro.opt.ghosts import ghost_kind_of, remove_with_ghost, replace_all_uses
from repro.runtime.values import (
    BINOP_FUNCS,
    evaluate_cmp,
    float_div,
    float_to_int,
    int_div,
    int_mod,
    wrap_int,
)


class _NoFold(Exception):
    """Internal: this operation cannot be evaluated at compile time."""


def eval_binop(op: str, type_, lhs, rhs):
    """A guest binary operation over raw guest values, with the
    machine's semantics (the code it generates for the same op)."""
    is_float = type_ is FLOAT
    fn = BINOP_FUNCS.get(op)
    try:
        if fn is not None:
            value = fn(lhs, rhs)
        elif op == "div":
            value = float_div(lhs, rhs) if is_float else int_div(lhs, rhs)
        elif op == "mod":
            value = int_mod(lhs, rhs)
        else:  # pragma: no cover - constructor rejects unknown ops
            raise _NoFold
    except GuestCrash:
        raise _NoFold from None
    if type_ is INT:
        value = wrap_int(value)
    elif is_float:
        value = float(value)
    return value


def eval_unop(op: str, type_, value):
    if op == "neg":
        value = -value
        return wrap_int(value) if type_ is INT else float(value)
    return not value


def eval_cmp(op: str, lhs, rhs) -> bool:
    return evaluate_cmp(op, lhs, rhs)


def eval_cast(kind: str, value):
    if kind == "itof":
        return float(value)
    if kind == "ftoi":
        try:
            return float_to_int(value)
        except GuestCrash:
            raise _NoFold from None
    return 1 if value else 0


def eval_instruction(inst: Instruction, operand_values) -> object:
    """Evaluate one pure instruction over concrete operand values;
    raises :class:`_NoFold` when the result is not compile-time safe."""
    if isinstance(inst, BinOp):
        return eval_binop(inst.op, inst.type, *operand_values)
    if isinstance(inst, Cmp):
        return eval_cmp(inst.op, *operand_values)
    if isinstance(inst, UnaryOp):
        return eval_unop(inst.op, inst.type, *operand_values)
    if isinstance(inst, Cast):
        return eval_cast(inst.kind, *operand_values)
    raise _NoFold


def _is_const(value: Value, want) -> bool:
    return (isinstance(value, Constant) and value.type is INT
            and value.value == want)


def _identity(inst: BinOp) -> Optional[Value]:
    """x for patterns like ``x + 0``; a zero Constant for ``x * 0``;
    None when no (integer) identity applies."""
    if inst.type is not INT:
        return None  # float identities are unsound (-0.0, nan)
    op, lhs, rhs = inst.op, inst.lhs, inst.rhs
    if op in ("add", "or", "xor"):
        if _is_const(rhs, 0):
            return lhs
        if _is_const(lhs, 0):
            return rhs
    elif op in ("sub", "shl", "shr"):
        if _is_const(rhs, 0):
            return lhs
    elif op == "mul":
        if _is_const(rhs, 1):
            return lhs
        if _is_const(lhs, 1):
            return rhs
        if _is_const(rhs, 0) or _is_const(lhs, 0):
            return Constant(0, INT)
    elif op == "and":
        if _is_const(rhs, 0) or _is_const(lhs, 0):
            return Constant(0, INT)
    elif op == "div":
        if _is_const(rhs, 1):
            return lhs
    return None


def _try_rewrite(inst: Instruction, replacement: Value,
                 frozen: Set[Value]) -> bool:
    """RAUW + ghost-remove ``inst`` if legality and removability allow."""
    if inst in frozen:
        return False
    if not isinstance(replacement, Constant) and replacement in frozen:
        return False  # never create new uses of an injector-visible register
    kind = ghost_kind_of(inst)
    if kind is None:
        return False
    replace_all_uses(inst, replacement)
    if inst.uses:  # defensive: a self-use would leave the husk live
        return False
    remove_with_ghost(inst, kind)
    return True


def run(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    """Fold every constant expression and integer identity to fixpoint."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.parent is not block or not inst.uses:
                    continue  # removed this sweep / left for DCE
                if isinstance(inst, (BinOp, Cmp, UnaryOp, Cast)):
                    replacement = None
                    if all(isinstance(op, Constant) for op in inst.operands):
                        try:
                            value = eval_instruction(
                                inst, [op.value for op in inst.operands])
                            replacement = Constant(value, inst.type)
                        except _NoFold:
                            replacement = None
                    if replacement is None and isinstance(inst, BinOp):
                        replacement = _identity(inst)
                    if replacement is not None and _try_rewrite(
                            inst, replacement, frozen):
                        removed += 1
                        changed = True
    return {"removed": removed, "replaced": removed}
