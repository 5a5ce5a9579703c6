"""IR verifier: structural and SSA well-formedness checks.

Run after the front-end and after every transforming pass.  The checks:

* every reachable block ends in exactly one terminator, with no terminator
  in the middle;
* the entry block has no predecessors and no phis;
* phi nodes appear only at the top of a block and their incoming blocks are
  exactly the block's predecessors (one entry per edge);
* every SSA use is dominated by its definition (phi uses are checked
  against the incoming edge's predecessor);
* ``ret`` values match the function's return type; every function with a
  non-void return type returns a value on all ``ret`` instructions;
* call operands reference functions and globals of the same module;
* the synchronization protocol is well-formed: no lock release without a
  dominating acquire, no path re-acquiring a lock it already holds, and
  no barrier wait while any lock may be held (a barrier under a lock
  deadlocks as soon as a second thread needs the lock to reach it).

Edges, reachability and dominance come from :mod:`repro.ir.cfg`, which
sits beside the verifier so the IR can be validated before any analysis
is trusted.  Unreachable blocks pass the dominance checks vacuously.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import VerificationError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BarrierWait,
    Call,
    Instruction,
    LockAcquire,
    LockRelease,
    Phi,
    Ret,
    Terminator,
)
from repro.ir.module import Module
from repro.ir.types import VOID
from repro.ir.values import (
    Argument,
    Constant,
    FunctionRef,
    GlobalVariable,
)


def verify_module(module: Module) -> None:
    """Verify every function of ``module``; raise VerificationError on the
    first problem found."""
    for function in module.function_table:
        verify_function(function, module)


def verify_function(function: Function, module: Module = None) -> None:
    if not function.blocks:
        raise VerificationError("function %s has no blocks" % function.name)
    _check_block_structure(function)
    cfg = CFG(function)
    _check_phi_edges(function, cfg)
    _check_dominance(function, cfg)
    _check_returns(function)
    _check_sync_protocol(function, cfg)
    if module is not None:
        _check_module_references(function, module)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_block_structure(function: Function) -> None:
    entry = function.entry
    if entry.predecessors():
        raise VerificationError(
            "%s: entry block %s has predecessors" % (function.name, entry.name))
    if entry.phis():
        raise VerificationError(
            "%s: entry block %s has phi nodes" % (function.name, entry.name))
    for block in function.blocks:
        if not block.instructions:
            raise VerificationError("%s: block %s is empty" % (function.name, block.name))
        term = block.instructions[-1]
        if not isinstance(term, Terminator):
            raise VerificationError(
                "%s: block %s does not end in a terminator" % (function.name, block.name))
        for inst in block.instructions[:-1]:
            if isinstance(inst, Terminator):
                raise VerificationError(
                    "%s: block %s has a terminator %r in mid-block"
                    % (function.name, block.name, inst))
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    raise VerificationError(
                        "%s: phi %r after non-phi in block %s"
                        % (function.name, inst, block.name))
            else:
                seen_non_phi = True
            if inst.parent is not block:
                raise VerificationError(
                    "%s: instruction %r has wrong parent" % (function.name, inst))


def _check_phi_edges(function: Function, cfg: CFG) -> None:
    for block in function.blocks:
        expected = cfg.predecessors[block]
        for phi in block.phis():
            got = list(phi.blocks)
            if len(got) != len(expected) or set(got) != set(expected):
                raise VerificationError(
                    "%s: phi %r in %s has incoming blocks {%s}, expected {%s}"
                    % (function.name, phi, block.name,
                       ", ".join(b.name for b in got),
                       ", ".join(b.name for b in expected)))
            for value in phi.operands:
                if value.type is not phi.type and not (
                        value.type.is_numeric and phi.type.is_numeric):
                    raise VerificationError(
                        "%s: phi %r has incoming of type %s"
                        % (function.name, phi, value.type))


def _check_dominance(function: Function, cfg: CFG) -> None:
    tree = DominatorTree(function, cfg)
    blocks = set(function.blocks)

    def dominates(a: BasicBlock, b: BasicBlock) -> bool:
        if b not in tree.idom:
            # Unreachable: every block of the function dominates it.
            return a in blocks
        return tree.dominates(a, b)

    positions: Dict[Instruction, int] = {}
    for block in function.blocks:
        for pos, inst in enumerate(block.instructions):
            positions[inst] = pos

    def defined_before(def_inst: Instruction, use_inst: Instruction,
                       use_block: BasicBlock) -> bool:
        def_block = def_inst.parent
        if def_block is None or def_block not in blocks:
            return False
        if def_block is use_block:
            return positions[def_inst] < positions[use_inst]
        return dominates(def_block, use_block)

    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, Phi):
                for value, pred in zip(inst.operands, inst.blocks):
                    if isinstance(value, Instruction):
                        # The def must dominate the end of the incoming edge.
                        if not dominates(value.parent, pred):
                            raise VerificationError(
                                "%s: phi %r incoming %s from %s not dominated by def"
                                % (function.name, inst, value.short(), pred.name))
                continue
            for value in inst.operands:
                if isinstance(value, Instruction):
                    if not defined_before(value, inst, block):
                        raise VerificationError(
                            "%s: use of %s in %r (block %s) not dominated by its def"
                            % (function.name, value.short(), inst, block.name))
                elif isinstance(value, Argument):
                    if value.function is not function:
                        raise VerificationError(
                            "%s: use of foreign argument %%%s"
                            % (function.name, value.name))
                elif not isinstance(value, (Constant, GlobalVariable, FunctionRef)):
                    raise VerificationError(
                        "%s: unknown operand kind %r" % (function.name, value))


def _check_returns(function: Function) -> None:
    for block in function.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if function.return_type is VOID:
                if term.value is not None:
                    raise VerificationError(
                        "%s: void function returns a value" % function.name)
            else:
                if term.value is None:
                    raise VerificationError(
                        "%s: non-void function returns nothing" % function.name)
                if term.value.type is not function.return_type and not (
                        term.value.type.is_numeric
                        and function.return_type.is_numeric):
                    raise VerificationError(
                        "%s: return of type %s, expected %s"
                        % (function.name, term.value.type, function.return_type))


def _check_module_references(function: Function, module: Module) -> None:
    for inst in function.instructions():
        if isinstance(inst, Call):
            if module.functions.get(inst.callee.name) is not inst.callee:
                raise VerificationError(
                    "%s: call to function %s not in module"
                    % (function.name, inst.callee.name))
        for op in inst.operands:
            if isinstance(op, GlobalVariable):
                if module.globals.get(op.name) is not op:
                    raise VerificationError(
                        "%s: reference to global @%s not in module"
                        % (function.name, op.name))
            if isinstance(op, FunctionRef):
                if op.function_name not in module.functions:
                    raise VerificationError(
                        "%s: function reference &%s not in module"
                        % (function.name, op.function_name))


def _check_sync_protocol(function: Function, cfg: CFG) -> None:
    """Lock/barrier discipline, via a small may/must-held fixpoint.

    ``must`` (intersection at joins) proves a release has a dominating
    acquire on *every* path; ``may`` (union at joins) catches a path
    that re-acquires a held lock or parks on a barrier while holding
    one.  Plain iteration over the predecessor map, reachable blocks
    only.
    """
    if not any(isinstance(inst, (LockAcquire, LockRelease, BarrierWait))
               for inst in function.instructions()):
        return
    preds = cfg.predecessors
    entry = function.entry
    order = cfg.reachable()
    reachable = set(order)

    universe = frozenset(
        inst.lock.name for inst in function.instructions()
        if isinstance(inst, (LockAcquire, LockRelease)))

    def transfer(may: Set[str], must: Set[str], block: BasicBlock) -> None:
        for inst in block.instructions:
            if isinstance(inst, LockAcquire):
                may.add(inst.lock.name)
                must.add(inst.lock.name)
            elif isinstance(inst, LockRelease):
                may.discard(inst.lock.name)
                must.discard(inst.lock.name)

    may_out: Dict[BasicBlock, Set[str]] = {b: set() for b in function.blocks}
    must_out: Dict[BasicBlock, Set[str]] = {b: set(universe)
                                            for b in function.blocks}
    changed = True
    while changed:
        changed = False
        for block in order:
            ins = [p for p in preds[block] if p in reachable]
            if block is entry:
                may, must = set(), set()
            else:
                may = set().union(*(may_out[p] for p in ins)) \
                    if ins else set()
                must = set.intersection(*(set(must_out[p]) for p in ins)) \
                    if ins else set()
            transfer(may, must, block)
            if may != may_out[block] or must != must_out[block]:
                may_out[block] = may
                must_out[block] = must
                changed = True

    for block in order:
        ins = [p for p in preds[block] if p in reachable]
        if block is entry:
            may, must = set(), set()
        else:
            may = set().union(*(may_out[p] for p in ins)) if ins else set()
            must = set.intersection(*(set(must_out[p]) for p in ins)) \
                if ins else set()
        for inst in block.instructions:
            if isinstance(inst, LockAcquire):
                if inst.lock.name in may:
                    raise VerificationError(
                        "%s: block %s re-acquires lock @%s already held on "
                        "some path" % (function.name, block.name,
                                       inst.lock.name))
                may.add(inst.lock.name)
                must.add(inst.lock.name)
            elif isinstance(inst, LockRelease):
                if inst.lock.name not in must:
                    raise VerificationError(
                        "%s: block %s releases lock @%s without a dominating "
                        "acquire" % (function.name, block.name,
                                     inst.lock.name))
                may.discard(inst.lock.name)
                must.discard(inst.lock.name)
            elif isinstance(inst, BarrierWait):
                if may:
                    raise VerificationError(
                        "%s: block %s waits on barrier @%s while holding "
                        "lock(s) %s" % (function.name, block.name,
                                        inst.barrier.name,
                                        ", ".join("@" + name
                                                  for name in sorted(may))))
