"""Synchronization analyses: barrier phases and must-locksets.

Both are instances of the :mod:`repro.ir.dataflow` engine.

**Barrier phases.**  In an SPMD program whose threads all reach the same
textually-aligned barriers, execution splits into *dynamic phases*: the
regions between consecutive barrier crossings.  Two statements can
execute concurrently in different threads only if some dynamic phase can
contain both.  We compute, per instruction, the set of *phase entries*
that reach it without crossing another barrier — the function entry, or
a specific ``BarrierWait`` instruction.  Two instructions may then
happen in parallel iff their phase-entry sets intersect: there is a
phase both can be live in.  This is exact for aligned barriers and
handles barriers inside loops without widening (a loop body
``work; barrier; read; barrier`` keeps ``work`` and ``read`` in
disjoint phases; drop the trailing barrier and the back edge makes them
share one, which is precisely the race).

**Locksets.**  A forward must-analysis: the set of lock globals
provably held at each instruction (intersection at joins, ⊤ above
unreached blocks).  Two accesses whose locksets intersect are mutually
excluded and cannot race.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from repro.ir import (
    CFG,
    BarrierWait,
    Function,
    Instruction,
    LockAcquire,
    LockRelease,
)
from repro.ir.dataflow import (
    TOP,
    DataflowResult,
    IntersectionLattice,
    UnionLattice,
    run_dataflow,
)

#: Phase-entry token for "from function entry, before any barrier".
ENTRY_PHASE = "entry"

#: A phase token: ``(function_name, ENTRY_PHASE)`` or
#: ``(function_name, "barrier", vid)`` for the phase a specific
#: ``BarrierWait`` opens.  Tokens are plain tuples so phase sets hash,
#: compare, and sort deterministically.
PhaseToken = Tuple


def entry_token(function: Function) -> PhaseToken:
    return (function.name, ENTRY_PHASE)


def barrier_token(function: Function, barrier: BarrierWait) -> PhaseToken:
    return (function.name, "barrier", barrier.vid)


class _PhaseLattice(UnionLattice):
    def __init__(self, function: Function):
        self._boundary = frozenset([entry_token(function)])

    def boundary(self):
        return self._boundary


def phase_analysis(function: Function, cfg: CFG = None) -> DataflowResult:
    """Per-instruction phase-entry sets for one function.

    ``result.before(inst)`` is the set of phase entries whose phase can
    contain ``inst``.  A ``BarrierWait`` itself belongs to the phases it
    *closes*; the phase it opens starts at the next instruction.
    """
    def transfer(fact, inst: Instruction):
        if isinstance(inst, BarrierWait):
            return frozenset([barrier_token(function, inst)])
        return fact

    return run_dataflow(function, _PhaseLattice(function), transfer, cfg=cfg)


def lockset_analysis(function: Function, cfg: CFG = None) -> DataflowResult:
    """Per-instruction must-held locksets (sets of lock global names)."""
    def transfer(fact, inst: Instruction):
        if fact is TOP:
            return fact  # unreachable code: facts are irrelevant
        if isinstance(inst, LockAcquire):
            return fact | {inst.lock.name}
        if isinstance(inst, LockRelease):
            return fact - {inst.lock.name}
        return fact

    return run_dataflow(function, IntersectionLattice(), transfer, cfg=cfg)


def lockset_at(result: DataflowResult, inst: Instruction) -> FrozenSet[str]:
    """The must-lockset *at* ``inst`` (⊤ in unreachable code collapses
    to the empty set: nothing is provably held)."""
    fact = result.before(inst)
    return frozenset() if fact is TOP else fact


def phases_at(result: DataflowResult, inst: Instruction) -> FrozenSet[PhaseToken]:
    return result.before(inst)


def functions_with_barriers(functions) -> Set[str]:
    """Names of the ``functions`` that directly contain a
    ``BarrierWait`` (the race detector closes this over the call
    graph)."""
    return {function.name for function in functions
            if any(isinstance(inst, BarrierWait)
                   for inst in function.instructions())}
