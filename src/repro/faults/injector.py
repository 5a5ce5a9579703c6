"""The injecting :class:`~repro.runtime.FaultHook` — our PIN analogue.

The hook rides along a normal protected run; every thread counts its
dynamic branches (PIN's instrumentation step), and the machine calls the
hook only at the planned (thread, k-th branch), where it applies the
fault exactly once:

* ``BRANCH_FLIP`` — invert the decision;
* ``BRANCH_CONDITION`` — pick a random register operand of the compare
  feeding the branch, flip a random bit of its value, write the corrupted
  value back to the register (persistence), and re-evaluate the compare.

Everything before the injection point is bit-identical to the golden run
(same seed, same scheduler), so the fault is activated iff the target
thread executes at least ``k`` branches.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.models import FaultSpec, FaultType
from repro.ir import Cmp, Constant, GlobalVariable
from repro.runtime.closures import Frame
from repro.runtime.machine import FaultHook, Machine, ThreadContext
from repro.runtime.values import evaluate_cmp, flip_value_bit


class InjectingHook(FaultHook):
    """Applies one :class:`FaultSpec` during a run."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        #: The fault site was reached and the fault applied.
        self.activated = False
        #: The injected fault actually changed the branch decision.
        self.flipped_branch = False
        #: Human-readable description of what was corrupted.
        self.detail = ""

    def call_at(self, tid: int) -> int:
        """The target thread's planned branch (below 1: none)."""
        spec = self.spec
        return max(spec.branch_index, 0) if tid == spec.thread_id else 0

    def before_branch(self, machine: Machine, thread: ThreadContext,
                      branch, frame: Frame, taken: bool) -> bool:
        self.activated = True
        if self.spec.fault_type is FaultType.BRANCH_FLIP:
            self.flipped_branch = True
            # Built from block names only: unnamed condition registers
            # print as id()-based placeholders, and journal replay needs
            # details that are stable across processes.
            self.detail = ("flipped decision of br -> %s, %s%s"
                           % (branch.then_block.name,
                              branch.else_block.name,
                              " !bw" if branch.bw_info is not None else ""))
            return not taken
        return self._corrupt_condition(machine, thread, branch, frame, taken)

    def _corrupt_condition(self, machine: Machine, thread: ThreadContext,
                           branch, frame: Frame, taken: bool) -> bool:
        rng = random.Random(self.spec.rng_seed)
        cond = branch.cond
        if isinstance(cond, Cmp):
            candidates = [op for op in cond.operands
                          if not isinstance(op, (Constant, GlobalVariable))]
            if candidates:
                victim = rng.choice(candidates)
                old = machine.read_value(frame, victim)
                bit = self._pick_bit(rng, old)
                new = flip_value_bit(old, bit)
                # Persist: every later use of this register sees the
                # corrupted value (this is what makes condition faults
                # lead to SDCs beyond the branch itself).
                machine.write_reg(frame, victim, new)
                lhs = machine.read_value(frame, cond.lhs)
                rhs = machine.read_value(frame, cond.rhs)
                new_taken = evaluate_cmp(cond.op, lhs, rhs)
                self.flipped_branch = new_taken != taken
                self.detail = ("flipped bit %d of %s: %r -> %r"
                               % (bit, victim.short(), old, new))
                return new_taken
        # The condition is a lone boolean register (or the compare reads
        # only immediates): the condition *is* the data; flip its bit 0.
        self.flipped_branch = True
        self.detail = "flipped boolean condition register"
        if not isinstance(cond, Constant):
            machine.write_reg(frame, cond, not taken)
        return not taken

    def _pick_bit(self, rng: random.Random, value) -> int:
        if self.spec.bit is not None:
            return self.spec.bit
        if isinstance(value, bool):
            return 0
        return rng.randrange(64)


def plan_fault(fault_type: FaultType, branch_counts: dict,
               rng: random.Random, rng_seed: Optional[int] = None) -> Optional[FaultSpec]:
    """Draw one (thread, dynamic branch) site per the paper's procedure:
    pick a random thread j, then a random k in [1, n_j]."""
    eligible = [tid for tid, count in branch_counts.items() if count > 0]
    if not eligible:
        return None
    thread_id = rng.choice(eligible)
    branch_index = rng.randint(1, branch_counts[thread_id])
    return FaultSpec(
        fault_type=fault_type, thread_id=thread_id, branch_index=branch_index,
        rng_seed=rng_seed if rng_seed is not None else rng.randrange(2 ** 31))
