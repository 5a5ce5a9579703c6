"""Block-closure compilation: the machine's only execution engine.

Every basic block is compiled once, at a module's first run, into
*units*:

* maximal runs of pure/branch-free instructions (arithmetic, casts,
  memory, intrinsics) become one ``exec``-generated Python function with
  operands resolved to flat register-list slots (or plain Python locals
  for values that never escape the unit), cycle costs summed into a
  single literal, and the program counter advanced once at the end;
* a run's segments that end where the run ends also execute the block's
  *tail*: its ``Jump``, its ``Branch``, or the checked branch's
  ``SendBranchCondition``/``Branch`` pair — condition message, branch
  count, fault hook, outcome message and transfer to the successor in
  the same generated call;
* calls, returns, locks and barriers become hand-built generic
  closures.

Every instruction but a phi also gets a *single* unit that executes
exactly that instruction; the quantum loop runs it when no larger unit
fits its budget.  The singles of sends, jumps and branches come from
the same emitter as the fused units, so send and branch semantics live
in one place.  Phis get no unit: they run as the parallel edge copy of
the transfer into their block, which leaves the frame past them.  A
send that finds its monitor queue full leaves through one cold helper,
:func:`_stall`, which parks the message for
:meth:`repro.runtime.machine.Machine._retry_pending`.

**Schedule identity.**  The scheduler draws jitter from a seeded RNG at
every quantum decision, so a run is reproducible only if quantum
boundaries fall at the same cumulative step counts however the code was
fused or optimized.  The quantum loop
(:meth:`repro.runtime.machine.Machine._run_quantum`) therefore
dispatches a fused unit only when its full (static) step count fits the
remaining budget; otherwise it falls back to the single closure — and
to per-kind optimizer-ghost charging.  Units never overshoot, so
scheduler decisions and RNG draws line up one to one at every
optimization level and quantum.

**Fault injection.**  The injector reads and corrupts victim registers
through :meth:`Machine.read_value`/:meth:`Machine.write_reg`.  Every
value the monitor or injector can observe (branch conditions, compare
operands feeding branches, monitor-send operands — the same *frozen*
set the optimizer respects) is always written to its register slot even
inside fused units, so corruption lands in the slot and every later use
observes it; a branch tail copies its successor's phis from slots too,
never from unit locals.

Known, accepted imprecisions (not observable in golden fingerprints or
campaign outcome classification): on a guest *crash* mid-unit the
partial unit's steps/cycles are not accounted, and for cost models
whose costs are not exactly representable dyadic floats the single
summed cycle literal — which also folds in a tail's send, branch and
jump costs and ghosts — can round differently from sequential addition
(the default model is all dyadic, hence exact).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import astuple
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import GuestCrash, SimulationError
from repro.ir import (
    BarrierWait,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Cmp,
    Constant,
    EnterLoop,
    FLOAT,
    Function,
    FunctionRef,
    GetTid,
    INT,
    Instruction,
    Jump,
    LoadElem,
    LoadGlobal,
    LockAcquire,
    LockRelease,
    LoopTick,
    Module,
    Output,
    Phi,
    Ret,
    SendBranchCondition,
    StoreElem,
    StoreGlobal,
    UnaryOp,
    VOID,
    Value,
)
from repro.monitor import CheckSite, check_sites
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import ThreadStatus
from repro.runtime.values import float_div, float_to_int, int_div, int_mod

_RUNNABLE = ThreadStatus.RUNNABLE
_DONE = ThreadStatus.DONE
_BLOCKED_LOCK = ThreadStatus.BLOCKED_LOCK
_BLOCKED_BARRIER = ThreadStatus.BLOCKED_BARRIER
_BLOCKED_QUEUE = ThreadStatus.BLOCKED_QUEUE

#: Instruction types a fused unit may contain: straight-line, no
#: scheduling interaction (they may crash the guest — that aborts the
#: whole run, so mid-unit crashes stay correct).
_FUSIBLE = (BinOp, UnaryOp, Cmp, Cast, LoadGlobal, StoreGlobal, LoadElem,
            StoreElem, GetTid, Output, EnterLoop, LoopTick)

_INFIX = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
          "xor": "^"}
_CMP_INFIX = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">",
              "ge": ">="}

#: Branch-free 64-bit two's-complement wrap, inlined into generated
#: code (mirrors repro.runtime.values.wrap_int bit for bit).
_WRAP = "((%s + 9223372036854775808) & 18446744073709551615) - 9223372036854775808"


# ---------------------------------------------------------------------------
# Compiled containers
# ---------------------------------------------------------------------------


class Frame:
    """One activation record: function, program counter (compiled block
    and instruction index), and a flat register list."""

    __slots__ = ("function", "cfunc", "block", "cblock", "index", "regs",
                 "call_inst")

    def __init__(self, function, cfunc, block, cblock, regs, call_inst):
        self.function = function
        self.cfunc = cfunc
        self.block = block
        self.cblock = cblock
        self.index = 0
        self.regs = regs
        self.call_inst = call_inst


class CompiledBlock:
    """One basic block, compiled.

    ``dispatch[i]`` is ``(segments, ghost_costs)``.  ``segments`` holds
    ``(steps, fn)`` pairs, largest first, for every compiled segment
    *starting* at instruction index ``i``: the quantum loop dispatches
    the first one whose static step count (instructions + interior
    replayed ghosts, excluding the leading instruction's own ghost,
    which the loop charges per kind) fits the remaining budget, else
    falls back to ``singles[i]``, which executes exactly instruction
    ``i``.  Fused runs are covered by power-of-two-aligned segments so
    a straight-line run longer than the scheduler quantum still mostly
    executes through big compiled chunks.  ``ghost_costs`` is the
    per-kind cycle tuple of instruction ``i``'s leading ghost.

    Both tables hold ``None`` at a phi: a frame enters a block at
    ``nphis``, past its phis, so it never steps onto one.
    """

    __slots__ = ("block", "nphis", "dispatch", "singles", "edge_copy")

    def __init__(self, block: BasicBlock, nphis: int):
        self.block = block
        self.nphis = nphis
        self.dispatch: List[Optional[Tuple[
            Tuple[Tuple[int, Callable], ...], Tuple[float, ...]]]] = []
        self.singles: List[Optional[Callable]] = []
        self.edge_copy: Dict[BasicBlock, Callable] = {}


class CompiledFunction:
    __slots__ = ("function", "slot_of", "nslots", "param_slots", "blocks")

    def __init__(self, function: Function):
        self.function = function
        self.slot_of: Dict[Value, int] = {}
        self.nslots = 0
        self.param_slots: Tuple[int, ...] = ()
        self.blocks: Dict[BasicBlock, CompiledBlock] = {}

    def make_frame(self, args: Tuple, call_inst=None) -> Frame:
        regs: List[Any] = [None] * self.nslots
        for slot, value in zip(self.param_slots, args):
            regs[slot] = value
        entry = self.function.entry
        return Frame(self.function, self, entry, self.blocks[entry],
                     regs, call_inst)


class CompiledProgram:
    """One module compiled for one (cost model, thread count)."""

    __slots__ = ("by_name", "by_function", "sites")

    def __init__(self):
        self.by_name: Dict[str, CompiledFunction] = {}
        self.by_function: Dict[Function, CompiledFunction] = {}
        #: static branch id -> the monitor's check site for that branch
        #: (shared by its outcome and condition messages).
        self.sites: Dict[int, CheckSite] = {}


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _partition(block: BasicBlock) -> List[Tuple[int, int, str]]:
    """Split a block's instruction list, past its phis, into units:
    maximal fusible runs, and every other instruction alone — a
    generated *single* for the block tail (sends, jumps, branches), a
    hand-built *generic* closure for the rest.  Phis get no unit."""
    insts = block.instructions
    units: List[Tuple[int, int, str]] = []
    i, n = len(block.phis()), len(insts)
    while i < n:
        inst = insts[i]
        if isinstance(inst, (SendBranchCondition, Jump, Branch)):
            units.append((i, i + 1, "single"))
            i += 1
        elif isinstance(inst, _FUSIBLE):
            j = i
            while j < n and isinstance(insts[j], _FUSIBLE):
                j += 1
            units.append((i, j, "fused"))
            i = j
        else:
            units.append((i, i + 1, "generic"))
            i += 1
    return units


class _Plan:
    """Per-function compilation plan: slots, units, escape analysis."""

    def __init__(self, function: Function, frozen):
        self.function = function
        self.frozen = frozen
        slot_of: Dict[Value, int] = {}

        def alloc(value) -> int:
            slot = slot_of.get(value)
            if slot is None:
                slot = len(slot_of)
                slot_of[value] = slot
            return slot

        self.param_slots = tuple(alloc(p) for p in function.params)
        for block in function.blocks:
            for inst in block.instructions:
                if inst.type is not VOID:
                    alloc(inst)
        self.slot_of = slot_of
        self.nslots = len(slot_of)
        self.units = {b: _partition(b) for b in function.blocks}
        #: inst -> (block, position) for escape analysis.
        self.pos_of: Dict[Instruction, Tuple[BasicBlock, int]] = {}
        for block in function.blocks:
            for pos, inst in enumerate(block.instructions):
                self.pos_of[inst] = (block, pos)

    def escapes(self, inst: Instruction, block: BasicBlock,
                start: int, end: int) -> bool:
        """True when ``inst``'s value is observable outside its fused
        unit: used by another unit/block, by a phi, or frozen (the
        injector may read or corrupt its register at a branch)."""
        if inst in self.frozen:
            return True
        for user in inst.uses:
            if isinstance(user, Phi):
                return True
            where = self.pos_of.get(user)
            if where is None or where[0] is not block:
                return True
            if not (start <= where[1] < end):
                return True
        return False


# ---------------------------------------------------------------------------
# Code generation (fused units, singles, edge copies)
# ---------------------------------------------------------------------------


def _stall(machine, thread, frame, index: int, pending: Tuple,
           cycles: float, steps: int) -> int:
    """Cold path of a generated send or branch whose monitor queue is
    full: charge the unit's cycles so far plus one stall, park
    ``pending`` for :meth:`Machine._retry_pending`, stop the frame at
    the stalled instruction ``index`` and return the steps executed."""
    stall = machine.cost.stall
    thread.cycles += cycles
    thread.cycles += stall
    thread.queue_stall += stall
    thread.pending = pending
    thread.status = _BLOCKED_QUEUE
    frame.index = index
    return steps


class _FunctionCodegen:
    def __init__(self, fi: int, function: Function, plan: _Plan,
                 cost: CostModel, nthreads: int,
                 func_index: Dict[str, int]):
        self.fi = fi
        self.function = function
        self.plan = plan
        self.cost = cost
        self.nthreads = nthreads
        self.func_index = func_index
        self.mem_cost = cost.memory_cost(nthreads)
        self.send_cost = cost.send_cost(nthreads)
        self.block_index = {b: i for i, b in enumerate(function.blocks)}
        #: (target, predecessor) -> that edge's phi-copy name.
        self.edge_names = {(target, pred): name
                           for target, pred, name in _edges(fi, function)}
        self.filename = "<closures:%s>" % function.name
        #: The globals of every unit of this function.
        self.namespace = {"_idiv": int_div, "_imod": int_mod,
                          "_ftoi": float_to_int, "_fdiv": float_div,
                          "_stall": _stall, "inf": math.inf, "nan": math.nan}

    def _define(self, name: str, source: str) -> Callable:
        """``compile`` and ``exec`` one generated unit on its own: many
        small compiles keep the compiler's peak memory at one unit's, not
        one function's."""
        exec(compile(source, self.filename, "exec"), self.namespace)
        return self.namespace[name]

    # -- value references --------------------------------------------------

    def _ref(self, value: Value, local_names: Dict[Value, str]) -> str:
        if isinstance(value, Constant):
            return "(%r)" % (value.value,)
        if isinstance(value, FunctionRef):
            return "%d" % self.func_index[value.function_name]
        name = local_names.get(value)
        if name is not None:
            return name
        return "regs[%d]" % self.plan.slot_of[value]

    def _inst_cost(self, inst: Instruction) -> float:
        cost = self.cost
        if isinstance(inst, BinOp):
            return cost.binop_cost(inst.op, inst.type is FLOAT)
        if isinstance(inst, Cmp):
            return cost.cmp
        if isinstance(inst, UnaryOp):
            return cost.alu
        if isinstance(inst, Cast):
            return cost.cast
        if isinstance(inst, (LoadGlobal, StoreGlobal, LoadElem, StoreElem)):
            return self.mem_cost
        if isinstance(inst, (GetTid, EnterLoop, LoopTick)):
            return cost.intrinsic
        if isinstance(inst, Output):
            return cost.output
        raise SimulationError("no cost for %r" % inst)  # pragma: no cover

    def _expr(self, inst: Instruction, local_names: Dict[Value, str],
              needs) -> str:
        """The value expression for one fusible, result-producing
        instruction."""
        ref = lambda v: self._ref(v, local_names)
        if isinstance(inst, BinOp):
            lhs, rhs = ref(inst.lhs), ref(inst.rhs)
            op = inst.op
            is_float = inst.type is FLOAT
            if op in _INFIX:
                expr = "%s %s %s" % (lhs, _INFIX[op], rhs)
            elif op == "shl":
                expr = "%s << (%s & 63)" % (lhs, rhs)
            elif op == "shr":
                expr = "%s >> (%s & 63)" % (lhs, rhs)
            elif op in ("min", "max"):
                expr = "%s(%s, %s)" % (op, lhs, rhs)
            elif op == "div":
                if is_float:
                    return "_fdiv(%s, %s)" % (lhs, rhs)
                needs.add("tid")
                expr = "_idiv(%s, %s, tid)" % (lhs, rhs)
            elif op == "mod":
                needs.add("tid")
                expr = "_imod(%s, %s, tid)" % (lhs, rhs)
            else:  # pragma: no cover - constructor rejects unknown ops
                raise SimulationError("unknown binop %s" % op)
            if inst.type is INT:
                return _WRAP % ("(%s)" % expr)
            if is_float:
                return "float(%s)" % expr
            return expr
        if isinstance(inst, Cmp):
            return "%s %s %s" % (ref(inst.lhs), _CMP_INFIX[inst.op],
                                 ref(inst.rhs))
        if isinstance(inst, UnaryOp):
            value = ref(inst.value)
            if inst.op == "neg":
                if inst.type is INT:
                    return _WRAP % ("(-%s)" % value)
                return "float(-%s)" % value
            return "not %s" % value
        if isinstance(inst, Cast):
            value = ref(inst.value)
            if inst.kind == "itof":
                return "float(%s)" % value
            if inst.kind == "ftoi":
                needs.add("tid")
                return "_ftoi(%s, tid)" % value
            return "(1 if %s else 0)" % value
        if isinstance(inst, LoadGlobal):
            needs.add("tid"), needs.add("mem")
            return "mem.read_scalar(%r, tid)" % inst.global_.name
        if isinstance(inst, LoadElem):
            needs.add("tid"), needs.add("mem")
            return "mem.read_elem(%r, %s, tid)" % (inst.array.name,
                                                   ref(inst.index))
        if isinstance(inst, GetTid):
            needs.add("tid")
            return "tid"
        raise SimulationError("no expr for %r" % inst)  # pragma: no cover

    def _stmt(self, inst: Instruction, local_names: Dict[Value, str],
              needs) -> List[str]:
        """Statement lines for a void fusible instruction."""
        ref = lambda v: self._ref(v, local_names)
        if isinstance(inst, StoreGlobal):
            needs.add("tid"), needs.add("mem")
            return ["mem.write_scalar(%r, %s, tid)"
                    % (inst.global_.name, ref(inst.value))]
        if isinstance(inst, StoreElem):
            needs.add("tid"), needs.add("mem")
            return ["mem.write_elem(%r, %s, %s, tid)"
                    % (inst.array.name, ref(inst.index), ref(inst.value))]
        if isinstance(inst, Output):
            return ["thread.outputs.append(%s)" % ref(inst.value)]
        if isinstance(inst, EnterLoop):
            return ["thread.loop_iters[%d] = -1" % inst.loop_id]
        if isinstance(inst, LoopTick):
            lid = inst.loop_id
            return ["_li = thread.loop_iters",
                    "_li[%d] = _li.get(%d, -1) + 1" % (lid, lid)]
        raise SimulationError("no stmt for %r" % inst)  # pragma: no cover

    # -- emitters ----------------------------------------------------------

    def emit_run(self, name: str, block: BasicBlock, start: int, end: int,
                 force_slots: bool) -> Tuple[Callable, int]:
        """Generate one unit function for instructions [start, end) of
        ``block``; returns (the function, static step count).

        The instructions are fusible ones, optionally followed by a
        *tail* from the end of the block: a ``SendBranchCondition``
        and/or the terminating ``Jump`` or ``Branch``.  Every ghost but
        the leading instruction's (which the quantum loop charges per
        kind) is folded into the unit's one cycle literal and its static
        step count.  With ``force_slots`` (the per-instruction *singles*
        variant) every result goes to its register slot.
        """
        plan = self.plan
        insts = block.instructions
        body: List[str] = []
        needs: set = set()
        local_names: Dict[Value, str] = {}
        ref = lambda v: self._ref(v, local_names)
        cycles = 0.0
        steps = 0
        keyed = False
        for pos in range(start, end):
            inst = insts[pos]
            if pos != start:
                ghost = getattr(inst, "ghost", None)
                if ghost is not None:
                    for kind in ghost[1]:
                        cycles += self.cost.ghost_kind_cost(kind,
                                                            self.nthreads)
                    steps += ghost[0]
            if isinstance(inst, (SendBranchCondition, Branch)):
                info = (inst.info if isinstance(inst, SendBranchCondition)
                        else inst.bw_info)
                if info is not None and not keyed:
                    # One runtime key for both messages: the call-site
                    # path plus each enclosing loop's iteration counter
                    # (-1 before the loop's first tick).
                    keyed = True
                    needs.add("tid")
                    loops = info.enclosing_loop_ids
                    if loops:
                        body.append("_li = thread.loop_iters")
                    body.append("key = (thread.callsite_key, (%s))" % "".join(
                        "_li.get(%d, -1), " % lid for lid in loops))
                    body += ["mon = machine.monitor", "q = mon.queues[tid]"]
                if isinstance(inst, SendBranchCondition):
                    cycles += self.send_cost
                    steps += 1
                    body += self._send(
                        "(S_%d, tid, key, (%s), False)"
                        % (info.static_id,
                           "".join(ref(v) + ", " for v in inst.operands)),
                        pos, "('send', msg)", cycles, steps)
                else:
                    cycles += self.cost.branch
                    steps += 1
                    cond = ref(inst.cond)
                    if not isinstance(inst.cond, Cmp):  # compares give bools
                        cond = "bool(%s)" % cond
                    body += self._branch_tail(inst, block, pos, info, cond,
                                              cycles, steps)
                continue
            if isinstance(inst, Jump):
                cycles += self.cost.jump
                steps += 1
                target = inst.target
                phis = target.phis()
                for n, phi in enumerate(phis):
                    body.append("t%d = %s" % (n, ref(phi.incoming_for(block))))
                for n, phi in enumerate(phis):
                    body.append("regs[%d] = t%d" % (plan.slot_of[phi], n))
                body += self._retarget(target)
                continue
            if inst.type is VOID:
                body.extend(self._stmt(inst, local_names, needs))
            else:
                expr = self._expr(inst, local_names, needs)
                slot = plan.slot_of[inst]
                if force_slots:
                    body.append("regs[%d] = %s" % (slot, expr))
                elif not inst.uses and inst not in plan.frozen:
                    # Dead value: evaluate for crash parity, discard.
                    body.append(expr)
                else:
                    escapes = self.plan.escapes(inst, block, start, end)
                    used_in_run = any(
                        plan.pos_of.get(user, (None, -1))[0] is block
                        and start <= plan.pos_of[user][1] < end
                        and not isinstance(user, Phi)
                        for user in inst.uses)
                    if used_in_run:
                        local = "v%d" % slot
                        body.append("%s = %s" % (local, expr))
                        local_names[inst] = local
                        if escapes:
                            body.append("regs[%d] = %s" % (slot, local))
                    else:
                        body.append("regs[%d] = %s" % (slot, expr))
            cycles += self._inst_cost(inst)
            steps += 1
        last = insts[end - 1]
        if not isinstance(last, (Jump, Branch)):
            body.append("frame.index = %d" % end)
        if cycles and not isinstance(last, Branch):
            body.append("thread.cycles += %r" % cycles)
        body.append("return %d" % steps)
        header = ["def %s(machine, thread, frame):" % name,
                  "    regs = frame.regs"]
        if "tid" in needs:
            header.append("    tid = thread.tid")
        if "mem" in needs:
            header.append("    mem = machine.memory")
        return self._define(name, "\n".join(header) + "\n"
                            + "\n".join("    " + line for line in body)
                            + "\n"), steps

    @staticmethod
    def _send(msg: str, pos: int, pending: str, cycles: float,
              steps: int) -> List[str]:
        """Lines appending ``msg`` to the thread's queue ``q`` while it
        has room, else through :meth:`Monitor.try_send` or a stall."""
        return ["msg = " + msg,
                "if len(q) < mon.capacity:",
                "    q.append(msg)",
                "elif not mon.try_send(tid, msg):",
                "    return _stall(machine, thread, frame, %d, %s, %r, %d)"
                % (pos, pending, cycles, steps)]

    def _branch_tail(self, branch: Branch, block: BasicBlock, pos: int,
                     info, cond: str, cycles: float, steps: int) -> List[str]:
        """Lines of a unit ending in ``branch``: count it, let the fault
        hook decide if this is a branch it asked for
        (``thread.hook_at``, see :meth:`FaultHook.call_at`), send the
        outcome message, charge the unit's cycles and transfer.
        Successor phis are copied by the ``e_*`` edge copies, which read
        register slots: that is where a condition fault's corruption
        lands.  A checked branch always runs with a monitor (the machine
        refuses an instrumented module without one)."""
        lines = ["thread.branch_count = bc = thread.branch_count + 1",
                 "at = thread.hook_at",
                 "if at == bc or at < 0:",
                 "    taken = machine.hook.before_branch(machine, thread, "
                 "I_%d_%d, frame, %s)"
                 % (self.fi, self.block_index[block], cond),
                 "else:",
                 "    taken = %s" % cond]
        if info is not None:
            then_b, else_b = (self.block_index[branch.then_block],
                              self.block_index[branch.else_block])
            cycles += self.send_cost
            lines += self._send(
                "(S_%d, tid, key, taken, True)" % info.static_id, pos,
                "('branch', msg, B_%d_%d if taken else B_%d_%d)"
                % (self.fi, then_b, self.fi, else_b), cycles, steps)
        lines.append("thread.cycles += %r" % cycles)
        for test, target in (("if taken:", branch.then_block),
                             ("else:", branch.else_block)):
            lines.append(test)
            copy = self.edge_names.get((target, block))
            if copy is not None:
                lines.append("    %s(regs)" % copy)
            lines += ["    " + line for line in self._retarget(target)]
        return lines

    def _retarget(self, target: BasicBlock) -> List[str]:
        """Lines moving the frame to ``target``, past its phis."""
        ti = self.block_index[target]
        return ["frame.block = B_%d_%d" % (self.fi, ti),
                "frame.cblock = C_%d_%d" % (self.fi, ti),
                "frame.index = %d" % len(target.phis())]

    def emit_segments(self, fi: int, bi: int, block: BasicBlock,
                      start: int, end: int
                      ) -> Dict[int, List[Tuple[int, Callable]]]:
        """Compile fused segments covering the run [start, end).

        One full-run segment (when short enough to ever fit a quantum),
        plus power-of-two-sized segments aligned to the run start, so
        the quantum loop can cover any remaining budget mostly with
        large chunks.  The segments that end at the run's end also run
        the tail that follows it (see :meth:`emit_run`).  Returns
        {position: [(steps, fn), ...]}.
        """
        segments: Dict[int, List[Tuple[int, Callable]]] = {}
        n = end - start
        insts = block.instructions
        stop = end
        if stop < len(insts) and isinstance(insts[stop], SendBranchCondition):
            stop += 1
        if stop < len(insts) and isinstance(insts[stop], (Jump, Branch)):
            stop += 1
        if n <= 64:
            fn, steps = self.emit_run("g_%d_%d_%d_%d" % (fi, bi, start, n),
                                      block, start, stop, force_slots=False)
            segments.setdefault(start, []).append((steps, fn))
        size = 1
        while size * 2 <= min(n, 32):
            size *= 2
            if size == n and n <= 64:
                continue  # already emitted as the full-run segment
            for offset in range(0, n - size + 1, size):
                position = start + offset
                fn, steps = self.emit_run(
                    "g_%d_%d_%d_%d" % (fi, bi, position, size),
                    block, position,
                    stop if offset + size == n else position + size,
                    force_slots=False)
                segments.setdefault(position, []).append((steps, fn))
        return segments

    def emit_edge_copies(self, cfunc: CompiledFunction) -> None:
        """Parallel phi-copies, one per CFG edge into a block with phis,
        installed on ``cfunc``'s blocks."""
        plan = self.plan
        for target, pred, name in _edges(self.fi, self.function):
            reads: List[str] = []
            writes: List[str] = []
            for n, phi in enumerate(target.phis()):
                source = phi.incoming_for(pred)
                reads.append("t%d = %s" % (n, self._ref(source, {})))
                writes.append("regs[%d] = t%d" % (plan.slot_of[phi], n))
            cfunc.blocks[target].edge_copy[pred] = self._define(
                name, "def %s(regs):\n" % name
                + "\n".join("    " + line for line in reads + writes)
                + "\n")



# ---------------------------------------------------------------------------
# Generic units (calls, returns, locks, barriers) — hand-built closures
# ---------------------------------------------------------------------------


def _reader(value: Value, slot_of: Dict[Value, int],
            func_index: Dict[str, int]):
    """A regs -> value callable for one operand of a generic unit."""
    if isinstance(value, Constant):
        const = value.value
        return lambda regs: const
    if isinstance(value, FunctionRef):
        index = func_index[value.function_name]
        return lambda regs: index
    slot = slot_of[value]
    return lambda regs: regs[slot]


def _make_generic(program: CompiledProgram, cfunc: CompiledFunction,
                  inst: Instruction, position: int,
                  func_index: Dict[str, int]) -> Callable:
    slot_of = cfunc.slot_of
    next_index = position + 1

    if isinstance(inst, Ret):
        value_read = (None if inst.value is None
                      else _reader(inst.value, slot_of, func_index))

        def ret_unit(machine, thread, frame):
            value = None if value_read is None else value_read(frame.regs)
            frames = thread.frames
            frames.pop()
            thread.cycles += machine.cost.call
            if not frames:
                thread.status = _DONE
                return 1
            caller = frames[-1]
            call_inst = frame.call_inst
            if call_inst is not None:
                if thread.callsite_key:
                    thread.callsite_key = thread.callsite_key[:-1]
                slot = caller.cfunc.slot_of.get(call_inst)
                if value is not None:
                    if slot is not None:
                        caller.regs[slot] = value
                elif call_inst.type.is_scalar:
                    caller.regs[slot] = 0  # void callee, wild indirect call
            caller.index += 1
            return 1

        return ret_unit

    if isinstance(inst, Call):
        readers = [_reader(a, slot_of, func_index) for a in inst.operands]
        callee_cf = program.by_function[inst.callee]

        def call_unit(machine, thread, frame, _inst=inst):
            regs = frame.regs
            args = tuple(read(regs) for read in readers)
            thread.callsite_key = thread.callsite_key + (_inst.callsite_id,)
            if len(thread.frames) >= 200:
                raise GuestCrash("call stack overflow", thread.tid)
            thread.frames.append(callee_cf.make_frame(args, call_inst=_inst))
            thread.cycles += machine.cost.call
            return 1

        return call_unit

    if isinstance(inst, CallIndirect):
        target_read = _reader(inst.target, slot_of, func_index)
        readers = [_reader(a, slot_of, func_index) for a in inst.args]

        def callptr_unit(machine, thread, frame, _inst=inst):
            regs = frame.regs
            target = target_read(regs)
            callee = (machine.module.function_at(target)
                      if isinstance(target, int) else None)
            if callee is None:
                raise GuestCrash(
                    "indirect call through invalid pointer %r" % (target,),
                    thread.tid)
            args = tuple(read(regs) for read in readers)
            if len(args) != len(callee.params):
                raise GuestCrash(
                    "wild indirect call: %s expects %d args, got %d"
                    % (callee.name, len(callee.params), len(args)),
                    thread.tid)
            coerced = []
            for param, arg in zip(callee.params, args):
                if param.type is FLOAT and isinstance(arg, int):
                    arg = float(arg)
                elif param.type is INT and isinstance(arg, float):
                    raise GuestCrash(
                        "wild indirect call: float passed to int "
                        "parameter of %s" % callee.name, thread.tid)
                coerced.append(arg)
            thread.callsite_key = thread.callsite_key + (_inst.callsite_id,)
            if len(thread.frames) >= 200:
                raise GuestCrash("call stack overflow", thread.tid)
            thread.frames.append(
                program.by_function[callee].make_frame(tuple(coerced),
                                                       call_inst=_inst))
            thread.cycles += machine.cost.call
            return 1

        return callptr_unit

    if isinstance(inst, LockAcquire):
        name = inst.lock.name

        def lock_unit(machine, thread, frame):
            mutex = machine.mutexes[name]
            if mutex.owner == thread.tid:
                # Re-acquisition after being woken by the releaser.
                frame.index = next_index
                return 1
            if mutex.try_acquire(thread.tid):
                thread.cycles = max(
                    thread.cycles + machine.cost.lock_base,
                    mutex.last_release + machine.cost.lock_transfer)
                frame.index = next_index
            else:
                thread.status = _BLOCKED_LOCK
            return 1

        return lock_unit

    if isinstance(inst, LockRelease):
        name = inst.lock.name

        def unlock_unit(machine, thread, frame):
            mutex = machine.mutexes[name]
            if mutex.owner != thread.tid:
                raise GuestCrash("unlock of @%s not held by thread"
                                 % mutex.name, thread.tid)
            woken_tid = mutex.release(thread.tid, thread.cycles)
            thread.cycles += machine.cost.lock_base
            frame.index = next_index
            if woken_tid is not None:
                woken = machine.threads[woken_tid]
                woken.status = _RUNNABLE
                handoff = mutex.last_release + machine.cost.lock_transfer
                if handoff > woken.cycles:
                    machine.sync_wait_cycles += handoff - woken.cycles
                    woken.sync_wait += handoff - woken.cycles
                    woken.cycles = handoff
                woken.frames[-1].index += 1  # past its LockAcquire
            return 1

        return unlock_unit

    if isinstance(inst, BarrierWait):
        name = inst.barrier.name

        def barrier_unit(machine, thread, frame):
            barrier = machine.barriers[name]
            frame.index = next_index  # resume after the barrier
            if barrier.arrive(thread.tid, thread.cycles):
                participants = list(barrier.arrived.keys())
                release_at = barrier.release() + machine._barrier_cost
                for tid in participants:
                    other = machine.threads[tid]
                    if release_at > other.cycles:
                        machine.sync_wait_cycles += release_at - other.cycles
                        other.sync_wait += release_at - other.cycles
                        other.cycles = release_at
                    if other is not thread:
                        other.status = _RUNNABLE
            else:
                thread.status = _BLOCKED_BARRIER
            return 1

        return barrier_unit

    raise SimulationError("no generic unit for %r" % inst)  # pragma: no cover


# ---------------------------------------------------------------------------
# Module compilation
# ---------------------------------------------------------------------------


def _edges(fi: int, function: Function) -> List[Tuple[BasicBlock,
                                                     BasicBlock, str]]:
    """(target, predecessor, edge-copy name) of every CFG edge into a
    block with phis."""
    return [(block, pred, "e_%d_%d_%d" % (fi, bi, pi))
            for bi, block in enumerate(function.blocks) if block.phis()
            for pi, pred in enumerate(block.predecessors())]


def compile_module(module: Module, cost: Optional[CostModel] = None,
                   nthreads: int = 1) -> CompiledProgram:
    """Compile every function of ``module`` to block closures."""
    from repro.opt.legality import compute_frozen  # lazy: avoid import cycle

    if cost is None:
        cost = CostModel()
    program = CompiledProgram()
    if module.bw_metadata is not None:
        program.sites = check_sites(module.bw_metadata)
    site_names = {"S_%d" % sid: site for sid, site in program.sites.items()}
    func_index = {f.name: i for i, f in enumerate(module.function_table)}
    plans: Dict[str, _Plan] = {}

    # Phase 1: plan + shells (blocks must exist before units prebind).
    for function in module.function_table:
        plan = _Plan(function, compute_frozen(function))
        plans[function.name] = plan
        cfunc = CompiledFunction(function)
        cfunc.slot_of = plan.slot_of
        cfunc.nslots = plan.nslots
        cfunc.param_slots = plan.param_slots
        for block in function.blocks:
            nphis = sum(1 for _ in block.phis())
            cfunc.blocks[block] = CompiledBlock(block, nphis)
        program.by_name[function.name] = cfunc
        program.by_function[function] = cfunc

    # Phase 2, per function: generate and exec the units, filling the
    # dispatch and singles tables as they come.
    for fi, function in enumerate(module.function_table):
        cfunc = program.by_name[function.name]
        gen = _FunctionCodegen(fi, function, plans[function.name], cost,
                               nthreads, func_index)
        # Generated units retarget frames, call the fault hook and send
        # to check sites through these globals (the block shells exist
        # since phase 1).
        namespace = gen.namespace
        for ti, tblock in enumerate(function.blocks):
            namespace["B_%d_%d" % (fi, ti)] = tblock
            namespace["C_%d_%d" % (fi, ti)] = cfunc.blocks[tblock]
            if isinstance(tblock.terminator, Branch):
                namespace["I_%d_%d" % (fi, ti)] = tblock.terminator
        namespace.update(site_names)
        gen.emit_edge_copies(cfunc)

        for bi, block in enumerate(function.blocks):
            cblock = cfunc.blocks[block]
            insts = block.instructions
            cblock.dispatch = [None] * len(insts)
            cblock.singles = [None] * len(insts)
            for start, end, kind in gen.plan.units[block]:
                seg_map = (gen.emit_segments(fi, bi, block, start, end)
                           if kind == "fused" else {})
                for pos in range(start, end):
                    inst = insts[pos]
                    name = "s_%d_%d_%d" % (fi, bi, pos)
                    if kind == "generic":
                        single = _make_generic(program, cfunc, inst, pos,
                                               func_index)
                    else:
                        single = gen.emit_run(name, block, pos, pos + 1,
                                              force_slots=True)[0]
                    if kind == "fused":
                        # Larger segments have strictly larger step
                        # counts, so a descending sort is unambiguous.
                        segments = tuple(sorted(seg_map.get(pos, ()),
                                                key=lambda seg: seg[0],
                                                reverse=True))
                    else:
                        segments = ((1, single),)
                    ghost = getattr(inst, "ghost", None)
                    gcosts = (tuple(cost.ghost_kind_cost(kind_, nthreads)
                                    for kind_ in ghost[1])
                              if ghost is not None else ())
                    cblock.dispatch[pos] = (segments, gcosts)
                    cblock.singles[pos] = single
    return program


class _CompileCache:
    """The per-module compile caches, as one handle.

    Each module keeps its own cache (``Module.closure_cache``: cost
    tuple and thread count -> :class:`CompiledProgram`), so the compiled
    code lives and dies with its module.  Compiled code refers back to
    the module through its functions and blocks, so a weak-keyed map
    holding it would keep every module alive forever.  :meth:`clear`
    empties every live module's cache, forcing the next compile to be
    cold.
    """

    def __init__(self):
        self._modules: "weakref.WeakSet[Module]" = weakref.WeakSet()

    def of(self, module: Module) -> Dict:
        self._modules.add(module)
        return module.closure_cache

    def clear(self) -> None:
        for module in list(self._modules):
            module.closure_cache.clear()
        self._modules.clear()


_COMPILE_CACHE = _CompileCache()


def get_compiled(module: Module, cost: Optional[CostModel] = None,
                 nthreads: int = 1) -> CompiledProgram:
    """compile_module, memoized on the module itself, keyed on (cost
    tuple, nthreads)."""
    if cost is None:
        cost = CostModel()
    per_module = _COMPILE_CACHE.of(module)
    key = (astuple(cost), nthreads)
    compiled = per_module.get(key)
    if compiled is None:
        compiled = per_module[key] = compile_module(module, cost, nthreads)
    return compiled
