"""Instruction set of the repro IR.

The IR is a conventional SSA register machine:

* every instruction that produces a value *is* that SSA register;
* globals are memory, accessed via explicit load/store instructions;
* control flow is explicit — every basic block ends in exactly one
  terminator (:class:`Branch`, :class:`Jump`, or :class:`Ret`);
* :class:`Phi` nodes merge values at control-flow joins.

This is deliberately close to LLVM IR, which is what the original
BLOCKWATCH passes operated on: the similarity-inference algorithm of the
paper (Figure 3) walks exactly these operand edges, and the instrumentation
pass attaches its metadata to :class:`Branch` instructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.ir.types import BOOL, INT, VOID, Type, common_numeric
from repro.ir.values import GlobalVariable, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock
    from repro.ir.function import Function

# Binary opcodes.  SHL/SHR and the bitwise group operate on ints only.
BINARY_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "min", "max")
INT_ONLY_BINARY_OPS = ("mod", "and", "or", "xor", "shl", "shr")

# Comparison opcodes; all produce BOOL.
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

# Opcodes whose truth value is monotone in the left operand; used by the
# threadID runtime check for ordered comparisons against a shared bound.
ORDERED_CMP_OPS = ("lt", "le", "gt", "ge")

UNARY_OPS = ("neg", "not")


class Instruction(Value):
    """Base class: an SSA register defined by one program point."""

    __slots__ = ("operands", "parent", "vid", "ghost")

    opcode = "?"

    def __init__(self, type_: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(type_, name)
        self.operands: List[Value] = []
        #: The basic block containing this instruction (set on insertion).
        self.parent: Optional["BasicBlock"] = None
        #: Dense numbering within the function, assigned by the printer
        #: and verifier for readable dumps; not semantically meaningful.
        self.vid: int = -1
        #: Trace-preservation baggage attached by the optimizer: ``None``,
        #: or ``(steps, kinds)`` accounting for instructions that were
        #: deleted immediately before this one.  The runtime replays their
        #: step count and cycle cost (resolved from ``kinds`` against the
        #: active cost model) so optimized and unoptimized runs report
        #: identical step totals and cycle clocks.  Read with
        #: ``getattr(inst, "ghost", None)`` — programs unpickled from
        #: stores written before this field existed lack the slot.
        self.ghost = None
        for op in operands:
            self._append_operand(op)

    # -- operand bookkeeping -------------------------------------------------

    def _append_operand(self, value: Value) -> None:
        self.operands.append(value)
        value.add_use(self)

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand ``index``, maintaining use lists."""
        old = self.operands[index]
        old.remove_use(self)
        self.operands[index] = value
        value.add_use(self)

    def replace_uses_of(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.set_operand(i, new)

    def drop_operands(self) -> None:
        """Detach this instruction from its operands' use lists."""
        for op in self.operands:
            op.remove_use(self)
        self.operands = []

    # -- queries -------------------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, Terminator)

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    def short(self) -> str:
        if self.name:
            # Suffix the vid so re-reads of the same source variable (which
            # share a name) stay distinguishable in dumps.
            return "%%%s.%d" % (self.name, self.vid) if self.vid >= 0 else "%%%s" % self.name
        return "%%v%d" % self.vid if self.vid >= 0 else "%%<%x>" % id(self)

    def __repr__(self) -> str:
        ops = ", ".join(op.short() for op in self.operands)
        lhs = "" if self.type is VOID else "%s: %s = " % (self.short(), self.type)
        return "%s%s %s" % (lhs, self.opcode, ops)


class Terminator(Instruction):
    """Base class for block terminators."""

    __slots__ = ()

    def successors(self) -> Tuple["BasicBlock", ...]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Arithmetic and comparisons
# ---------------------------------------------------------------------------


class BinOp(Instruction):
    """``result = lhs <op> rhs`` for ``op`` in :data:`BINARY_OPS`."""

    __slots__ = ("op",)

    opcode = "binop"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError("unknown binary op %r" % op)
        if op in ("and", "or", "xor") and lhs.type is BOOL and rhs.type is BOOL:
            # Logical form: MiniC's && / || / != on booleans.  Evaluation is
            # strict (no short-circuit control flow), which keeps the CFG —
            # and therefore the branch census of Tables IV/V — honest.
            result = BOOL
        else:
            result = common_numeric(lhs.type, rhs.type)
            if result is None:
                raise TypeError(
                    "binop %s on non-numeric types %s, %s" % (op, lhs.type, rhs.type))
            if op in INT_ONLY_BINARY_OPS and result is not INT:
                raise TypeError("binop %s requires int operands" % op)
        super().__init__(result, (lhs, rhs), name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return "%s: %s = %s %s, %s" % (
            self.short(), self.type, self.op, self.lhs.short(), self.rhs.short())


class UnaryOp(Instruction):
    """``neg`` (numeric) or ``not`` (bool)."""

    __slots__ = ("op",)

    opcode = "unop"

    def __init__(self, op: str, value: Value, name: str = ""):
        if op not in UNARY_OPS:
            raise ValueError("unknown unary op %r" % op)
        if op == "not":
            if value.type is not BOOL:
                raise TypeError("'not' requires a bool operand, got %s" % value.type)
            result = BOOL
        else:
            if not value.type.is_numeric:
                raise TypeError("'neg' requires a numeric operand, got %s" % value.type)
            result = value.type
        super().__init__(result, (value,), name)
        self.op = op

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return "%s: %s = %s %s" % (self.short(), self.type, self.op, self.value.short())


class Cmp(Instruction):
    """``result: bool = lhs <relop> rhs``.

    Comparisons are the producers of branch conditions, so the similarity
    analysis pays special attention to them: the *operands* of the Cmp that
    feeds a branch are what ``sendBranchCondition`` ships to the monitor.
    """

    __slots__ = ("op",)

    opcode = "cmp"

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in CMP_OPS:
            raise ValueError("unknown comparison %r" % op)
        if common_numeric(lhs.type, rhs.type) is None and not (
                lhs.type is BOOL and rhs.type is BOOL):
            raise TypeError("cmp %s on incompatible types %s, %s" % (op, lhs.type, rhs.type))
        super().__init__(BOOL, (lhs, rhs), name)
        self.op = op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return "%s: bool = cmp.%s %s, %s" % (
            self.short(), self.op, self.lhs.short(), self.rhs.short())


class Cast(Instruction):
    """Conversions: ``itof`` (int→float), ``ftoi`` (float→int, truncating),
    ``btoi`` (bool→0/1)."""

    __slots__ = ("kind",)

    opcode = "cast"

    def __init__(self, kind: str, value: Value, name: str = ""):
        from repro.ir.types import FLOAT
        if kind == "itof":
            result = FLOAT
        elif kind in ("ftoi", "btoi"):
            result = INT
        else:
            raise ValueError("unknown cast kind %r" % kind)
        super().__init__(result, (value,), name)
        self.kind = kind

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return "%s: %s = %s %s" % (self.short(), self.type, self.kind, self.value.short())


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


class LoadGlobal(Instruction):
    """Read a scalar global from shared memory."""

    __slots__ = ()

    opcode = "load"

    def __init__(self, global_: GlobalVariable, name: str = ""):
        if not global_.type.is_scalar:
            raise TypeError("load of non-scalar global @%s" % global_.name)
        super().__init__(global_.type, (global_,), name)

    @property
    def global_(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "%s: %s = load %s" % (self.short(), self.type, self.global_.short())


class StoreGlobal(Instruction):
    """Write a scalar global in shared memory."""

    __slots__ = ()

    opcode = "store"

    def __init__(self, global_: GlobalVariable, value: Value):
        if not global_.type.is_scalar:
            raise TypeError("store to non-scalar global @%s" % global_.name)
        super().__init__(VOID, (global_, value))

    @property
    def global_(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    @property
    def value(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return "store %s, %s" % (self.global_.short(), self.value.short())


class LoadElem(Instruction):
    """Read ``array[index]`` from a global array."""

    __slots__ = ()

    opcode = "loadelem"

    def __init__(self, array: GlobalVariable, index: Value, name: str = ""):
        from repro.ir.types import ArrayType
        if not isinstance(array.type, ArrayType):
            raise TypeError("loadelem from non-array global @%s" % array.name)
        if index.type is not INT:
            raise TypeError("array index must be int, got %s" % index.type)
        super().__init__(array.type.element, (array, index), name)

    @property
    def array(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    @property
    def index(self) -> Value:
        return self.operands[1]

    def __repr__(self) -> str:
        return "%s: %s = loadelem %s[%s]" % (
            self.short(), self.type, self.array.short(), self.index.short())


class StoreElem(Instruction):
    """Write ``array[index] = value`` to a global array."""

    __slots__ = ()

    opcode = "storeelem"

    def __init__(self, array: GlobalVariable, index: Value, value: Value):
        from repro.ir.types import ArrayType
        if not isinstance(array.type, ArrayType):
            raise TypeError("storeelem to non-array global @%s" % array.name)
        if index.type is not INT:
            raise TypeError("array index must be int, got %s" % index.type)
        super().__init__(VOID, (array, index, value))

    @property
    def array(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def value(self) -> Value:
        return self.operands[2]

    def __repr__(self) -> str:
        return "storeelem %s[%s], %s" % (
            self.array.short(), self.index.short(), self.value.short())


# ---------------------------------------------------------------------------
# SSA merge
# ---------------------------------------------------------------------------


class Phi(Instruction):
    """SSA phi node: selects a value according to the predecessor taken.

    Incoming edges are stored parallel to ``operands``: ``blocks[i]`` is the
    predecessor block that contributes ``operands[i]``.
    """

    __slots__ = ("blocks",)

    opcode = "phi"

    def __init__(self, type_: Type, name: str = ""):
        super().__init__(type_, (), name)
        self.blocks: List["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self._append_operand(value)
        self.blocks.append(block)

    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.blocks))

    def incoming_for(self, block: "BasicBlock") -> Value:
        for value, pred in zip(self.operands, self.blocks):
            if pred is block:
                return value
        raise KeyError("phi %s has no incoming edge from %s" % (self.short(), block.name))

    def remove_incoming(self, index: int) -> None:
        self.operands[index].remove_use(self)
        del self.operands[index]
        del self.blocks[index]

    def __repr__(self) -> str:
        pairs = ", ".join(
            "[%s, %s]" % (v.short(), b.name) for v, b in zip(self.operands, self.blocks))
        return "%s: %s = phi %s" % (self.short(), self.type, pairs)


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class Branch(Terminator):
    """Two-way conditional branch — the object of the whole exercise.

    ``bw_info`` is attached by the instrumentation pass
    (:mod:`repro.instrument.pass_`) and carries everything the runtime needs
    to report this branch to the monitor: the static branch id, the
    similarity category, the values to ship with ``sendBranchCondition``,
    and the ids of the enclosing loops (for the runtime part of the hash
    key).  ``None`` means the branch is not checked.
    """

    # successors are intentionally not operands: they are blocks, not values
    __slots__ = ("bw_info", "_then", "_else")

    opcode = "br"

    def __init__(self, cond: Value, then_block: "BasicBlock", else_block: "BasicBlock"):
        if cond.type is not BOOL:
            raise TypeError("branch condition must be bool, got %s" % cond.type)
        super().__init__(VOID, (cond,))
        self._then = then_block
        self._else = else_block
        self.bw_info = None

    @property
    def cond(self) -> Value:
        return self.operands[0]

    @property
    def then_block(self) -> "BasicBlock":
        return self._then

    @property
    def else_block(self) -> "BasicBlock":
        return self._else

    def successors(self) -> Tuple["BasicBlock", ...]:
        return (self._then, self._else)

    def __repr__(self) -> str:
        tag = " !bw" if self.bw_info is not None else ""
        return "br %s, %s, %s%s" % (self.cond.short(), self._then.name, self._else.name, tag)


class Jump(Terminator):
    """Unconditional jump."""

    __slots__ = ("_target",)

    opcode = "jmp"

    def __init__(self, target: "BasicBlock"):
        super().__init__(VOID, ())
        self._target = target

    @property
    def target(self) -> "BasicBlock":
        return self._target

    def successors(self) -> Tuple["BasicBlock", ...]:
        return (self._target,)

    def __repr__(self) -> str:
        return "jmp %s" % self._target.name


class Ret(Terminator):
    """Return from the current function, optionally with a value."""

    __slots__ = ()

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, (value,) if value is not None else ())

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> Tuple["BasicBlock", ...]:
        return ()

    def __repr__(self) -> str:
        return "ret %s" % self.value.short() if self.operands else "ret"


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


class Call(Instruction):
    """Direct call.  ``callsite_id`` is assigned by the instrumentation pass
    and becomes part of the runtime hash-table key (paper Section III-B)."""

    __slots__ = ("callee", "callsite_id")

    opcode = "call"

    def __init__(self, callee: "Function", args: Sequence[Value], name: str = ""):
        expected = [p.type for p in callee.params]
        got = [a.type for a in args]
        if expected != got:
            raise TypeError(
                "call to %s expects %s, got %s" % (callee.name, expected, got))
        super().__init__(callee.return_type, args, name)
        self.callee = callee
        self.callsite_id: int = -1

    def __repr__(self) -> str:
        args = ", ".join(a.short() for a in self.operands)
        lhs = "" if self.type is VOID else "%s: %s = " % (self.short(), self.type)
        site = "" if self.callsite_id < 0 else " !site=%d" % self.callsite_id
        return "%scall %s(%s)%s" % (lhs, self.callee.name, args, site)


class CallIndirect(Instruction):
    """Call through a function-pointer value (index into the module's
    function table).  This is what raytrace uses, mirroring the paper's
    observation that function pointers defeat cross-thread comparison."""

    __slots__ = ("callsite_id",)

    opcode = "callptr"

    def __init__(self, target: Value, args: Sequence[Value], return_type: Type, name: str = ""):
        if target.type is not INT:
            raise TypeError("indirect call target must be int, got %s" % target.type)
        super().__init__(return_type, [target] + list(args), name)
        self.callsite_id = -1

    @property
    def target(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    def __repr__(self) -> str:
        args = ", ".join(a.short() for a in self.args)
        lhs = "" if self.type is VOID else "%s: %s = " % (self.short(), self.type)
        return "%scallptr %s(%s)" % (lhs, self.target.short(), args)


# ---------------------------------------------------------------------------
# Intrinsics
# ---------------------------------------------------------------------------


class Intrinsic(Instruction):
    """Base class for operations the machine implements natively."""

    __slots__ = ()


class GetTid(Intrinsic):
    """Returns the calling simulated thread's id (0-based).

    This is the canonical *threadID source* of the similarity analysis;
    the thread-id idiom detector (:mod:`repro.analysis.threadid_patterns`)
    additionally recognizes the classic ``procid = id++`` under a lock.
    """

    __slots__ = ()

    opcode = "gettid"

    def __init__(self, name: str = ""):
        super().__init__(INT, (), name)

    def __repr__(self) -> str:
        return "%s: int = gettid" % self.short()


class Output(Intrinsic):
    """Append a value to the calling thread's output stream.

    Per-thread streams keep golden-output comparison deterministic under
    arbitrary schedules (outputs of different threads never interleave).
    """

    __slots__ = ()

    opcode = "output"

    def __init__(self, value: Value):
        super().__init__(VOID, (value,))

    @property
    def value(self) -> Value:
        return self.operands[0]

    def __repr__(self) -> str:
        return "output %s" % self.value.short()


class LockAcquire(Intrinsic):
    __slots__ = ()

    opcode = "lock"

    def __init__(self, lock: GlobalVariable):
        from repro.ir.types import LOCK
        if lock.type is not LOCK:
            raise TypeError("lock() on non-lock global @%s" % lock.name)
        super().__init__(VOID, (lock,))

    @property
    def lock(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "lock %s" % self.lock.short()


class LockRelease(Intrinsic):
    __slots__ = ()

    opcode = "unlock"

    def __init__(self, lock: GlobalVariable):
        from repro.ir.types import LOCK
        if lock.type is not LOCK:
            raise TypeError("unlock() on non-lock global @%s" % lock.name)
        super().__init__(VOID, (lock,))

    @property
    def lock(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "unlock %s" % self.lock.short()


class BarrierWait(Intrinsic):
    """Block until all worker threads arrive; also the monitor's epoch edge."""

    __slots__ = ()

    opcode = "barrier"

    def __init__(self, barrier: GlobalVariable):
        from repro.ir.types import BARRIER
        if barrier.type is not BARRIER:
            raise TypeError("barrier() on non-barrier global @%s" % barrier.name)
        super().__init__(VOID, (barrier,))

    @property
    def barrier(self) -> GlobalVariable:
        return self.operands[0]  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "barrier %s" % self.barrier.short()


# ---------------------------------------------------------------------------
# Instrumentation intrinsics (inserted by repro.instrument)
# ---------------------------------------------------------------------------


class SendBranchCondition(Intrinsic):
    """``sendBranchCondition`` of the paper (Figure 5).

    Ships the branch's static id, the condition operand values, and the
    runtime identifiers (call-site stack + outer-loop iteration counters,
    maintained natively by the machine) to the calling thread's
    front-end queue.  Inserted immediately before the checked branch.
    """

    __slots__ = ("static_id", "info")

    opcode = "send_cond"

    def __init__(self, static_id: int, values: Sequence[Value]):
        super().__init__(VOID, values)
        self.static_id = static_id
        #: CheckedBranchInfo attached by the instrumentation pass.
        self.info = None

    def __repr__(self) -> str:
        vals = ", ".join(v.short() for v in self.operands)
        return "send_cond #%d [%s]" % (self.static_id, vals)


class EnterLoop(Intrinsic):
    """Reset the iteration counter of loop ``loop_id`` (preheader)."""

    __slots__ = ("loop_id",)

    opcode = "enter_loop"

    def __init__(self, loop_id: int):
        super().__init__(VOID, ())
        self.loop_id = loop_id

    def __repr__(self) -> str:
        return "enter_loop #%d" % self.loop_id


class LoopTick(Intrinsic):
    """Advance the iteration counter of loop ``loop_id`` (loop header)."""

    __slots__ = ("loop_id",)

    opcode = "loop_tick"

    def __init__(self, loop_id: int):
        super().__init__(VOID, ())
        self.loop_id = loop_id

    def __repr__(self) -> str:
        return "loop_tick #%d" % self.loop_id
