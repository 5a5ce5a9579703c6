"""Value classes for the repro IR.

A :class:`Value` is anything an instruction can use as an operand:

* :class:`Constant` — an immediate int/float/bool.
* :class:`GlobalVariable` — a named shared-memory location (scalar, array,
  lock, or barrier).  Globals are *memory*, not SSA registers: they are read
  and written through explicit load/store instructions.
* :class:`Argument` — a formal parameter of a function.
* :class:`Instruction` (defined in :mod:`repro.ir.instructions`) — the SSA
  register produced by an instruction.
* :class:`FunctionRef` — the address of a function, usable as a
  first-class value for indirect calls (this is what lets the raytrace
  kernel reproduce the paper's function-pointer behaviour).

Use lists are maintained eagerly so passes can walk def-use chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.ir.types import BOOL, FLOAT, INT, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.ir.function import Function
    from repro.ir.instructions import Instruction


class Value:
    """Base class of every IR operand."""

    __slots__ = ("type", "name", "uses")

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        #: Instructions that use this value as an operand.
        self.uses: List["Instruction"] = []

    def short(self) -> str:
        """Compact printable form used inside instruction listings."""
        return "%%%s" % self.name if self.name else repr(self)

    def add_use(self, user: "Instruction") -> None:
        self.uses.append(user)

    def remove_use(self, user: "Instruction") -> None:
        # A user may reference the same value through several operand slots;
        # remove a single bookkeeping entry per call.
        self.uses.remove(user)


class Constant(Value):
    """An immediate constant.  Constants are shared across all threads."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, float, bool], type_: Optional[Type] = None):
        if type_ is None:
            if isinstance(value, bool):
                type_ = BOOL
            elif isinstance(value, int):
                type_ = INT
            elif isinstance(value, float):
                type_ = FLOAT
            else:
                raise TypeError("unsupported constant %r" % (value,))
        super().__init__(type_, "")
        self.value = value

    def short(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return "Constant(%r: %s)" % (self.value, self.type)


class GlobalVariable(Value):
    """A named global shared among all simulated threads.

    ``initializer`` is the host-visible initial value: a scalar for scalar
    globals, a list for arrays, ``None`` for sync objects (locks start
    unlocked; barriers are parameterized by the runtime's thread count).
    """

    __slots__ = ("initializer",)

    def __init__(self, name: str, type_: Type, initializer=None):
        super().__init__(type_, name)
        self.initializer = initializer

    def short(self) -> str:
        return "@%s" % self.name

    def __repr__(self) -> str:
        return "GlobalVariable(@%s: %s)" % (self.name, self.type)


class Argument(Value):
    """A formal parameter of a :class:`~repro.ir.function.Function`."""

    __slots__ = ("function", "index")

    def __init__(self, name: str, type_: Type, index: int):
        super().__init__(type_, name)
        self.function: Optional["Function"] = None
        self.index = index

    def __repr__(self) -> str:
        return "Argument(%%%s: %s)" % (self.name, self.type)


class FunctionRef(Value):
    """The address of a function as a first-class (int-typed) value.

    The runtime models function pointers as indices into the module's
    function table, so a ``FunctionRef`` has integer type and single-bit
    faults on it naturally produce wild indirect calls (guest crashes).
    """

    __slots__ = ("function_name",)

    def __init__(self, function_name: str):
        super().__init__(INT, "")
        self.function_name = function_name

    def short(self) -> str:
        return "&%s" % self.function_name

    def __repr__(self) -> str:
        return "FunctionRef(&%s)" % self.function_name


TRUE = Constant(True)
FALSE = Constant(False)
