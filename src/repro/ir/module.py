"""Modules: the top-level IR container (globals + functions)."""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.types import Type
from repro.ir.values import GlobalVariable


class Module:
    """A compiled program: global variables plus a set of functions.

    The *function table* gives every function a stable integer index; that
    index is the runtime representation of a function pointer
    (:class:`repro.ir.values.FunctionRef`), so indirect calls dispatch by
    table lookup exactly like a jump table in machine code.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        #: Ordered function table for indirect calls; parallel to insertion.
        self.function_table: List[Function] = []
        #: Set by the instrumentation pass: metadata the runtime monitor
        #: needs (branch registry, queue config...).  ``None`` until then.
        self.bw_metadata = None
        #: This module compiled to block closures, per (cost model,
        #: thread count) — see :func:`repro.runtime.closures.get_compiled`.
        #: Process-local: left out of the pickled state.
        self.closure_cache: Dict = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state["closure_cache"] = {}
        return state

    def copy(self, name: str) -> "Module":
        """An independent copy of this module named ``name``, made by the
        pickle round trip the artifact store stores modules with (faster
        than ``copy.deepcopy`` on the IR's object graph)."""
        clone = pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))
        clone.name = name
        return clone

    # -- globals ---------------------------------------------------------

    def add_global(self, name: str, type_: Type, initializer=None) -> GlobalVariable:
        if name in self.globals:
            raise IRError("duplicate global @%s" % name)
        g = GlobalVariable(name, type_, initializer)
        self.globals[name] = g
        return g

    def global_named(self, name: str) -> GlobalVariable:
        try:
            return self.globals[name]
        except KeyError:
            raise IRError("no global named @%s" % name) from None

    # -- functions -------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError("duplicate function %s" % function.name)
        function.parent = self
        self.functions[function.name] = function
        self.function_table.append(function)
        return function

    def function_named(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError("no function named %s" % name) from None

    def function_index(self, name: str) -> int:
        """The function-table index used as this function's 'address'."""
        for index, function in enumerate(self.function_table):
            if function.name == name:
                return index
        raise IRError("no function named %s" % name)

    def function_at(self, index: int) -> Optional[Function]:
        """Resolve a function-pointer value; ``None`` if out of table."""
        if 0 <= index < len(self.function_table):
            return self.function_table[index]
        return None

    def __repr__(self) -> str:
        return "Module(%s: %d globals, %d functions)" % (
            self.name, len(self.globals), len(self.functions))
