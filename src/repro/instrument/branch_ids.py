"""Deterministic id assignment for branches and call sites.

Static branch ids number every *checked* branch module-wide in a stable
order (function-table order, then block order), so two compilations of
the same module agree — fault-injection campaigns rely on this to map
detections back to source branches.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.ir import Branch, Call, CallIndirect, Function, Module


def branches_in_order(functions: Iterable[Function]) -> List[Branch]:
    result: List[Branch] = []
    for function in functions:
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, Branch):
                result.append(term)
    return result


def assign_callsite_ids(module: Module, parallel_names) -> int:
    """Give every direct/indirect call in the parallel region a unique id.

    The machine pushes these ids onto a per-thread stack at call time;
    the stack is the call-path half of the monitor's hash key (paper
    Section III-B, "the function's call site ID").
    """
    next_id = 0
    for function in module.function_table:
        if function.name not in parallel_names:
            continue
        for inst in function.instructions():
            if isinstance(inst, (Call, CallIndirect)):
                inst.callsite_id = next_id
                next_id += 1
    return next_id
