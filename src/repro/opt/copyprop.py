"""Copy propagation over phi webs.

The repro IR has no explicit ``copy`` instruction — copies only ever
arise as *trivial phi nodes*: ``phi [v, pred1], [v, pred2]`` (one
distinct incoming value, possibly plus self-references from loop back
edges).  This pass forwards the unique source through the phi and
deletes it, iterating because pruning one phi frequently makes the next
one trivial (the classic Braun construction cleanup; ``-O2`` runs it
again to clean up after SCCP).

Legality: a frozen phi stays (the monitor/injector observes its
register), and a phi never forwards a frozen *source* to its users —
see :mod:`repro.opt.legality`.  Phi removal carries no ghost: the
runtime executes phis as part of the edge transfer at zero cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir import Constant, Function, Value
from repro.opt.ghosts import remove_phi, replace_all_uses


def _same_constant(a: Value, b: Value) -> bool:
    if not (isinstance(a, Constant) and isinstance(b, Constant)):
        return False
    # bool == int in Python, so compare the value's own type too
    # (Constant(0) and Constant(False) are different guest values).
    return (a.type is b.type and type(a.value) is type(b.value)
            and repr(a.value) == repr(b.value))


def _unique_source(phi) -> Optional[Value]:
    """The single distinct non-self incoming value, or None."""
    distinct: List[Value] = []
    for value in phi.operands:
        if value is phi:
            continue
        if not any(value is seen or _same_constant(value, seen)
                   for seen in distinct):
            distinct.append(value)
    return distinct[0] if len(distinct) == 1 else None


def run(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for phi in list(block.phis()):
                if phi in frozen:
                    continue
                source = _unique_source(phi)
                if source is None:
                    continue
                if not isinstance(source, Constant) and source in frozen:
                    continue  # no new uses of injector-visible registers
                replace_all_uses(phi, source)
                if phi.uses:
                    continue  # self-references only; leave for DCE
                remove_phi(phi)
                removed += 1
                changed = True
    return {"removed": removed, "replaced": removed}
