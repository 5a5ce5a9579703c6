"""Dead-code elimination with ghost accounting.

Deletes pure, crash-free instructions whose results are never used —
mostly the husks left behind by folding, copy propagation, and SCCP.
Every removal attaches a ghost to the next survivor so step totals and
cycle clocks are preserved (:mod:`repro.opt.ghosts`); dead *phis* are
deleted outright (they execute at zero cost).

Iterates in reverse block order so a dead chain ``a = ...; b = f(a)``
falls in one sweep.  Frozen values are never dead by construction (the
branch/send that froze them is a use), but the check stays for safety.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir import Function, Phi, Value
from repro.opt.ghosts import ghost_kind_of, remove_phi, remove_with_ghost


def run(function: Function, frozen: Set[Value]) -> Dict[str, int]:
    removed = 0
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            for inst in reversed(list(block.instructions)):
                if inst.uses or inst in frozen:
                    continue
                if isinstance(inst, Phi):
                    remove_phi(inst)
                    removed += 1
                    changed = True
                    continue
                kind = ghost_kind_of(inst)
                if kind is None:
                    continue
                remove_with_ghost(inst, kind)
                removed += 1
                changed = True
    return {"removed": removed, "replaced": 0}
