"""Compiled branch tails: a fused run's last segments also execute the
block's ``SendBranchCondition``/``Branch`` pair (or its lone branch or
jump) in the same generated call.

With one thread the schedule has no choice, so a run must not depend on
how much of it went through tails: quantum 1 executes singles only,
quantum 3 fits tails in part, quantum 32 mostly runs them.  Injected
runs must agree too, including condition faults whose corrupted compare
operand flows into a successor phi.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultSpec, FaultType, InjectingHook
from repro.instrument import InstrumentConfig
from repro.ir import SendBranchCondition
from repro.runtime import ParallelProgram, RunConfig, get_compiled
from repro.runtime.closures import _FUSIBLE

from tests.conftest import FIGURE_1, figure1_setup
from tests.runtime.fingerprints import run_fingerprint

QUANTA = (1, 3, 32)

#: At -O2 the merge after ``if (v < 0)`` holds a phi whose incoming
#: value on the fall-through edge is ``v``, the compare's operand.  A
#: condition fault flips a bit of ``v``'s register; unless it hits the
#: sign bit the branch still falls through, and the branch tail's edge
#: copy must carry the corrupted value into the phi.
PHI_LOOP = """
global int n = 6;
global int data[8];
global int out[8];

func slave() {
  local int i;
  local int v;
  local int m;
  local int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    v = data[i];
    m = v;
    if (v < 0) {
      m = 0;
    }
    acc = acc + m;
  }
  out[tid()] = acc;
}
"""


def _phi_loop_setup(memory):
    memory.set_array("data", [1, 5, 2, 9, 4, 0, 7, 3])


CASES = {
    "figure1": (FIGURE_1, 0, figure1_setup(1), ("result",)),
    "phi_loop": (PHI_LOOP, 2, _phi_loop_setup, ("out",)),
}


def _facts(result, output_globals):
    """Everything for an ok run; only the status for crash and hang."""
    if result.status != "ok":
        return result.status
    return run_fingerprint(result, output_globals)


def _run(program, setup, quantum, output_globals, fault=None):
    """(facts, result); with a fault the facts include what the hook
    did and wrote."""
    hook = InjectingHook(fault) if fault is not None else None
    result = program.run(RunConfig(nthreads=1, quantum=quantum),
                         setup=setup, fault_hook=hook)
    facts = _facts(result, output_globals)
    if hook is not None:
        facts = (facts, hook.activated, hook.flipped_branch, hook.detail)
    return facts, result


@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_agree_across_quanta(case):
    source, opt_level, setup, output_globals = CASES[case]
    program = ParallelProgram(source, case, opt_level=opt_level)
    golden = {q: _run(program, setup, q, output_globals) for q in QUANTA}
    assert golden[1][0] == golden[3][0] == golden[32][0]
    branches = golden[1][1].branch_counts[0]
    assert branches > 0
    for fault_type in (FaultType.BRANCH_CONDITION, FaultType.BRANCH_FLIP):
        for index in range(1, branches + 1):
            spec = FaultSpec(fault_type, 0, index, rng_seed=11 * index)
            facts = [_run(program, setup, q, output_globals, spec)[0]
                     for q in QUANTA]
            assert facts[0][1], (fault_type, index)  # activated
            assert facts[0] == facts[1] == facts[2], (fault_type, index)


def test_condition_fault_reaches_successor_phi():
    """The phi-loop program really exercises a corrupted compare operand
    flowing into a phi: some condition fault changes the output."""
    source, opt_level, setup, output_globals = CASES["phi_loop"]
    program = ParallelProgram(source, "phi_loop", opt_level=opt_level)
    golden = _run(program, setup, 32, output_globals)[1]
    goldens = golden.output_signature(output_globals)
    changed = 0
    for index in range(1, golden.branch_counts[0] + 1):
        spec = FaultSpec(FaultType.BRANCH_CONDITION, 0, index,
                         rng_seed=11 * index)
        result = _run(program, setup, 32, output_globals, spec)[1]
        if result.output_signature(output_globals) != goldens:
            changed += 1
    assert changed > 0


#: Recorded before branch tails existed: 4-thread Figure 1, seed 0,
#: quantum 32, with monitor queues of one and two messages, so both the
#: condition send and the outcome send stall.
STALL_PINS = {
    1: {"steps": 1112, "queue_stall": [700.0, 700.0, 700.0, 1375.0],
        "cycles": [9582.0] * 4, "branches": [28] * 4},
    2: {"steps": 1112, "queue_stall": [450.0, 450.0, 450.0, 675.0],
        "cycles": [9332.0] * 4, "branches": [28] * 4},
}


@pytest.mark.parametrize("capacity", sorted(STALL_PINS))
@pytest.mark.parametrize("opt_level", [0, 2])
def test_stall_path_is_pinned(capacity, opt_level):
    program = ParallelProgram(
        FIGURE_1, "figure1.cap%d" % capacity, opt_level=opt_level,
        instrument_config=InstrumentConfig(queue_capacity=capacity))
    result = program.run(RunConfig(nthreads=4, seed=0, quantum=32),
                         setup=figure1_setup(4))
    assert result.status == "ok"
    tids = sorted(result.cycles)
    assert {"steps": result.steps,
            "queue_stall": [result.thread_queue_stall[t] for t in tids],
            "cycles": [result.cycles[t] for t in tids],
            "branches": [result.branch_counts[t] for t in tids],
            } == STALL_PINS[capacity]
    assert result.violations == []


def test_radix_checked_blocks_have_a_tail_segment(compiled_kernels):
    """Every radix block shaped [fusible..., send, branch] can run from
    the start of its fused run through the branch in one dispatch."""
    _spec, program = compiled_kernels["radix"]
    compiled = get_compiled(program.protected, nthreads=4)
    checked = 0
    for cfunc in compiled.by_name.values():
        for cblock in cfunc.blocks.values():
            insts = cblock.block.instructions
            if (len(insts) < 3
                    or not isinstance(insts[-2], SendBranchCondition)
                    or not isinstance(insts[-3], _FUSIBLE)):
                continue
            start = len(insts) - 2
            while start > 0 and isinstance(insts[start - 1], _FUSIBLE):
                start -= 1
            # The run, the send and the branch, plus every ghost but
            # the leading one (the quantum loop charges that one).
            ghosts = [inst.ghost[0] for inst in insts[start + 1:]
                      if getattr(inst, "ghost", None) is not None]
            want = len(insts) - start + sum(ghosts)
            steps = [s for s, _fn in cblock.dispatch[start][0]]
            assert want in steps, (cblock.block.name, want, steps)
            checked += 1
    assert checked > 0
