"""The BLOCKWATCH instrumentation pass (paper Sections II-D and III-B).

For every branch the analysis marked checkable, the pass:

* inserts a :class:`~repro.ir.SendBranchCondition` intrinsic immediately
  before the branch, carrying the condition basis values (the paper's
  ``sendBranchCondition``);
* tags the :class:`~repro.ir.Branch` itself with the check info — the
  machine emits the outcome message when the tagged branch executes,
  which is semantically the paper's ``sendBranchAddr`` calls in both
  successor arms, without the edge-splitting a textual insertion would
  need;
* gives every enclosing loop an iteration counter: an
  :class:`~repro.ir.EnterLoop` reset in the loop preheader and a
  :class:`~repro.ir.LoopTick` at the top of the header;
* assigns call-site ids to all calls in the parallel region.

The pass mutates the module in place and attaches an
:class:`~repro.instrument.config.InstrumentationMetadata` to
``module.bw_metadata``; the IR verifier is re-run afterwards.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.analysis.categories import Category
from repro.analysis.loops import Loop
from repro.analysis.similarity import SimilarityResult
from repro.errors import InstrumentationError
from repro.instrument.branch_ids import assign_callsite_ids
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.ir import (
    EnterLoop,
    LoopTick,
    Module,
    SendBranchCondition,
    verify_module,
)


def instrument_module(module: Module, analysis: SimilarityResult,
                      config: Optional[InstrumentConfig] = None) -> InstrumentationMetadata:
    """Instrument ``module`` using the branch classification in
    ``analysis``.  Returns (and attaches) the metadata."""
    if module.bw_metadata is not None:
        raise InstrumentationError("module %s is already instrumented" % module.name)
    if analysis.module is not module:
        raise InstrumentationError("analysis result belongs to another module")
    config = config if config is not None else InstrumentConfig()
    metadata = InstrumentationMetadata(config=config, entry=analysis.config.entry)

    needed_loops: Set[int] = set()
    next_static_id = 0
    for fname in sorted(analysis.per_function):
        fa = analysis.per_function[fname]
        for record in fa.branches:
            if record.check_kind is None:
                continue
            branch = record.branch
            block = branch.parent
            loop_chain = fa.loops.loop_chain(block)
            loop_ids = tuple(loop.loop_id for loop in loop_chain)
            info = CheckedBranchInfo(
                static_id=next_static_id,
                function_name=fname,
                block_name=block.name,
                check_kind=record.check_kind,
                category=record.category,
                eq_sense=record.eq_sense,
                monotone_dir=record.monotone_dir,
                shared_operand_index=record.shared_operand_index,
                promoted=record.promoted,
                enclosing_loop_ids=loop_ids)
            next_static_id += 1
            metadata.branches[info.static_id] = info
            needed_loops.update(loop_ids)

            send = SendBranchCondition(info.static_id, record.cond_basis)
            send.info = info  # type: ignore[attr-defined]
            block.insert_before_terminator(send)
            branch.bw_info = info

        # The check_stores extension: ship shared store values too.
        for store_record in fa.stores:
            store = store_record.store
            block = store.parent
            loop_chain = fa.loops.loop_chain(block)
            loop_ids = tuple(loop.loop_id for loop in loop_chain)
            info = CheckedBranchInfo(
                static_id=next_static_id,
                function_name=fname,
                block_name=block.name,
                check_kind="store_shared",
                category=Category.SHARED,
                enclosing_loop_ids=loop_ids)
            next_static_id += 1
            metadata.branches[info.static_id] = info
            needed_loops.update(loop_ids)
            send = SendBranchCondition(info.static_id, store_record.basis)
            send.info = info  # type: ignore[attr-defined]
            block.insert(block.instructions.index(store), send)

        _instrument_loops(fa.loops.loops, needed_loops)

    metadata.instrumented_loops = len(needed_loops)
    metadata.call_sites = assign_callsite_ids(module, analysis.parallel_functions)
    module.bw_metadata = metadata
    verify_module(module)
    return metadata


def _instrument_loops(loops, needed: Set[int]) -> None:
    for loop in loops:
        if loop.loop_id not in needed:
            continue
        _instrument_loop(loop)


def _instrument_loop(loop: Loop) -> None:
    preheader = loop.preheader
    if preheader is None:
        raise InstrumentationError(
            "loop %r has no preheader to host EnterLoop" % (loop,))
    if any(isinstance(inst, EnterLoop) and inst.loop_id == loop.loop_id
           for inst in preheader.instructions):
        return  # already instrumented (shared across several branches)
    preheader.insert_before_terminator(EnterLoop(loop.loop_id))
    loop.header.insert_after_phis(LoopTick(loop.loop_id))
