"""Configuration and metadata types of the instrumentation pass."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.categories import Category


@dataclass
class InstrumentConfig:
    """Knobs of the instrumentation pass.

    The *what to check* decisions (promotion, critical sections, nesting
    cutoff) are made by the analysis (:class:`repro.analysis.AnalysisConfig`);
    this config controls the runtime plumbing.
    """

    #: Capacity of each thread's lock-free front-end queue, in messages.
    #: "We set the queue length to a sufficiently large value to prevent
    #: it from being a bottleneck" (paper Section III-B).
    queue_capacity: int = 4096
    #: Messages the monitor drains per scheduling quantum.
    monitor_batch: int = 64

    def __post_init__(self):
        for name in ("queue_capacity", "monitor_batch"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %r"
                                 % (name, getattr(self, name)))


@dataclass(frozen=True)
class CheckedBranchInfo:
    """Static description of one checked branch, shared between the
    :class:`~repro.ir.Branch`'s ``bw_info``, the ``SendBranchCondition``
    intrinsic, and the monitor's branch registry."""

    static_id: int
    function_name: str
    block_name: str
    check_kind: str
    category: Category
    #: For tid_eq: 'eq' or 'ne'; empty otherwise.
    eq_sense: str = ""
    #: For tid_monotone: 'low' (takers have low lhs-rhs difference) or
    #: 'high'; empty otherwise.
    monotone_dir: str = ""
    #: For tid checks with basis (lhs, rhs): index of the shared-category
    #: operand that must agree across threads; -1 if neither is shared.
    shared_operand_index: int = -1
    promoted: bool = False
    #: Module-wide ids of the enclosing loops, outermost first; their
    #: iteration counters are the runtime half of the hash key.
    enclosing_loop_ids: Tuple[int, ...] = ()


@dataclass
class InstrumentationMetadata:
    """Everything the runtime needs, attached to ``Module.bw_metadata``."""

    config: InstrumentConfig
    #: static branch id -> info
    branches: Dict[int, CheckedBranchInfo] = field(default_factory=dict)
    #: number of loops given iteration counters
    instrumented_loops: int = 0
    #: number of call sites assigned ids
    call_sites: int = 0
    entry: str = "slave"

    def info(self, static_id: int) -> Optional[CheckedBranchInfo]:
        return self.branches.get(static_id)
