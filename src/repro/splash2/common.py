"""Kernel infrastructure for the SPLASH-2-style benchmark suite.

Each kernel is a :class:`KernelSpec`: MiniC source implementing the same
algorithmic skeleton as its SPLASH-2 namesake (scaled down), a
deterministic input generator, and the list of result globals the
fault-injection campaigns compare against the golden run.

Design rules every kernel follows (and which the originals also follow,
which is why the paper's fault-injection methodology works at all):

* results are written to arrays indexed by *logical* id or data index, so
  the output is independent of the schedule and of the physical-to-
  logical thread-id mapping;
* data written during the parallel section is only read across a barrier;
* reductions are integer-only or partitioned per thread, so no
  floating-point reassociation can masquerade as an SDC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.analysis import AnalysisConfig
from repro.runtime.memory import SharedMemory
from repro.runtime.program import ParallelProgram, resolve_opt_level


@dataclass
class KernelSpec:
    """One benchmark kernel."""

    name: str
    source: str
    #: Globals whose final contents are the program's output.
    output_globals: Tuple[str, ...]
    #: Fills input globals; must be deterministic in (nthreads, seed).
    setup_fn: Callable[[SharedMemory, int, random.Random], None]
    entry: str = "slave"
    #: Input-size knobs (documented per kernel; already baked into source).
    params: Dict[str, int] = field(default_factory=dict)
    description: str = ""
    #: Low-order result bits ignored by SDC comparison (models the
    #: limited precision of the benchmark's printed output; see
    #: CampaignConfig.quantize_bits).  0 = bit-exact comparison.
    sdc_quantize_bits: int = 0
    #: Storeless compiled programs, one per optimization level.
    _programs: Dict[int, ParallelProgram] = field(default_factory=dict)

    def program(self, analysis_config: Optional[AnalysisConfig] = None,
                opt_level: Optional[int] = None) -> ParallelProgram:
        """Compile (and cache, one program per optimization level) the
        kernel.  ``opt_level`` ``None`` means ``$REPRO_OPT_LEVEL`` or 0.
        A custom analysis config bypasses the cache.

        When a default :class:`repro.store.ArtifactStore` is configured
        (``--store`` / ``$REPRO_STORE``), the compile goes through that
        store (which keeps its own in-process copy), so every harness
        touching the same kernel — figures, campaigns, CLIs, other
        processes — shares one compiled artifact.
        """
        opt_level = resolve_opt_level(opt_level)
        if analysis_config is not None:
            return ParallelProgram(self.source, self.name, entry=self.entry,
                                   analysis_config=analysis_config,
                                   opt_level=opt_level)
        from repro.store.runtime import default_store
        store = default_store()
        if store is not None:
            return store.get_program(self.source, self.name,
                                     entry=self.entry, opt_level=opt_level)
        if opt_level not in self._programs:
            self._programs[opt_level] = ParallelProgram(
                self.source, self.name, entry=self.entry, opt_level=opt_level)
        return self._programs[opt_level]

    def setup(self, nthreads: int, seed: int = 2012) -> "KernelSetup":
        """A setup callable bound to (nthreads, seed) — pass to run().

        Returns a :class:`KernelSetup` rather than a closure so campaign
        workloads can cross a ``spawn`` process boundary (closures don't
        pickle; a named kernel reference does).
        """
        return KernelSetup(kernel=self.name, nthreads=nthreads, seed=seed)


@dataclass(frozen=True)
class KernelSetup:
    """Picklable input generator: resolves its kernel by name at call
    time, so only ``(kernel, nthreads, seed)`` travels between
    processes."""

    kernel: str
    nthreads: int
    seed: int = 2012

    def __call__(self, memory: SharedMemory) -> None:
        from repro.splash2.registry import kernel as lookup
        spec = lookup(self.kernel)
        rng = random.Random(self.seed)
        memory.set_scalar("nprocs", self.nthreads)
        spec.setup_fn(memory, self.nthreads, rng)


def spmd_prologue(use_counter: bool = False) -> str:
    """The standard SPMD prologue: obtain a logical thread id.

    ``use_counter=True`` emits the paper's Figure 1 idiom (``procid =
    id++`` under a lock); otherwise the ``tid()`` intrinsic is used.
    Both forms are recognized by the analysis as threadID sources.
    """
    if use_counter:
        return (
            "  local int procid;\n"
            "  lock(idlock);\n"
            "  procid = id;\n"
            "  id = id + 1;\n"
            "  unlock(idlock);\n")
    return "  local int procid = tid();\n"
