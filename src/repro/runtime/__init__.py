"""Simulated SPMD runtime: the block-closure machine, shared memory,
synchronization, scheduler, and the cycle cost model of the 32-core
target machine."""

from repro.runtime.costmodel import CostModel, default_cost_model
from repro.runtime.machine import (
    FaultHook,
    Machine,
    RunResult,
    ThreadContext,
    ThreadStatus,
)
from repro.runtime.closures import Frame, compile_module, get_compiled
from repro.runtime.memory import SharedMemory
from repro.runtime.program import (
    ParallelProgram,
    RunConfig,
    resolve_opt_level,
)
from repro.runtime.sync import SimBarrier, SimMutex
from repro.runtime.values import (
    INT_MAX,
    INT_MIN,
    flip_float_bit,
    flip_int_bit,
    flip_value_bit,
    float_to_int,
    int_div,
    int_mod,
    wrap_int,
)

__all__ = [
    "CostModel", "default_cost_model",
    "FaultHook", "Frame", "Machine", "RunResult", "ThreadContext",
    "ThreadStatus", "SharedMemory", "ParallelProgram", "RunConfig",
    "resolve_opt_level",
    "compile_module", "get_compiled",
    "SimBarrier", "SimMutex",
    "INT_MAX", "INT_MIN", "flip_float_bit", "flip_int_bit", "flip_value_bit",
    "float_to_int", "int_div", "int_mod", "wrap_int",
]
