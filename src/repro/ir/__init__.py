"""SSA intermediate representation for the BLOCKWATCH reproduction.

The IR plays the role LLVM IR plays in the paper: the front-end
(:mod:`repro.frontend`) lowers MiniC source to SSA form, the similarity
analysis (:mod:`repro.analysis`) classifies its branches, the
instrumentation pass (:mod:`repro.instrument`) attaches monitor calls, and
the runtime (:mod:`repro.runtime`) interprets it under a simulated
multi-core machine.
"""

from repro.ir.basicblock import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.cfg import CFG, CallGraph, DominatorTree
from repro.ir.function import Function
from repro.ir.instructions import (
    BINARY_OPS,
    CMP_OPS,
    ORDERED_CMP_OPS,
    UNARY_OPS,
    BarrierWait,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Cmp,
    EnterLoop,
    GetTid,
    Instruction,
    Intrinsic,
    Jump,
    LoadElem,
    LoadGlobal,
    LockAcquire,
    LockRelease,
    LoopTick,
    Output,
    Phi,
    ReadLocal,
    Ret,
    SendBranchCondition,
    StoreElem,
    StoreGlobal,
    Terminator,
    UnaryOp,
    WriteLocal,
)
from repro.ir.module import Module
from repro.ir.printer import print_function, print_module
from repro.ir.types import (
    BARRIER,
    BOOL,
    FLOAT,
    INT,
    LOCK,
    VOID,
    ArrayType,
    Type,
    array_of,
    common_numeric,
    scalar_type,
)
from repro.ir.values import (
    Argument,
    Constant,
    FunctionRef,
    GlobalVariable,
    LocalSlot,
    Value,
)
from repro.ir.verifier import verify_function, verify_module

__all__ = [
    "BasicBlock", "IRBuilder", "Function", "Module", "CFG", "CallGraph",
    "DominatorTree",
    "BINARY_OPS", "CMP_OPS", "ORDERED_CMP_OPS", "UNARY_OPS",
    "BarrierWait", "BinOp", "Branch", "Call", "CallIndirect", "Cast", "Cmp",
    "EnterLoop", "GetTid", "Instruction", "Intrinsic", "Jump", "LoadElem",
    "LoadGlobal", "LockAcquire", "LockRelease", "LoopTick", "Output", "Phi",
    "ReadLocal", "Ret", "SendBranchCondition", "StoreElem", "StoreGlobal",
    "Terminator", "UnaryOp", "WriteLocal",
    "print_function", "print_module",
    "BARRIER", "BOOL", "FLOAT", "INT", "LOCK", "VOID",
    "ArrayType", "Type", "array_of", "common_numeric", "scalar_type",
    "Argument", "Constant", "FunctionRef", "GlobalVariable", "LocalSlot",
    "Value",
    "verify_function", "verify_module",
]
