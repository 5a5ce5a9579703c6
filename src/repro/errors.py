"""Exception hierarchy for the BLOCKWATCH reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy mirrors the pipeline:
front-end errors, IR verification errors, analysis errors, and runtime
(simulation) errors.  Simulated program failures — crashes and hangs of the
*guest* program running on the simulated machine — are deliberately separate from
host-side bugs so fault-injection campaigns can classify them as outcomes
rather than propagate them as tool failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class FrontendError(ReproError):
    """Base class for MiniC front-end errors (lexing, parsing, codegen)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d:%s %s" % (line, "" if column is None else "%d:" % column, message)
        super().__init__(message)


class LexError(FrontendError):
    """An unrecognized character or malformed token in MiniC source."""


class ParseError(FrontendError):
    """A syntax error in MiniC source."""


class CodegenError(FrontendError):
    """A semantic error found while lowering the MiniC AST to IR."""


class IRError(ReproError):
    """Base class for malformed-IR errors."""


class VerificationError(IRError):
    """The IR verifier found a structural or SSA violation."""


class AnalysisError(ReproError):
    """A static-analysis pass was asked something it cannot answer."""


class OptimizationError(ReproError):
    """An optimizer pass was misconfigured or broke an invariant
    (:mod:`repro.opt`).  Legality violations are caught by the verifier
    re-run after every pass and surface as VerificationError instead."""


class InstrumentationError(ReproError):
    """The instrumentation pass could not transform the module."""


class SimulationError(ReproError):
    """Base class for host-side simulation failures (tool bugs/misuse)."""


class GuestFailure(SimulationError):
    """Base class for failures of the *simulated* program.

    These are expected outcomes during fault-injection campaigns and are
    converted into :class:`repro.faults.outcomes.Outcome` values rather than
    reported as tool errors.
    """

    def __init__(self, message: str, thread_id: int | None = None):
        self.thread_id = thread_id
        super().__init__(message)


class GuestCrash(GuestFailure):
    """The simulated program performed an illegal operation.

    Analogous to a SIGSEGV/SIGFPE on real hardware: out-of-bounds array
    access, division by zero, call through an invalid function pointer,
    or exhaustion of a simulated resource.
    """


class GuestHang(GuestFailure):
    """The simulated program exceeded its cycle budget (liveness failure)."""


class GuestDeadlock(GuestFailure):
    """Every runnable simulated thread is blocked on a lock or barrier."""


class StoreError(ReproError):
    """Base class for durable-store failures (:mod:`repro.store`).

    Raised when an on-disk artifact or campaign journal cannot be used
    *safely*: corruption, schema drift, and plan mismatches all surface
    here instead of producing a silently wrong cache hit or resume.
    """


class StoreCorruptError(StoreError):
    """An on-disk store object is damaged (truncated journal line,
    unreadable pickle, metadata that fails verification)."""


class StoreSchemaError(StoreError):
    """A store object was written under an incompatible schema version."""


class PlanMismatchError(StoreError):
    """A journal's recorded campaign plan does not match the resuming
    campaign (different program, seed, fault model, or config)."""


class SpecError(ReproError, ValueError):
    """A :class:`repro.faults.spec.CampaignSpec` could not be built or
    deserialized: unknown fields, out-of-range values, or an unknown
    kernel reference.  Derives from ``ValueError`` so pre-spec callers
    that caught ``ValueError`` on bad campaign parameters keep working."""


class ServeError(ReproError):
    """Base class for campaign-fabric failures (:mod:`repro.serve`):
    protocol violations, rejected submissions (full queue, tenant over
    quota), and unknown-job lookups."""


class DetectionRaised(ReproError):
    """The BLOCKWATCH monitor detected a similarity violation.

    Raised only when the monitor is configured in ``halt_on_detection``
    mode; campaigns normally record detections without halting.
    """

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))
