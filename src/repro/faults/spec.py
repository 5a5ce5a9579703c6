"""The unified, serializable campaign description: :class:`CampaignSpec`.

One frozen value object carries *everything that identifies a campaign*
— program reference or source, fault model, injection count, thread
count, seed, sampling plan, optimization level, and the
journal/store knobs — and round-trips through canonical JSON
byte-identically.  It is the single input type shared by

* the Python API (:func:`repro.faults.run_campaign`,
  :meth:`repro.api.BlockWatch.inject`),
* the CLIs (``repro inject``, ``repro serve submit``), and
* the :mod:`repro.serve` wire protocol,

and it is the single source of the PR 3 journal *plan hash*: client and
server both derive the fingerprint from the same spec, so a submission
can be validated end-to-end before a single injection runs, and a
journal written by any of the three entry points resumes under any
other.

Programs are referenced two ways through one ``program`` field, the
``repro`` command's convention:

``kernel:NAME``
    a built-in SPLASH-2-style kernel; its canonical entry point, name,
    and (when not overridden) output globals come from the registry.
inline MiniC source
    anything else is treated as the program text itself.

Inputs that must travel with the spec (the wire case) are serializable
by construction: ``scalars``/``arrays`` mirror the CLI's ``--set`` and
``--fill``, and kernels regenerate their canonical inputs from
``input_seed``.  Closure-based setups stay available through the
``setup=`` keyword of the execution APIs — they simply cannot cross the
wire.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SpecError
from repro.faults.models import FaultType

#: Version of the serialized spec; bump on incompatible field changes.
SPEC_SCHEMA = 1

#: The ``repro`` command's kernel-reference prefix.
KERNEL_PREFIX = "kernel:"

#: Loose fault-model spellings accepted by :meth:`CampaignSpec.build`
#: (the CLI's ``--fault`` values plus enum names), normalized to
#: :class:`FaultType` values.
FAULT_ALIASES = {
    "flip": FaultType.BRANCH_FLIP.value,
    "condition": FaultType.BRANCH_CONDITION.value,
    "branch_flip": FaultType.BRANCH_FLIP.value,
    "branch_condition": FaultType.BRANCH_CONDITION.value,
    FaultType.BRANCH_FLIP.value: FaultType.BRANCH_FLIP.value,
    FaultType.BRANCH_CONDITION.value: FaultType.BRANCH_CONDITION.value,
}

PLANS = ("full", "stratified")


def _freeze_number(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError("spec %s values must be ints or floats, got %r"
                        % (name, value))
    return value if isinstance(value, float) else int(value)


def _freeze_scalars(scalars) -> Tuple[Tuple[str, object], ...]:
    if isinstance(scalars, dict):
        scalars = scalars.items()
    return tuple(sorted((str(name), _freeze_number("scalar", value))
                        for name, value in scalars))


def _freeze_arrays(arrays) -> Tuple[Tuple[str, Tuple[object, ...]], ...]:
    if isinstance(arrays, dict):
        arrays = arrays.items()
    return tuple(sorted(
        (str(name), tuple(_freeze_number("array", v) for v in values))
        for name, values in arrays))


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one campaign is, as one canonical-JSON-serializable
    value.  Construction validates; equal specs have equal plan hashes.
    """

    #: ``kernel:NAME`` or inline MiniC source text.
    program: str
    #: Program name stamped into stats/artifacts (kernel refs override).
    name: str = "program"
    #: SPMD worker function (kernel refs override).
    entry: str = "slave"
    #: Fault model, as a :class:`FaultType` value string.
    fault: str = FaultType.BRANCH_FLIP.value
    injections: int = 100
    nthreads: int = 4
    #: Base seed: drives the schedule and the per-index fault plans.
    seed: int = 2012
    output_globals: Tuple[str, ...] = ()
    quantize_bits: int = 0
    hang_factor: int = 10
    quantum: int = 32
    #: ``full`` (index-planned uniform sweep) or ``stratified``.
    plan: str = "full"
    opt_level: int = 0
    #: Collect merged metrics + event trace on the result.
    telemetry: bool = False
    #: Seed of the kernel's canonical input generator.
    input_seed: int = 2012
    #: Serializable inputs: scalar globals set before the run
    #: (sorted ``(name, value)`` pairs — the CLI's ``--set``).
    scalars: Tuple[Tuple[str, object], ...] = ()
    #: Array globals filled before the run (the CLI's ``--fill``).
    arrays: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: Journal/store knobs (execution-side; not part of the plan hash).
    journal: Optional[str] = None
    resume: bool = False
    store: Optional[str] = None

    def __post_init__(self):
        set_ = lambda k, v: object.__setattr__(self, k, v)
        if not isinstance(self.program, str) or not self.program.strip():
            raise SpecError("spec.program must be a kernel reference "
                            "(kernel:NAME) or MiniC source text")
        if self.fault not in FAULT_ALIASES:
            raise SpecError("unknown fault model %r (expected one of %s)"
                            % (self.fault, ", ".join(sorted(
                                set(FAULT_ALIASES.values())))))
        set_("fault", FAULT_ALIASES[self.fault])
        if self.plan not in PLANS:
            raise SpecError("unknown campaign plan %r (expected %s)"
                            % (self.plan, " or ".join(PLANS)))
        for field_name in ("injections", "nthreads"):
            if int(getattr(self, field_name)) <= 0:
                raise SpecError("spec.%s must be positive" % field_name)
            set_(field_name, int(getattr(self, field_name)))
        if self.opt_level not in (0, 1, 2):
            raise SpecError("unknown optimization level %r" % (self.opt_level,))
        for field_name in ("seed", "quantize_bits", "hang_factor",
                           "quantum", "input_seed"):
            set_(field_name, int(getattr(self, field_name)))
        for field_name, least in (("quantum", 1), ("hang_factor", 1),
                                  ("quantize_bits", 0)):
            if getattr(self, field_name) < least:
                raise SpecError("spec.%s must be at least %d"
                                % (field_name, least))
        set_("telemetry", bool(self.telemetry))
        set_("resume", bool(self.resume))
        set_("output_globals", tuple(str(g) for g in self.output_globals))
        set_("scalars", _freeze_scalars(self.scalars))
        set_("arrays", _freeze_arrays(self.arrays))
        if self.is_kernel:
            kernel = self._kernel()
            set_("name", kernel.name)
            set_("entry", kernel.entry)
            if not self.output_globals:
                set_("output_globals", tuple(kernel.output_globals))

    @property
    def backend(self) -> str:
        """The execution engine's name (there is only one)."""
        from repro.runtime.program import ENGINE
        return ENGINE

    # -- program reference -------------------------------------------------

    @property
    def is_kernel(self) -> bool:
        return self.program.startswith(KERNEL_PREFIX)

    @property
    def kernel_name(self) -> Optional[str]:
        return self.program[len(KERNEL_PREFIX):] if self.is_kernel else None

    def _kernel(self):
        from repro.splash2 import kernel
        try:
            return kernel(self.kernel_name)
        except KeyError as exc:
            raise SpecError(str(exc.args[0])) from None

    def resolved_source(self) -> Tuple[str, str, str]:
        """``(source, name, entry)`` — kernel refs resolved through the
        registry, inline programs returned as-is."""
        if self.is_kernel:
            kernel = self._kernel()
            return kernel.source, kernel.name, kernel.entry
        return self.program, self.name, self.entry

    def resolve_program(self, store=None):
        """Compile (or fetch) the program this spec describes.

        Kernel references reuse the registry's in-process compile cache
        at the spec's opt level; for inline programs a ``store`` (or the
        process default) serves warm artifacts.
        """
        from repro.runtime.program import ParallelProgram
        if self.is_kernel:
            return self._kernel().program(opt_level=self.opt_level)
        if store is None:
            from repro.store.runtime import default_store
            store = default_store()
        build = store.get_program if store is not None else ParallelProgram
        return build(self.program, self.name, entry=self.entry,
                     opt_level=self.opt_level)

    def default_setup(self) -> "SpecSetup":
        """The picklable input generator the spec describes (kernel
        canonical inputs, then ``nprocs``, then scalars/arrays)."""
        return SpecSetup(kernel=self.kernel_name, nthreads=self.nthreads,
                         input_seed=self.input_seed, scalars=self.scalars,
                         arrays=self.arrays)

    # -- derived campaign objects -----------------------------------------

    @property
    def fault_type(self) -> FaultType:
        return FaultType(self.fault)

    def campaign_config(self):
        from repro.faults.campaign import CampaignConfig
        return CampaignConfig(
            nthreads=self.nthreads, injections=self.injections,
            seed=self.seed, output_globals=self.output_globals,
            quantize_bits=self.quantize_bits, hang_factor=self.hang_factor,
            quantum=self.quantum)

    def program_key(self) -> str:
        """Content address of the (default-configured) program this spec
        describes — computable without compiling anything."""
        from repro.store.hashing import program_key
        source, name, entry = self.resolved_source()
        return program_key(source, name, entry=entry,
                           opt_level=self.opt_level)

    def plan_fingerprint(self) -> Tuple[str, dict]:
        """The PR 3 journal ``(plan hash, plan dict)``, derived from the
        spec alone.  A client and a server holding equal specs derive
        equal fingerprints, which is what lets the wire protocol validate
        a submission against the journal a resumed campaign will replay.

        Computed once per spec object (the program key hashes the whole
        source): the pair is kept on the instance, outside the fields, so
        it joins neither equality nor :meth:`to_dict`, and a spec made
        by :meth:`replace` computes its own.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            from repro.store.hashing import plan_fingerprint
            # Inputs and the plan kind join only where they differ from
            # the defaults, so the hashes of every earlier build still
            # name the same plans (journals and served jobs on disk stay
            # valid).
            extra = {name: getattr(self, name) for name in _PLAN_EXTRAS
                     if getattr(self, name) != _DEFAULTS[name]}
            cached = plan_fingerprint(self.program_key(), self.fault_type,
                                      self.campaign_config(),
                                      telemetry=self.telemetry, extra=extra)
            object.__setattr__(self, "_fingerprint", cached)
        plan_hash, plan = cached
        return plan_hash, dict(plan)

    @property
    def plan_hash(self) -> str:
        return self.plan_fingerprint()[0]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict (canonical field order comes from sorted-key
        JSON encoding; see :meth:`to_json`)."""
        return {
            "schema": SPEC_SCHEMA,
            "program": self.program,
            "name": self.name,
            "entry": self.entry,
            "fault": self.fault,
            "injections": self.injections,
            "nthreads": self.nthreads,
            "seed": self.seed,
            "output_globals": list(self.output_globals),
            "quantize_bits": self.quantize_bits,
            "hang_factor": self.hang_factor,
            "quantum": self.quantum,
            "plan": self.plan,
            "opt_level": self.opt_level,
            "telemetry": self.telemetry,
            "input_seed": self.input_seed,
            "scalars": {name: value for name, value in self.scalars},
            "arrays": {name: list(values) for name, values in self.arrays},
            "journal": self.journal,
            "resume": self.resume,
            "store": self.store,
        }

    def to_json(self) -> str:
        from repro.store.hashing import canonical_json
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Strict inverse of :meth:`to_dict`: unknown fields and schema
        drift raise :class:`SpecError` instead of being guessed around —
        a wire peer speaking a newer spec must not be half-understood."""
        if not isinstance(data, dict):
            raise SpecError("campaign spec must be a JSON object, got %r"
                            % type(data).__name__)
        data = dict(data)
        # Schema-1 specs written before the one engine may still name
        # it; they may name no other.
        from repro.runtime.program import resolve_backend
        try:
            resolve_backend(data.pop("backend", None))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        schema = data.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError("campaign spec uses schema %r; this build "
                            "reads schema %d" % (schema, SPEC_SCHEMA))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError("unknown campaign spec field(s): %s"
                            % ", ".join(unknown))
        try:
            return cls(**data)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError("malformed campaign spec: %s" % exc) from None

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        import json
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SpecError("campaign spec is not valid JSON: %s"
                            % exc) from None
        return cls.from_dict(data)

    @classmethod
    def build(cls, program: str, **kwargs) -> "CampaignSpec":
        """Lenient constructor for CLI/API surfaces: accepts the loose
        fault spellings (``flip``/``condition``), ``None`` for the
        environment-resolved ``opt_level``, and dict-shaped
        ``scalars``/``arrays``."""
        from repro.runtime.program import resolve_opt_level
        kwargs["opt_level"] = resolve_opt_level(kwargs.get("opt_level"))
        fault = kwargs.get("fault")
        if isinstance(fault, FaultType):
            kwargs["fault"] = fault.value
        return cls(program=program, **kwargs)

    @classmethod
    def for_kernel(cls, name: str, **kwargs) -> "CampaignSpec":
        """A spec for a built-in kernel, with the registry's canonical
        SDC quantization applied unless overridden."""
        spec = cls.build(KERNEL_PREFIX + name, **kwargs)
        if "quantize_bits" not in kwargs:
            spec = spec.replace(
                quantize_bits=spec._kernel().sdc_quantize_bits)
        return spec

    def replace(self, **changes) -> "CampaignSpec":
        return dataclasses.replace(self, **changes)


#: Spec fields beyond the campaign config that name a different plan.
_PLAN_EXTRAS = ("scalars", "arrays", "input_seed", "plan")
_DEFAULTS = {field.name: field.default
             for field in dataclasses.fields(CampaignSpec)}


@dataclass(frozen=True)
class SpecSetup:
    """Picklable input generator built from a spec: kernel canonical
    inputs (resolved by name at call time, so only data crosses process
    boundaries), then ``nprocs``, then the spec's scalars and arrays."""

    kernel: Optional[str]
    nthreads: int
    input_seed: int = 2012
    scalars: Tuple[Tuple[str, object], ...] = ()
    arrays: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()

    def __call__(self, memory) -> None:
        if self.kernel is not None:
            import random

            from repro.splash2.registry import kernel as lookup
            spec = lookup(self.kernel)
            memory.set_scalar("nprocs", self.nthreads)
            spec.setup_fn(memory, self.nthreads, random.Random(self.input_seed))
        if "nprocs" in memory.scalars:
            memory.set_scalar("nprocs", self.nthreads)
        for name, value in self.scalars:
            memory.set_scalar(name, value)
        for name, values in self.arrays:
            memory.set_array(name, list(values))

