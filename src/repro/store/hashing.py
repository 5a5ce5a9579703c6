"""Stable structural hashing for the durable store.

Every cache decision in :mod:`repro.store` reduces to "is this the same
computation?", answered by hashing the computation's *inputs*:

``program_key``
    source text + compile options (entry, analysis config, instrument
    config) + the artifact schema version.  Two processes — today's and
    yesterday's — that would compile the same instrumented image derive
    the same key, so the frontend → IR → analysis → instrument pipeline
    runs at most once per distinct input.

``plan_fingerprint``
    the identity of one campaign *plan*: program key, fault model,
    every :class:`~repro.faults.campaign.CampaignConfig` knob, whether
    telemetry was recorded, and a spec's inputs and plan kind where
    they differ from the defaults.  A journal stamped with this hash
    can only resume a campaign that would redo the exact same work.

``golden_key`` / ``golden_fingerprint``
    the inputs, respectively outputs, of a golden run.  The key caches
    the run; the fingerprint (recorded in journals) catches environment
    drift — a resumed campaign whose re-run golden differs from the one
    the journal was written against must not silently merge.

Everything is SHA-256 over a canonical JSON encoding (sorted keys, no
whitespace) — no ``hash()``, no ``pickle``, no ``repr`` of dicts — so
the keys are stable across processes, ``PYTHONHASHSEED`` values, and
Python versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional, Tuple

#: Version of the artifact serialization (pickled programs, golden
#: summaries).  Bump when the pickled object graph changes shape.
#: 2: IR types pickle through the interning table (programs stored
#: under schema 1 rebuilt non-singleton types, breaking the package's
#: ``x.type is INT`` identity contract on warm loads).
#: 3: one execution engine — programs carry no backend, and modules
#: pickle without their process-local closure cache.
#: 4: golden summaries carry the thread similarity classes.
#: 5: programs carry no baseline analysis, and a similarity result
#: pickles its id-keyed maps keyed by the IR values themselves.
#: 6: every analysis keys its maps by the IR objects, so a stored
#: program's loop and lock-region queries answer like a fresh one's.
#: 7: a similarity result carries its call graph and the region's
#: written globals; lock regions carry no per-block depths.
#: 8: the IR has no local-slot form, and an -O1/-O2 program's pass
#: summary no longer lists the removed SSA-promotion pass.
ARTIFACT_SCHEMA = 8

#: Version of the compiled-program content address.  Program keys are
#: also part of every campaign plan hash (journals, served jobs), so
#: they version on their own: bump this only when a compiled program
#: changes meaning, not when a stored payload changes shape (load
#: rejects stale payloads by ARTIFACT_SCHEMA and rebuilds them).
PROGRAM_SCHEMA = 3

#: Version of the campaign-journal line format.  Bump when header or
#: record fields change incompatibly.
JOURNAL_SCHEMA = 1


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _config_dict(config) -> Optional[dict]:
    """A dataclass config as a plain dict (None stays None = defaults)."""
    if config is None:
        return None
    return dataclasses.asdict(config)


def program_key(source: str, name: str, entry: str = "slave",
                analysis_config=None, instrument_config=None,
                opt_level: int = 0) -> str:
    """Content address of one compiled :class:`ParallelProgram`.

    ``name`` participates: it is stamped into module names and campaign
    statistics, so two names are two (user-visible) artifacts even over
    identical source.  The optimization level participates only when
    non-zero.
    """
    payload = {
        "schema": PROGRAM_SCHEMA,
        "kind": "program",
        "source": source,
        "name": name,
        "entry": entry,
        "analysis": _config_dict(analysis_config),
        "instrument": _config_dict(instrument_config),
    }
    if opt_level:
        payload["opt"] = {"level": int(opt_level)}
    return _digest(payload)


def program_key_of(program) -> str:
    """The content address of an already-compiled program."""
    return program_key(program.source, program.name, entry=program.entry,
                       analysis_config=program.analysis_config,
                       instrument_config=program.instrument_config,
                       opt_level=program.opt_level)


def plan_fingerprint(prog_key: str, fault_type, config,
                     telemetry: bool = False,
                     extra: Optional[dict] = None) -> Tuple[str, dict]:
    """``(hash, plan dict)`` identifying one campaign plan.

    ``extra`` holds further plan fields (a spec's inputs and plan kind)
    that join the plan only when given, so a plan without them hashes
    as it always has.  The plan dict is stored alongside the hash in
    journal headers so a mismatch can be reported field-by-field instead
    of as an opaque digest difference.
    """
    plan = {
        "schema": JOURNAL_SCHEMA,
        "program_key": prog_key,
        "fault_type": fault_type.value,
        "nthreads": config.nthreads,
        "injections": config.injections,
        "seed": config.seed,
        "output_globals": list(config.output_globals),
        "quantize_bits": config.quantize_bits,
        "hang_factor": config.hang_factor,
        "quantum": config.quantum,
        "telemetry": bool(telemetry),
    }
    plan.update(extra or {})
    return _digest(plan), plan


def describe_plan_mismatch(recorded: dict, current: dict) -> str:
    """Readable field-by-field diff of two plan dicts."""
    keys = sorted(set(recorded) | set(current))
    diffs = ["%s: journal=%r, campaign=%r"
             % (key, recorded.get(key), current.get(key))
             for key in keys if recorded.get(key) != current.get(key)]
    return "; ".join(diffs) if diffs else "(no field differences)"


def lint_key(source: str, name: str, entry: str, lint_schema: int) -> str:
    """Content address of one static lint report.

    Keyed on the *source* (plus entry and the diagnostic schema), not a
    program key: lint runs on the un-instrumented module, so analysis /
    instrument / optimizer options cannot change the report.
    """
    return _digest({
        "schema": ARTIFACT_SCHEMA,
        "kind": "lint",
        "lint_schema": int(lint_schema),
        "source": source,
        "name": name,
        "entry": entry,
    })


def vuln_key(fingerprint: str, vuln_schema: int) -> str:
    """Content address of one per-function vulnerability summary.

    Keyed on the *normalized function text* (module-global tags such as
    ``send_cond`` static ids stripped — see
    :func:`repro.lint.vuln.function_fingerprint`), so editing one
    function re-analyzes only that function even when instrumentation
    renumbers the whole module."""
    return _digest({
        "schema": ARTIFACT_SCHEMA,
        "kind": "vuln",
        "vuln_schema": int(vuln_schema),
        "function": fingerprint,
    })


def triage_key(fingerprint: str, triage_schema: int) -> str:
    """Content address of one campaign triage report.

    Keyed on the *triage fingerprint* — a hash of the campaign's
    deterministic outcome rows, the thread similarity classes, and the
    clustering parameters (see
    :func:`repro.triage.report.triage_fingerprint`) — so every
    ``jobs=N`` execution of the same campaign maps to the same cached
    report."""
    return _digest({
        "schema": ARTIFACT_SCHEMA,
        "kind": "triage",
        "triage_schema": int(triage_schema),
        "fingerprint": fingerprint,
    })


def setup_inputs(setup) -> Optional[dict]:
    """The canonical form of a run's input generator, for golden keys:
    ``{}`` for no setup, the type and fields of a dataclass generator
    (:class:`~repro.faults.spec.SpecSetup`,
    :class:`~repro.splash2.common.KernelSetup`), and ``None`` for any
    other callable — it has no content address, so its golden runs must
    not be cached."""
    if setup is None:
        return {}
    if dataclasses.is_dataclass(setup) and not isinstance(setup, type):
        return {"type": type(setup).__name__,
                "fields": dataclasses.asdict(setup)}
    return None


def golden_key(prog_key: str, nthreads: int, seed: int, quantum: int,
               output_globals: Tuple[str, ...],
               inputs: Optional[dict] = None) -> str:
    """Cache key of one golden run (inputs only): the program, the run
    knobs, and the canonical input generator (:func:`setup_inputs`)."""
    return _digest({
        "schema": ARTIFACT_SCHEMA,
        "kind": "golden",
        "program_key": prog_key,
        "nthreads": nthreads,
        "seed": seed,
        "quantum": quantum,
        "output_globals": list(output_globals),
        "inputs": inputs if inputs is not None else {},
    })


def golden_fingerprint(signature, branch_counts: Dict[int, int],
                       steps: int) -> str:
    """Hash of a golden run's *outputs* (signature, per-thread dynamic
    branch counts, step count).  ``repr`` of the nested int/float tuples
    is stable, which JSON (no tuples, no int keys) is not."""
    payload = repr((signature, sorted(branch_counts.items()), int(steps)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
