"""Structured lint diagnostics: deterministic order, JSON, baselines.

Every finding of the race detector is a :class:`Diagnostic` anchored at
one access (function, block label, block index, instruction index, vid)
with a witness — the conflicting counterpart access.  Reports sort by
``(function, block_index, inst_index, witness…)`` and serialize to
canonical JSON (sorted keys), so two runs of the linter — under any
``PYTHONHASHSEED`` — emit byte-identical output.

Baselines: a baseline file is simply a previous JSON report.  Each
diagnostic carries a stable *fingerprint* (location-and-shape based, no
vids or block indices, so unrelated edits don't churn it); comparing a
report against a baseline keeps only diagnostics whose fingerprint
count exceeds the baseline's — the CI contract is "no new findings".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Bump when the diagnostic schema (fields, codes) changes incompatibly.
LINT_SCHEMA = 1

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class AccessSite:
    """One shared-memory access as anchored in the IR."""

    function: str
    block: str
    block_index: int
    inst_index: int
    vid: int
    kind: str            # "load" | "store"
    location: str        # global / array name

    def as_dict(self) -> Dict:
        return {
            "function": self.function,
            "block": self.block,
            "block_index": self.block_index,
            "inst_index": self.inst_index,
            "vid": self.vid,
            "kind": self.kind,
            "location": self.location,
        }

    def label(self) -> str:
        return "%s:%s:%%v%d %s @%s" % (
            self.function, self.block, self.vid, self.kind, self.location)

    def sort_key(self):
        return (self.function, self.block_index, self.inst_index)


@dataclass(frozen=True)
class Diagnostic:
    """One race (or unproven-disjointness) finding."""

    code: str            # e.g. "scalar-race", "index-overlap"
    severity: str        # SEVERITY_ERROR | SEVERITY_WARNING
    access: AccessSite
    witness: AccessSite
    message: str
    #: Why the pair could not be excluded (free-form, deterministic).
    detail: str = ""

    @property
    def location(self) -> str:
        return self.access.location

    def fingerprint(self) -> str:
        """Stable identity for baseline comparison: where (coarsely) and
        what, but no vids/indices that churn under unrelated edits."""
        return "|".join((
            self.code, self.severity, self.access.function,
            self.access.kind, self.access.location,
            self.witness.function, self.witness.kind,
            self.witness.location))

    def sort_key(self):
        return (self.access.sort_key() + self.witness.sort_key()
                + (self.code,))

    def as_dict(self) -> Dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "access": self.access.as_dict(),
            "witness": self.witness.as_dict(),
            "message": self.message,
            "detail": self.detail,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return "%s: %s: %s [%s] (witness: %s)" % (
            self.access.label(), self.severity, self.message, self.code,
            self.witness.label())


@dataclass
class LintReport:
    """Everything :func:`repro.lint.lint_module` found for one program."""

    name: str
    entry: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Deterministic summary counters (accesses inspected, pairs proven
    #: disjoint by each mechanism, …) for the text report and tests.
    stats: Dict[str, int] = field(default_factory=dict)

    def finalize(self) -> "LintReport":
        """Sort diagnostics into canonical order (idempotent)."""
        self.diagnostics.sort(key=lambda d: d.sort_key())
        return self

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def racy_locations(self) -> tuple:
        """Sorted names of globals/arrays involved in *error* findings —
        the input of the race-aware similarity refinement."""
        names = {d.access.location for d in self.errors}
        names.update(d.witness.location for d in self.errors)
        return tuple(sorted(names))

    def as_dict(self) -> Dict:
        return {
            "schema": LINT_SCHEMA,
            "name": self.name,
            "entry": self.entry,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "stats": {k: self.stats[k] for k in sorted(self.stats)},
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def render_text(self) -> str:
        lines = ["%s (entry %s): %d error(s), %d warning(s)"
                 % (self.name, self.entry, len(self.errors),
                    len(self.warnings))]
        for diag in self.diagnostics:
            lines.append("  " + diag.render())
        return "\n".join(lines)
