"""Category-specific runtime checks (paper Table I, rightmost column).

Each check verifies that the reports collected for one dynamic branch
instance are consistent with the *statically inferred* similarity:

``shared``
    Every reporting thread must have sent identical condition values and
    taken the same decision.
``tid_eq``
    Equality compare of an injective thread-ID expression against a
    shared value: at most one thread may take the branch (``eq``), or at
    most one may fall through (``ne``); all reported shared-side values
    must agree.
``tid_monotone``
    Ordered compare of an affine thread-ID expression against a shared
    bound: sorted by thread id, the outcome sequence must be monotone —
    a prefix of takers (or a suffix, per the slope/operator analysis).
``partial``
    Threads are grouped by their condition values; each group must agree
    on the outcome.  Sound for *any* branch because the outcome is a pure
    function of the condition values — this is also why promoting `none`
    branches (optimization 1) can never create a false positive.

All checks are vacuous with fewer than two reporters, which is exactly
the paper's observation that BLOCKWATCH "needs a minimum of two threads
to detect errors".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.instrument.config import CheckedBranchInfo, InstrumentationMetadata
from repro.monitor.hashtable import InstanceEntry


@dataclass(frozen=True)
class Violation:
    """One detected similarity violation."""

    info: CheckedBranchInfo
    rule: str
    message: str
    thread_ids: Tuple[int, ...] = ()

    def __str__(self) -> str:
        return "branch #%d (%s in %s/%s): %s [threads %s]" % (
            self.info.static_id, self.info.check_kind, self.info.function_name,
            self.info.block_name, self.message,
            ",".join(str(t) for t in self.thread_ids))


def _check_store_shared(entry: InstanceEntry) -> Optional[Violation]:
    """The check_stores extension: the stored value is statically shared,
    so every reporting thread must have shipped the same value."""
    reported = sorted(entry.values.items())
    if len(reported) < 2:
        return None
    base_tid, base_values = reported[0]
    for tid, values in reported[1:]:
        if values != base_values:
            return Violation(entry.site.info, "store-shared",
                             "stored values differ: %r vs %r"
                             % (base_values, values), (base_tid, tid))
    return None


def _pairs(entry: InstanceEntry) -> List[Tuple[int, Tuple, bool]]:
    """(thread, values, outcome) for threads that reported an outcome."""
    result = []
    for tid in sorted(entry.outcomes):
        result.append((tid, entry.values.get(tid), entry.outcomes[tid]))
    return result


def _check_shared(entry: InstanceEntry) -> Optional[Violation]:
    pairs = _pairs(entry)
    if len(pairs) < 2:
        return None
    base_tid, base_values, base_outcome = pairs[0]
    for tid, values, outcome in pairs[1:]:
        if values != base_values:
            return Violation(entry.site.info, "shared-values",
                             "condition values differ: %r vs %r"
                             % (base_values, values), (base_tid, tid))
        if outcome != base_outcome:
            return Violation(entry.site.info, "shared-outcome",
                             "branch decisions differ", (base_tid, tid))
    return None


def _check_uniform(entry: InstanceEntry) -> Optional[Violation]:
    """Both compare operands are affine in tid with equal coefficients:
    the tid cancels, so all reporters must take the same decision (the
    partitioned-loop-bound pattern)."""
    pairs = _pairs(entry)
    if len(pairs) < 2:
        return None
    base_tid, _, base_outcome = pairs[0]
    for tid, _, outcome in pairs[1:]:
        if outcome != base_outcome:
            return Violation(entry.site.info, "uniform",
                             "branch decisions differ (tid-invariant "
                             "condition)", (base_tid, tid))
    return None


def _check_shared_side(entry: InstanceEntry, pairs) -> Optional[Violation]:
    """Common sub-check for tid branches: the basis is ``(lhs, rhs)`` and
    ``info.shared_operand_index`` names the operand that is shared across
    threads (if any); it must agree."""
    index = entry.site.info.shared_operand_index
    if index < 0:
        return None
    with_values = [(tid, values) for tid, values, _ in pairs
                   if values is not None and len(values) > index]
    if len(with_values) < 2:
        return None
    base_tid, base_values = with_values[0]
    for tid, values in with_values[1:]:
        if values[index] != base_values[index]:
            return Violation(entry.site.info, "tid-shared-operand",
                             "shared operand differs: %r vs %r"
                             % (base_values[index], values[index]),
                             (base_tid, tid))
    return None


def _check_tid_eq(entry: InstanceEntry) -> Optional[Violation]:
    pairs = _pairs(entry)
    if len(pairs) < 2:
        return None
    violation = _check_shared_side(entry, pairs)
    if violation is not None:
        return violation
    # For 'eq' at most one thread's compare is true -> at most one taken;
    # for 'ne' at most one false -> at most one NOT taken.  Sound because
    # the tid expression is provably injective across threads.
    sense = entry.site.info.eq_sense
    offenders = [tid for tid, _, outcome in pairs
                 if (outcome if sense == "eq" else not outcome)]
    if len(offenders) > 1:
        what = "took the branch" if sense == "eq" else "fell through"
        return Violation(entry.site.info, "tid-eq",
                         "%d threads %s; at most one may" % (len(offenders), what),
                         tuple(offenders))
    return None


def _check_tid_monotone(entry: InstanceEntry) -> Optional[Violation]:
    pairs = _pairs(entry)
    if len(pairs) < 2:
        return None
    violation = _check_shared_side(entry, pairs)
    if violation is not None:
        return violation
    # The compare's outcome is monotone in (lhs - rhs): sorted by that
    # difference the outcome sequence must be one block of takers, on the
    # low side for lt/le ('low') or the high side for gt/ge ('high').
    reporting = []
    for tid, values, outcome in pairs:
        if values is None or len(values) != 2:
            continue
        try:
            diff = values[0] - values[1]
        except TypeError:
            continue  # exotic payload (corrupted beyond arithmetic)
        reporting.append((diff, outcome, tid))
    if len(reporting) < 2:
        return None
    if entry.site.info.monotone_dir == "low":
        reporting.sort(key=lambda item: (item[0], not item[1]))
        outcomes = [outcome for _, outcome, _ in reporting]
        legal = sorted(outcomes, reverse=True)   # takers first
    else:
        reporting.sort(key=lambda item: (item[0], item[1]))
        outcomes = [outcome for _, outcome, _ in reporting]
        legal = sorted(outcomes)                 # takers last
    if outcomes != legal:
        return Violation(entry.site.info, "tid-monotone",
                         "taken set is not the %s-difference block of the "
                         "operand order" % entry.site.info.monotone_dir,
                         tuple(tid for _, _, tid in reporting))
    # Ties must agree: an equal (lhs - rhs) difference implies an equal
    # outcome for every ordered compare.
    by_diff = {}
    for diff, outcome, tid in reporting:
        if diff in by_diff and by_diff[diff][0] != outcome:
            return Violation(entry.site.info, "tid-monotone",
                             "threads with equal operand difference %r "
                             "decided differently" % (diff,),
                             (by_diff[diff][1], tid))
        by_diff.setdefault(diff, (outcome, tid))
    return None


def _check_partial(entry: InstanceEntry) -> Optional[Violation]:
    pairs = _pairs(entry)
    if len(pairs) < 2:
        return None
    group_outcome = {}
    for tid, values, outcome in pairs:
        if values is None:
            continue  # condition message still in flight; skip this thread
        if values in group_outcome:
            first_tid, first_outcome = group_outcome[values]
            if outcome != first_outcome:
                return Violation(
                    entry.site.info, "partial",
                    "threads with equal condition %r decided differently"
                    % (values,), (first_tid, tid))
        else:
            group_outcome[values] = (tid, outcome)
    return None


_CHECKS = {
    "shared": _check_shared,
    "uniform": _check_uniform,
    "tid_eq": _check_tid_eq,
    "tid_monotone": _check_tid_monotone,
    "partial": _check_partial,
    "store_shared": _check_store_shared,
}


class CheckSite:
    """One checked static branch, built once per compiled program.

    It holds everything the monitor needs to check an instance of the
    branch: the check function of its kind, its completion rule, and its
    statistics and telemetry names.  Every message of the branch carries
    its site, so the monitor never looks a branch up or dispatches on a
    check-kind string.
    """

    __slots__ = ("info", "check", "values_only", "check_metric",
                 "violation_metric")

    def __init__(self, info: CheckedBranchInfo):
        check = _CHECKS.get(info.check_kind)
        if check is None:
            raise ValueError("unknown check kind %r" % info.check_kind)
        self.info = info
        self.check = check
        #: Store-value checks have no outcome message (there is no
        #: decision to report): their instances are complete once every
        #: thread sent its value.
        self.values_only = info.check_kind.startswith("store")
        self.check_metric = "monitor.check." + info.check_kind
        self.violation_metric = "monitor.violation." + info.check_kind

    def __repr__(self) -> str:
        return "CheckSite(#%d %s)" % (self.info.static_id,
                                      self.info.check_kind)


def check_sites(metadata: InstrumentationMetadata) -> Dict[int, CheckSite]:
    """static branch id -> the branch's check site."""
    return {static_id: CheckSite(info)
            for static_id, info in metadata.branches.items()}


@dataclass
class CheckStatistics:
    """Aggregate check/violation counters kept by the monitor."""

    instances_checked: int = 0
    checks_by_kind: dict = field(default_factory=dict)
    violations_by_kind: dict = field(default_factory=dict)

    def note_check(self, kind: str) -> None:
        self.instances_checked += 1
        self.checks_by_kind[kind] = self.checks_by_kind.get(kind, 0) + 1

    def note_violation(self, kind: str) -> None:
        self.violations_by_kind[kind] = self.violations_by_kind.get(kind, 0) + 1
